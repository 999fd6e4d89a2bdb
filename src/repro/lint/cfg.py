"""Per-function control-flow graphs for the PL1xx lint rules.

:func:`build_cfg` lowers one function body into a graph of
:class:`CFGNode`\\ s, one node per simple statement plus a handful of
synthetic nodes (entry, the two exits, handler dispatch, ``with``
cleanup).  The design choices that matter to rules:

**Two exits.**  ``cfg.exit`` is the normal exit (every ``return`` and
the fall-off-the-end path); ``cfg.raise_exit`` is the exceptional exit
(an exception leaving the frame).  "On every path" analyses must cover
both.

**Explicit exception edges.**  Statements inside a ``try`` body get an
``exception`` edge to the handler-dispatch node (or the ``finally``
when there are no handlers); ``raise`` and ``assert`` statements get an
edge to the innermost exception target wherever they appear.  Outside
``try`` blocks, plain statements are *not* assumed to raise -- the
graph models the exception control flow the programmer declared, plus
the two statement kinds whose entire purpose is raising.  Pass
``implicit_raises="calls"`` to additionally treat every statement
that calls or subscripts as a potential raise site; PL101 builds its
graphs that way, so a release that a raising call can skip is a leak.
A compound statement raises only from its header (the ``if`` test,
not the suite), which :func:`header_exprs` names.

**``finally`` duplication.**  A ``finally`` suite runs on the normal
path, the exceptional path, and on every ``return`` / ``break`` /
``continue`` that crosses it, each with a different continuation.  The
builder duplicates the suite per continuation (memoized), so dataflow
over the graph needs no special lattice for "finally pending" -- the
paths are simply all there.  One source statement can therefore appear
in several nodes; rules anchor findings by the statement's ``lineno``,
which is identical across copies.

**``with`` cleanup nodes.**  ``with ctx() as x: body`` routes both the
normal body exit and the body's exception edges through a synthetic
``with-cleanup`` node carrying the original ``ast.With``.  Rules treat
that node as the point where the context managers' ``__exit__`` runs
(PL101 counts it as the release of a context-managed resource).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

__all__ = [
    "EDGE_NORMAL",
    "EDGE_EXCEPTION",
    "CFGNode",
    "CFG",
    "build_cfg",
    "header_exprs",
]

EDGE_NORMAL = "normal"
EDGE_EXCEPTION = "exception"

#: Handlers that are guaranteed to stop any propagating ``Exception``.
_CATCH_ALL_NAMES = {"Exception", "BaseException"}


class CFGNode:
    """One statement (or synthetic point) in the graph."""

    __slots__ = ("index", "stmt", "label", "succs", "preds")

    def __init__(
        self, index: int, stmt: ast.stmt | None, label: str
    ) -> None:
        self.index = index
        self.stmt = stmt
        self.label = label
        #: Outgoing edges as ``(node, kind)`` pairs.
        self.succs: list[tuple[CFGNode, str]] = []
        self.preds: list[tuple[CFGNode, str]] = []

    @property
    def lineno(self) -> int:
        return getattr(self.stmt, "lineno", 0)

    def successors(self, kind: str | None = None) -> list["CFGNode"]:
        return [n for n, k in self.succs if kind is None or k == kind]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CFGNode {self.index} {self.label} L{self.lineno}>"


class CFG:
    """Control-flow graph of one function."""

    def __init__(
        self, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        self.func = func
        self.nodes: list[CFGNode] = []
        self.entry = self._new(None, "entry")
        self.exit = self._new(None, "exit")
        self.raise_exit = self._new(None, "raise-exit")

    def _new(self, stmt: ast.stmt | None, label: str) -> CFGNode:
        node = CFGNode(len(self.nodes), stmt, label)
        self.nodes.append(node)
        return node

    def add_edge(self, src: CFGNode, dst: CFGNode, kind: str) -> None:
        if (dst, kind) not in src.succs:
            src.succs.append((dst, kind))
            dst.preds.append((src, kind))

    @property
    def exits(self) -> tuple[CFGNode, CFGNode]:
        """Both frame exits (normal, exceptional)."""
        return (self.exit, self.raise_exit)

    def statement_nodes(self) -> Iterator[CFGNode]:
        """Nodes carrying a real source statement."""
        for node in self.nodes:
            if node.stmt is not None:
                yield node

    def reachable(self) -> set[CFGNode]:
        """Nodes reachable from the entry."""
        seen: set[CFGNode] = set()
        stack = [self.entry]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(n for n, _ in node.succs)
        return seen

    def postorder(self) -> list[CFGNode]:
        """Reachable nodes in postorder (reverse it for forward passes)."""
        order: list[CFGNode] = []
        seen: set[CFGNode] = set()
        # Iterative DFS keeping Python recursion out of deep graphs.
        stack: list[tuple[CFGNode, Iterator[CFGNode]]] = [
            (self.entry, iter(self.entry.successors()))
        ]
        seen.add(self.entry)
        while stack:
            node, it = stack[-1]
            advanced = False
            for succ in it:
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, iter(succ.successors())))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()
        return order


class _Context:
    """Where control transfers out of the current statement go."""

    __slots__ = (
        "exc_target",
        "break_target",
        "continue_target",
        "return_target",
    )

    def __init__(
        self,
        exc_target: CFGNode,
        break_target: CFGNode | None,
        continue_target: CFGNode | None,
        return_target: CFGNode,
    ) -> None:
        self.exc_target = exc_target
        self.break_target = break_target
        self.continue_target = continue_target
        self.return_target = return_target

    def replaced(self, **kwargs) -> "_Context":
        new = _Context(
            self.exc_target,
            self.break_target,
            self.continue_target,
            self.return_target,
        )
        for key, value in kwargs.items():
            setattr(new, key, value)
        return new


class _Builder:
    def __init__(
        self,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        implicit_raises: str,
    ) -> None:
        if implicit_raises not in ("none", "calls"):
            raise ValueError(
                "implicit_raises must be 'none' or 'calls', "
                f"not {implicit_raises!r}"
            )
        self.cfg = CFG(func)
        self.implicit_raises = implicit_raises
        #: Statements currently guarded by a try body (exception edges
        #: to the handler dispatch are added for *all* statements there,
        #: not just raise/assert).
        self._try_depth = 0

    def build(self) -> CFG:
        cfg = self.cfg
        ctx = _Context(
            exc_target=cfg.raise_exit,
            break_target=None,
            continue_target=None,
            return_target=cfg.exit,
        )
        last = self._emit_body(cfg.func.body, cfg.entry, ctx)
        if last is not None:
            cfg.add_edge(last, cfg.exit, EDGE_NORMAL)
        return cfg

    # -- helpers --------------------------------------------------------

    def _may_raise_implicitly(self, stmt: ast.stmt) -> bool:
        if self._try_depth > 0:
            return True
        return self.implicit_raises == "calls" and any(
            isinstance(node, (ast.Call, ast.Subscript))
            for part in header_exprs(stmt)
            for node in ast.walk(part)
        )

    def _link(self, prev: CFGNode | None, node: CFGNode) -> None:
        if prev is not None:
            self.cfg.add_edge(prev, node, EDGE_NORMAL)

    def _emit_body(
        self,
        body: list[ast.stmt],
        prev: CFGNode | None,
        ctx: _Context,
    ) -> CFGNode | None:
        """Emit a suite; returns the last open node (None if all paths left)."""
        for stmt in body:
            if prev is None:
                # Unreachable code after return/raise/break: still emit
                # nodes (rules may want them) but leave them unlinked.
                prev = self._emit_stmt(stmt, None, ctx)
            else:
                prev = self._emit_stmt(stmt, prev, ctx)
        return prev

    # -- statement dispatch ---------------------------------------------

    def _emit_stmt(
        self,
        stmt: ast.stmt,
        prev: CFGNode | None,
        ctx: _Context,
    ) -> CFGNode | None:
        cfg = self.cfg
        if isinstance(stmt, ast.If):
            return self._emit_if(stmt, prev, ctx)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._emit_loop(stmt, prev, ctx)
        if isinstance(stmt, (ast.Try, getattr(ast, "TryStar", ast.Try))):
            return self._emit_try(stmt, prev, ctx)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._emit_with(stmt, prev, ctx)
        if isinstance(stmt, ast.Match):
            return self._emit_match(stmt, prev, ctx)

        node = cfg._new(stmt, type(stmt).__name__)
        self._link(prev, node)
        if isinstance(stmt, ast.Return):
            cfg.add_edge(node, ctx.return_target, EDGE_NORMAL)
            return None
        if isinstance(stmt, ast.Raise):
            cfg.add_edge(node, ctx.exc_target, EDGE_EXCEPTION)
            return None
        if isinstance(stmt, ast.Break):
            if ctx.break_target is not None:
                cfg.add_edge(node, ctx.break_target, EDGE_NORMAL)
            return None
        if isinstance(stmt, ast.Continue):
            if ctx.continue_target is not None:
                cfg.add_edge(node, ctx.continue_target, EDGE_NORMAL)
            return None
        if isinstance(stmt, ast.Assert):
            cfg.add_edge(node, ctx.exc_target, EDGE_EXCEPTION)
            return node
        if self._may_raise_implicitly(stmt):
            cfg.add_edge(node, ctx.exc_target, EDGE_EXCEPTION)
        return node

    def _emit_if(
        self, stmt: ast.If, prev: CFGNode | None, ctx: _Context
    ) -> CFGNode | None:
        cfg = self.cfg
        test = cfg._new(stmt, "if")
        self._link(prev, test)
        if self._may_raise_implicitly(stmt):
            cfg.add_edge(test, ctx.exc_target, EDGE_EXCEPTION)
        join = cfg._new(None, "if-join")
        then_last = self._emit_body(stmt.body, test, ctx)
        if then_last is not None:
            cfg.add_edge(then_last, join, EDGE_NORMAL)
        if stmt.orelse:
            else_last = self._emit_body(stmt.orelse, test, ctx)
            if else_last is not None:
                cfg.add_edge(else_last, join, EDGE_NORMAL)
        else:
            cfg.add_edge(test, join, EDGE_NORMAL)
        return join if join.preds else None

    def _emit_loop(
        self,
        stmt: ast.While | ast.For | ast.AsyncFor,
        prev: CFGNode | None,
        ctx: _Context,
    ) -> CFGNode | None:
        cfg = self.cfg
        head = cfg._new(stmt, "loop-head")
        self._link(prev, head)
        if self._may_raise_implicitly(stmt):
            cfg.add_edge(head, ctx.exc_target, EDGE_EXCEPTION)
        after = cfg._new(None, "loop-after")
        body_ctx = ctx.replaced(break_target=after, continue_target=head)
        body_last = self._emit_body(stmt.body, head, body_ctx)
        if body_last is not None:
            cfg.add_edge(body_last, head, EDGE_NORMAL)
        # Loop exit: condition false / iterator exhausted, through the
        # orelse suite when there is one.
        if stmt.orelse:
            else_last = self._emit_body(stmt.orelse, head, ctx)
            if else_last is not None:
                cfg.add_edge(else_last, after, EDGE_NORMAL)
        else:
            cfg.add_edge(head, after, EDGE_NORMAL)
        return after if after.preds else None

    def _emit_match(
        self, stmt: ast.Match, prev: CFGNode | None, ctx: _Context
    ) -> CFGNode | None:
        cfg = self.cfg
        subject = cfg._new(stmt, "match")
        self._link(prev, subject)
        if self._may_raise_implicitly(stmt):
            cfg.add_edge(subject, ctx.exc_target, EDGE_EXCEPTION)
        join = cfg._new(None, "match-join")
        has_wildcard = False
        for case in stmt.cases:
            if (
                isinstance(case.pattern, ast.MatchAs)
                and case.pattern.pattern is None
                and case.guard is None
            ):
                has_wildcard = True
            case_last = self._emit_body(case.body, subject, ctx)
            if case_last is not None:
                cfg.add_edge(case_last, join, EDGE_NORMAL)
        if not has_wildcard:
            cfg.add_edge(subject, join, EDGE_NORMAL)
        return join if join.preds else None

    # -- try / finally ---------------------------------------------------

    def _emit_try(
        self,
        stmt: ast.Try,
        prev: CFGNode | None,
        ctx: _Context,
    ) -> CFGNode | None:
        cfg = self.cfg
        after = cfg._new(None, "try-after")

        # Continuations through the finally suite: each distinct target
        # gets one (memoized) copy of the suite routed to it.
        finally_copies: dict[int, CFGNode | None] = {}

        def through_finally(target: CFGNode) -> CFGNode:
            if not stmt.finalbody:
                return target
            cached = finally_copies.get(target.index, None)
            if cached is not None:
                return cached
            entry = cfg._new(stmt, "finally")
            finally_copies[target.index] = entry
            # The finally suite itself runs under the *outer* context:
            # an exception raised inside it propagates past this try.
            last = self._emit_body(stmt.finalbody, entry, ctx)
            if last is not None:
                cfg.add_edge(last, target, EDGE_NORMAL)
            return entry

        # Exception inside the try body: handlers first (if any), then
        # unmatched propagation through the finally to the outer target.
        propagate = through_finally(ctx.exc_target)
        if stmt.handlers:
            dispatch = cfg._new(stmt, "except-dispatch")
            catch_all = False
            handler_ctx = ctx.replaced(
                exc_target=propagate,
                break_target=(
                    through_finally(ctx.break_target)
                    if ctx.break_target is not None
                    else None
                ),
                continue_target=(
                    through_finally(ctx.continue_target)
                    if ctx.continue_target is not None
                    else None
                ),
                return_target=through_finally(ctx.return_target),
            )
            for handler in stmt.handlers:
                entry = cfg._new(handler, "except")
                cfg.add_edge(dispatch, entry, EDGE_NORMAL)
                if handler.type is None or _is_catch_all(handler.type):
                    catch_all = True
                handler_last = self._emit_body(
                    handler.body, entry, handler_ctx
                )
                if handler_last is not None:
                    cfg.add_edge(
                        handler_last,
                        through_finally(after),
                        EDGE_NORMAL,
                    )
            if not catch_all:
                cfg.add_edge(dispatch, propagate, EDGE_EXCEPTION)
            body_exc_target = dispatch
        else:
            body_exc_target = propagate

        body_ctx = ctx.replaced(
            exc_target=body_exc_target,
            break_target=(
                through_finally(ctx.break_target)
                if ctx.break_target is not None
                else None
            ),
            continue_target=(
                through_finally(ctx.continue_target)
                if ctx.continue_target is not None
                else None
            ),
            return_target=through_finally(ctx.return_target),
        )
        self._try_depth += 1
        try:
            body_last = self._emit_body(stmt.body, prev, body_ctx)
        finally:
            self._try_depth -= 1
        if prev is not None and not stmt.body:  # pragma: no cover
            body_last = prev
        # orelse runs when the body completed without raising; its
        # exceptions skip this try's handlers.
        if body_last is not None and stmt.orelse:
            orelse_ctx = body_ctx.replaced(exc_target=propagate)
            body_last = self._emit_body(stmt.orelse, body_last, orelse_ctx)
        if body_last is not None:
            cfg.add_edge(body_last, through_finally(after), EDGE_NORMAL)
        return after if after.preds else None

    # -- with ------------------------------------------------------------

    def _emit_with(
        self,
        stmt: ast.With | ast.AsyncWith,
        prev: CFGNode | None,
        ctx: _Context,
    ) -> CFGNode | None:
        cfg = self.cfg
        enter = cfg._new(stmt, "with-enter")
        self._link(prev, enter)
        # Entering (evaluating the context expressions) can itself
        # raise, before __exit__ is armed.
        if self._may_raise_implicitly(stmt):
            cfg.add_edge(enter, ctx.exc_target, EDGE_EXCEPTION)

        # Cleanup on the exceptional path: __exit__ runs, then the
        # exception continues to the outer target.
        exc_cleanup = cfg._new(stmt, "with-cleanup")
        cfg.add_edge(exc_cleanup, ctx.exc_target, EDGE_EXCEPTION)
        body_ctx = ctx.replaced(exc_target=exc_cleanup)

        # return/break/continue out of the body also run __exit__.
        def via_cleanup(target: CFGNode) -> CFGNode:
            node = cfg._new(stmt, "with-cleanup")
            cfg.add_edge(node, target, EDGE_NORMAL)
            return node

        if ctx.break_target is not None:
            body_ctx.break_target = via_cleanup(ctx.break_target)
        if ctx.continue_target is not None:
            body_ctx.continue_target = via_cleanup(ctx.continue_target)
        body_ctx.return_target = via_cleanup(ctx.return_target)

        self._try_depth += 1
        try:
            body_last = self._emit_body(stmt.body, enter, body_ctx)
        finally:
            self._try_depth -= 1
        if body_last is None:
            return None
        normal_cleanup = cfg._new(stmt, "with-cleanup")
        cfg.add_edge(body_last, normal_cleanup, EDGE_NORMAL)
        return normal_cleanup


def _is_catch_all(expr: ast.expr) -> bool:
    """Whether an ``except <expr>`` stops any propagating Exception."""
    names: Iterable[ast.expr]
    if isinstance(expr, ast.Tuple):
        names = expr.elts
    else:
        names = [expr]
    for name in names:
        if isinstance(name, ast.Name) and name.id in _CATCH_ALL_NAMES:
            return True
        if isinstance(name, ast.Attribute) and name.attr in _CATCH_ALL_NAMES:
            return True
    return False


def header_exprs(stmt: ast.AST) -> list[ast.AST]:
    """What ``stmt``'s own node evaluates; its suites have their own nodes.

    A simple statement evaluates all of itself.  A compound one
    evaluates only its header: an ``if``/``while`` test, a loop's
    iterable, a ``match`` subject, ``with`` context expressions, a
    ``def``/``class``'s decorators; a ``try`` or handler nothing.
    """
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, ast.Match):
        return [stmt.subject]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(
        stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    ):
        return list(stmt.decorator_list)
    if isinstance(
        stmt, (ast.Try, getattr(ast, "TryStar", ast.Try), ast.ExceptHandler)
    ):
        return []
    return [stmt]


def build_cfg(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
    *,
    implicit_raises: str = "none",
) -> CFG:
    """Build the control-flow graph of one function.

    ``implicit_raises`` selects how liberally exception edges are added
    outside declared ``try`` blocks: ``"none"`` (default) adds them only
    for ``raise`` / ``assert``, ``"calls"`` also for any node whose
    :func:`header_exprs` contain a call or subscript.
    """
    return _Builder(func, implicit_raises).build()
