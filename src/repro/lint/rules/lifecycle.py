"""PL101 -- resource lifecycle, proved on the control-flow graph.

A ``SharedMemory`` segment without ``close()``/``unlink()`` outlives
the process in ``/dev/shm``, an unreleased ``memoryview`` pins its
segment mapped, and an unclosed file holds a descriptor.  So every
tracked acquisition in a frame must be released, or its ownership
transferred, on **every** path to either frame exit -- the normal one
and the raise one.  The rule builds the function's control-flow graph
(exception edges included) and proves it.  The canonical bug::

    view = memoryview(data)
    try:
        n = parse(view)
    except ValueError:
        return None          # PL101: leak on the error path
    view.release()
    return n

**Exception model.**  Besides the edges the programmer declared
(``raise``, ``assert``, every statement of a ``try`` body), any
statement that calls or subscripts may raise: the graph is built with
``implicit_raises="calls"``.  A release that such a statement can skip
belongs in a ``finally`` or a ``with``::

    shm = SharedMemory(create=True, size=n)
    shm.buf[:n] = payload    # PL101: a raise here skips the close()
    shm.close()

Names, attribute reads and branch tests on them are not raise sites,
so a release on every branch of an ``if`` needs no ``finally``.

The proof is a backward *must* analysis over the CFG: a resource is
*satisfied* at a node if **all** paths from that node to an exit pass
a satisfying event; the acquisition is clean iff its name is satisfied
at every successor.  Satisfying events:

* release calls: ``x.close()``, ``x.unlink()``, ``x.release()``;
* ``with x:`` / ``with acquire() as x:`` cleanup (the CFG's synthetic
  ``with-cleanup`` nodes);
* ownership transfers: ``return x`` / ``yield x`` (including tuples
  and method-call results on ``x``), assignment to an attribute or
  subscript target, or passing ``x`` to a registry-style call
  (``append``, ``register``, ``track_segment``, ...).  Copies do not
  count: ``return bytes(shm.buf[:16])`` still leaks the attachment;
* rebinding ``x`` *kills* satisfaction backward past the rebind: a
  release after ``x = memoryview(b)`` does not excuse the ``x`` bound
  before it.

Tracked acquisitions: ``SharedMemory(...)``, ``memoryview(...)``,
``*.buf``, and ``open(...)``.  The opt-in runtime sanitizer
(:mod:`repro.lint.sanitize`) is the dynamic counterpart of this rule.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.cfg import CFG, CFGNode, EDGE_NORMAL, build_cfg, header_exprs
from repro.lint.dataflow import BACKWARD, DataflowProblem, solve
from repro.lint.engine import Finding, ModuleContext, Rule

__all__ = ["ResourceLifecycleRule"]

_RELEASE_METHODS = {"close", "unlink", "release"}

#: Call names whose arguments take ownership.
_TRANSFER_CALLS = {
    "append",
    "add",
    "appendleft",
    "register",
    "track",
    "track_segment",
    "setdefault",
}

_RESOURCE_LABELS = {
    "shm": ("SharedMemory segment", "close()/unlink()"),
    "view": ("memoryview", "release()"),
    "file": ("file handle", "close()"),
}


def acquisition_kind(value: ast.expr) -> str | None:
    """Classify an expression as a tracked resource acquisition."""
    if isinstance(value, ast.Call):
        func = value.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr
            if isinstance(func, ast.Attribute)
            else None
        )
        if name == "SharedMemory":
            return "shm"
        if name == "memoryview":
            return "view"
        if name == "open":
            return "file"
    if isinstance(value, ast.Attribute) and value.attr == "buf":
        return "view"
    return None


def _releases(part: ast.AST) -> set[str]:
    """Names released by ``x.close()`` / ``os.close(x)`` style calls."""
    released: set[str] = set()
    for node in ast.walk(part):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _RELEASE_METHODS
            and isinstance(func.value, ast.Name)
        ):
            released.add(func.value.id)
        # Function-style release: os.close(fd), close(fd).
        name = (
            func.attr
            if isinstance(func, ast.Attribute)
            else func.id
            if isinstance(func, ast.Name)
            else None
        )
        if (
            name in _RELEASE_METHODS
            and len(node.args) == 1
            and isinstance(node.args[0], ast.Name)
        ):
            released.add(node.args[0].id)
    return released


def _transfers(part: ast.AST) -> set[str]:
    """Names whose ownership visibly leaves the frame in ``part``."""
    transferred: set[str] = set()
    for node in ast.walk(part):
        if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            value = node.value
            candidates = (
                list(value.elts)
                if isinstance(value, (ast.Tuple, ast.List))
                else [value]
            )
            for cand in candidates:
                if isinstance(cand, ast.Name):
                    transferred.add(cand.id)
                elif (
                    isinstance(cand, ast.Call)
                    and isinstance(cand.func, ast.Attribute)
                    and isinstance(cand.func.value, ast.Name)
                ):
                    # return x.toreadonly() -- a derived view escapes.
                    transferred.add(cand.func.value.id)
        elif isinstance(node, ast.Assign):
            if isinstance(node.value, ast.Name) and any(
                isinstance(t, (ast.Attribute, ast.Subscript))
                for t in node.targets
            ):
                transferred.add(node.value.id)
        elif isinstance(node, ast.Call):
            attr = (
                node.func.attr
                if isinstance(node.func, ast.Attribute)
                else node.func.id
                if isinstance(node.func, ast.Name)
                else None
            )
            if attr in _TRANSFER_CALLS:
                for arg in node.args:
                    if isinstance(arg, ast.Name):
                        transferred.add(arg.id)
    return transferred


def _stmt_rebinds(stmt: ast.stmt) -> set[str]:
    """Simple-name targets this statement rebinds, *dropping* the old value.

    A rebind whose right-hand side still reads the old name
    (``view = view.cast("B")``, ``v = wrap(v)``) is a *derivation*: the
    resource lives on under the same name (or inside the wrapper), so
    it neither kills nor satisfies the obligation.
    """
    rebound: set[str] = set()
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
        value = stmt.value
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
        value = stmt.value
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        targets = [stmt.target]
        value = stmt.iter
    else:
        return rebound
    value_reads = {
        n.id
        for n in (ast.walk(value) if value is not None else ())
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    for target in targets:
        if isinstance(target, ast.Name) and target.id not in value_reads:
            rebound.add(target.id)
    return rebound


def _with_item_names(stmt: ast.stmt | None) -> set[str]:
    """Names managed by a ``with`` statement (``with x:`` / ``as x``)."""
    names: set[str] = set()
    if not isinstance(stmt, (ast.With, ast.AsyncWith)):
        return names
    for item in stmt.items:
        if isinstance(item.context_expr, ast.Name):
            names.add(item.context_expr.id)
        if isinstance(item.optional_vars, ast.Name):
            names.add(item.optional_vars.id)
    return names


def _node_events(node: CFGNode) -> tuple[set[str], set[str], set[str]]:
    """``(releases, transfers, rebinds)`` happening *at* this node."""
    stmt = node.stmt
    if stmt is None:
        return set(), set(), set()
    if node.label == "with-cleanup":
        return _with_item_names(stmt), set(), set()
    releases: set[str] = set()
    transfers: set[str] = set()
    for part in header_exprs(stmt):
        releases |= _releases(part)
        transfers |= _transfers(part)
    return releases, transfers, _stmt_rebinds(stmt)


class _SatisfiedOnAllPaths(DataflowProblem):
    """Backward must-analysis: names released/escaped on *every* path."""

    direction = BACKWARD
    may = False

    def __init__(self, cfg: CFG, tracked: frozenset) -> None:
        self._tracked = tracked
        self._gen: dict[int, frozenset] = {}
        self._kill: dict[int, frozenset] = {}
        for node in cfg.nodes:
            releases, transfers, rebinds = _node_events(node)
            gen = (releases | transfers) & tracked
            kill = (rebinds & tracked) - gen
            self._gen[node.index] = frozenset(gen)
            self._kill[node.index] = frozenset(kill)

    def gen(self, node: CFGNode) -> frozenset:
        return self._gen[node.index]

    def kill(self, node: CFGNode) -> frozenset:
        return self._kill[node.index]

    def universe(self) -> frozenset:
        return self._tracked


def _witness_exit(
    cfg: CFG, start_nodes: list[CFGNode], solution, name: str
) -> str:
    """Describe one unsatisfied path: which exit it reaches."""
    seen: set[int] = set()
    stack = [n for n in start_nodes if name not in solution.entering(n)]
    reaches_raise = False
    reaches_return = False
    while stack:
        node = stack.pop()
        if node.index in seen:
            continue
        seen.add(node.index)
        if node is cfg.exit:
            reaches_return = True
            continue
        if node is cfg.raise_exit:
            reaches_raise = True
            continue
        # Follow only successors where the obligation is still unmet.
        for succ in node.successors():
            if name not in solution.entering(succ):
                stack.append(succ)
    if reaches_raise and reaches_return:
        return "both a return path and the exception path"
    if reaches_raise:
        return "the exception path"
    if reaches_return:
        return "a return path"
    # Neither exit was reached unsatisfied: the obligation died at a
    # rebind of the name (the old resource was dropped, not released).
    return "a rebinding of the name"


class ResourceLifecycleRule(Rule):
    """Every resource is provably released on all CFG paths (both exits)."""

    code = "PL101"
    title = "path-sensitive resource lifecycle"
    rationale = (
        "A release that some path skips -- an early return, an except "
        "clause, a call that raises between acquire and close -- leaks "
        "segments to /dev/shm and pins views exactly when errors "
        "already made things bad; the CFG proof covers every path, "
        "exception edges included."
    )
    #: v2: any call or subscript between acquisition and release may
    #: raise, not only the raises the code declares.
    analysis_version = 2
    example_bad = (
        "def decode(data):\n"
        "    view = memoryview(data)\n"
        "    try:\n"
        "        n = int(view[0])\n"
        "    except IndexError:\n"
        "        return None        # leak: view never released here\n"
        "    view.release()\n"
        "    return n\n"
    )
    example_good = (
        "def decode(data):\n"
        "    view = memoryview(data)\n"
        "    try:\n"
        "        return int(view[0])\n"
        "    except IndexError:\n"
        "        return None\n"
        "    finally:\n"
        "        view.release()     # runs on every path\n"
    )

    def check(self, module: ModuleContext) -> Iterable[Finding]:
        for func in module.functions():
            yield from self._check_function(module, func)

    def _check_function(
        self,
        module: ModuleContext,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterable[Finding]:
        acquisitions: list[tuple[CFGNode, str, str]] = []
        cfg = build_cfg(func, implicit_raises="calls")
        reachable = cfg.reachable()
        for node in cfg.nodes:
            stmt = node.stmt
            if (
                node not in reachable
                or not isinstance(stmt, ast.Assign)
                or node.label != "Assign"
            ):
                continue
            kind = acquisition_kind(stmt.value)
            if kind is None:
                continue
            targets = [t for t in stmt.targets if isinstance(t, ast.Name)]
            if targets:
                acquisitions.append((node, targets[0].id, kind))
        # ``with SharedMemory(...) as x`` is managed by construction.
        if not acquisitions:
            return
        tracked = frozenset(name for _, name, _ in acquisitions)
        solution = solve(cfg, _SatisfiedOnAllPaths(cfg, tracked))
        reported: set[tuple[str, int]] = set()
        for node, name, kind in acquisitions:
            succs = node.successors(EDGE_NORMAL)
            # The acquisition statement may itself transfer ownership
            # (``self._view = x = memoryview(b)`` styles).
            releases, transfers, _ = _node_events(node)
            if name in (releases | transfers):
                continue
            ok = bool(succs) and all(
                name in solution.entering(s) for s in succs
            )
            if ok:
                continue
            key = (name, node.lineno)
            if key in reported:
                continue
            reported.add(key)
            label, release = _RESOURCE_LABELS[kind]
            where = _witness_exit(cfg, succs, solution, name)
            yield self.finding(
                module,
                node.stmt,
                f"{label} '{name}' acquired in '{func.name}' can reach "
                f"{where} out of the frame without {release} or an "
                "ownership transfer",
            )
