"""CFG builder tests on adversarial control-flow shapes."""

import ast
import textwrap

import pytest

from repro.lint.cfg import (
    EDGE_EXCEPTION,
    EDGE_NORMAL,
    build_cfg,
)


def make_cfg(src, **kwargs):
    tree = ast.parse(textwrap.dedent(src))
    func = tree.body[0]
    assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    return build_cfg(func, **kwargs)


def reaches(src_node, dst_node):
    """Whether ``dst_node`` is reachable from ``src_node`` via succs."""
    seen = set()
    stack = [src_node]
    while stack:
        node = stack.pop()
        if node is dst_node:
            return True
        if node in seen:
            continue
        seen.add(node)
        stack.extend(n for n, _ in node.succs)
    return False


def nodes_at(cfg, lineno, label=None):
    return [
        n
        for n in cfg.nodes
        if n.lineno == lineno and (label is None or n.label == label)
    ]


def line_of(cfg, needle):
    source = ast.unparse(cfg.func)
    for offset, text in enumerate(source.splitlines()):
        if needle in text:
            return cfg.func.lineno + offset
    raise AssertionError(f"{needle!r} not in function source")


def test_linear_body_chains_to_exit():
    cfg = make_cfg(
        """
        def f(a):
            b = a + 1
            c = b * 2
            return c
        """
    )
    assert reaches(cfg.entry, cfg.exit)
    # No declared exception flow: the raise exit is unreachable.
    assert cfg.raise_exit not in cfg.reachable()


def test_raise_edges_to_raise_exit():
    cfg = make_cfg(
        """
        def f(a):
            if a < 0:
                raise ValueError(a)
            return a
        """
    )
    (raise_node,) = [
        n for n in cfg.statement_nodes() if isinstance(n.stmt, ast.Raise)
    ]
    assert raise_node.successors(EDGE_EXCEPTION) == [cfg.raise_exit]
    assert raise_node.successors(EDGE_NORMAL) == []


def test_code_after_return_is_unreachable():
    cfg = make_cfg(
        """
        def f():
            return 1
            x = 2
        """
    )
    reachable = cfg.reachable()
    (dead,) = [
        n for n in cfg.statement_nodes() if isinstance(n.stmt, ast.Assign)
    ]
    assert dead not in reachable
    assert cfg.exit in reachable


def test_early_return_and_continue_in_loop():
    cfg = make_cfg(
        """
        def f(items):
            for it in items:
                if it > 0:
                    return it
                continue
            return None
        """
    )
    (head,) = [n for n in cfg.nodes if n.label == "loop-head"]
    (ret_in_loop, _ret_tail) = sorted(
        (n for n in cfg.statement_nodes() if isinstance(n.stmt, ast.Return)),
        key=lambda n: n.lineno,
    )
    (cont,) = [
        n for n in cfg.statement_nodes() if isinstance(n.stmt, ast.Continue)
    ]
    assert ret_in_loop.successors(EDGE_NORMAL) == [cfg.exit]
    assert cont.successors(EDGE_NORMAL) == [head]


def test_break_targets_loop_after():
    cfg = make_cfg(
        """
        def f(items):
            while True:
                if not items:
                    break
                items.pop()
            return items
        """
    )
    (after,) = [n for n in cfg.nodes if n.label == "loop-after"]
    (brk,) = [
        n for n in cfg.statement_nodes() if isinstance(n.stmt, ast.Break)
    ]
    assert brk.successors(EDGE_NORMAL) == [after]


def test_try_finally_duplicates_suite_per_continuation():
    cfg = make_cfg(
        """
        def f():
            try:
                x = risky()
                return x
            finally:
                cleanup()
        """
    )
    cleanup_line = line_of(cfg, "cleanup()")
    copies = [
        n
        for n in cfg.statement_nodes()
        if n.lineno == cleanup_line and isinstance(n.stmt, ast.Expr)
    ]
    # One copy on the return continuation, one on the exception path.
    assert len(copies) == 2
    assert any(reaches(c, cfg.exit) and not reaches(c, cfg.raise_exit) for c in copies)
    assert any(reaches(c, cfg.raise_exit) and not reaches(c, cfg.exit) for c in copies)


def test_nested_try_finally_runs_inner_then_outer():
    cfg = make_cfg(
        """
        def f():
            try:
                try:
                    return work()
                finally:
                    inner()
            finally:
                outer()
        """
    )
    inner_line = line_of(cfg, "inner()")
    outer_line = line_of(cfg, "outer()")
    inner_nodes = [
        n for n in cfg.statement_nodes() if n.lineno == inner_line
    ]
    outer_nodes = [
        n for n in cfg.statement_nodes() if n.lineno == outer_line
    ]
    # Every path to the normal exit passes inner -> outer: some inner
    # copy reaches an outer copy which reaches the exit, and no inner
    # copy reaches the exit without an outer copy in between.
    on_exit_path = [n for n in inner_nodes if reaches(n, cfg.exit)]
    assert on_exit_path
    for inner_node in on_exit_path:
        assert any(
            reaches(inner_node, outer_node) and reaches(outer_node, cfg.exit)
            for outer_node in outer_nodes
        )


def test_with_cleanup_guards_exception_and_return_paths():
    cfg = make_cfg(
        """
        def f(path):
            with open(path) as fh:
                if fh.read():
                    return 1
                raise ValueError(path)
        """
    )
    cleanups = [n for n in cfg.nodes if n.label == "with-cleanup"]
    assert cleanups
    (raise_node,) = [
        n for n in cfg.statement_nodes() if isinstance(n.stmt, ast.Raise)
    ]
    (ret_node,) = [
        n for n in cfg.statement_nodes() if isinstance(n.stmt, ast.Return)
    ]
    # Both the raise and the return route through __exit__ first.
    assert all(s.label == "with-cleanup" for s in raise_node.successors())
    assert all(s.label == "with-cleanup" for s in ret_node.successors())
    assert reaches(raise_node, cfg.raise_exit)
    assert reaches(ret_node, cfg.exit)


def test_bare_raise_reraise_in_handler_propagates():
    cfg = make_cfg(
        """
        def f():
            try:
                work()
            except ValueError:
                log()
                raise
            return 1
        """
    )
    (reraise,) = [
        n for n in cfg.statement_nodes() if isinstance(n.stmt, ast.Raise)
    ]
    assert reaches(reraise, cfg.raise_exit)
    assert not reaches(reraise, cfg.exit)
    # A ValueError handler is not catch-all: the dispatch node keeps an
    # escape edge for unmatched exception types.
    (dispatch,) = [n for n in cfg.nodes if n.label == "except-dispatch"]
    assert any(
        kind == EDGE_EXCEPTION and reaches(succ, cfg.raise_exit)
        for succ, kind in dispatch.succs
    )


def test_catch_all_handler_stops_propagation():
    cfg = make_cfg(
        """
        def f():
            try:
                work()
            except Exception:
                return None
            return 1
        """
    )
    assert cfg.raise_exit not in cfg.reachable()


def test_try_orelse_skips_this_trys_handlers():
    cfg = make_cfg(
        """
        def f():
            try:
                x = work()
            except ValueError:
                return None
            else:
                raise RuntimeError(x)
        """
    )
    (raise_node,) = [
        n for n in cfg.statement_nodes() if isinstance(n.stmt, ast.Raise)
    ]
    # The orelse raise must not loop back into the except dispatch.
    (dispatch,) = [n for n in cfg.nodes if n.label == "except-dispatch"]
    assert dispatch not in raise_node.successors()
    assert reaches(raise_node, cfg.raise_exit)


def test_implicit_raises_modes():
    src = """
        def f(a):
            b = g(a)
            return b
    """
    cfg_none = make_cfg(src)
    cfg_calls = make_cfg(src, implicit_raises="calls")
    call_none = [
        n for n in cfg_none.statement_nodes() if isinstance(n.stmt, ast.Assign)
    ][0]
    call_strict = [
        n
        for n in cfg_calls.statement_nodes()
        if isinstance(n.stmt, ast.Assign)
    ][0]
    assert call_none.successors(EDGE_EXCEPTION) == []
    assert call_strict.successors(EDGE_EXCEPTION) == [cfg_calls.raise_exit]


def test_strict_mode_raises_from_headers_not_suites():
    cfg = make_cfg(
        """
        def f(view, wide):
            if wide:
                view.release()
            for item in view:
                g(item)
            with lock:
                h()
            def inner():
                return k()
            return 0
        """,
        implicit_raises="calls",
    )
    headers = [
        n
        for n in cfg.statement_nodes()
        if n.label in ("if", "loop-head", "with-enter", "FunctionDef")
    ]
    assert len(headers) == 4
    assert all(n.successors(EDGE_EXCEPTION) == [] for n in headers)
    # The suite's own call is still a raise site.
    release = next(n for n in cfg.statement_nodes() if n.label == "Expr")
    assert release.successors(EDGE_EXCEPTION) == [cfg.raise_exit]


def test_invalid_implicit_raises_rejected():
    with pytest.raises(ValueError):
        make_cfg("def f():\n    pass\n", implicit_raises="always")


def test_match_without_wildcard_keeps_fallthrough():
    cfg = make_cfg(
        """
        def f(cmd):
            match cmd:
                case "go":
                    return 1
                case _:
                    return 2
        """
    )
    (subject,) = [n for n in cfg.nodes if n.label == "match"]
    joins = [n for n in cfg.nodes if n.label == "match-join"]
    # Wildcard case present: no direct subject -> join fallthrough.
    assert all(join not in subject.successors() for join in joins)
