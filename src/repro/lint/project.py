"""Project-wide symbol index and call graph for cross-module rules.

The per-module rules (PL001..PL005) see one file at a time; the deep
rules (PL101..PL103) need to pair an encoder in ``core/`` with its
decoder in ``planner/``, or walk from a fork entry point into
everything it calls.  :class:`ProjectIndex` parses every file once and
exposes:

* ``functions`` -- every function/method, keyed by qualified name
  (``module.py::Class.method``), with its AST and module context;
* ``by_name`` -- the same functions keyed by bare name, for
  convention-based pairing (``encode_header`` / ``decode_header``);
* a best-effort **call graph**: for each function, the set of bare
  callee names it invokes (``f(...)``, ``obj.m(...)`` -> ``m``,
  ``self.m(...)`` resolved within the defining class where possible),
  and :meth:`reachable_from` computing the transitive closure;
* module-level constant tables (ints, bytes, strings) so symbolic
  interpreters can resolve ``out += _MAGIC``.

Resolution is name-based, not type-based: calls resolve to *every*
project function sharing the callee's bare name.  For lint purposes
over-approximation is the right failure mode -- reachability analyses
stay sound, and pairing rules double-check shapes before comparing.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Iterator

from repro.lint.engine import ModuleContext

__all__ = ["FunctionInfo", "ModuleInfo", "ProjectIndex"]


class FunctionInfo:
    """One function or method, with enough context to analyze it."""

    __slots__ = (
        "qualname",
        "name",
        "relpath",
        "node",
        "module",
        "class_name",
        "callees",
    )

    def __init__(
        self,
        qualname: str,
        relpath: str,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        module: "ModuleInfo",
        class_name: str | None,
    ) -> None:
        self.qualname = qualname
        self.name = node.name
        self.relpath = relpath
        self.node = node
        self.module = module
        self.class_name = class_name
        #: Bare names this function calls (populated at index build).
        self.callees: set[str] = set()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FunctionInfo {self.qualname}>"


class ModuleInfo:
    """One parsed module plus its symbol tables."""

    def __init__(self, context: ModuleContext) -> None:
        self.context = context
        self.relpath = context.relpath
        #: Qualified name -> FunctionInfo for functions defined here.
        self.functions: dict[str, FunctionInfo] = {}
        #: Class name -> {method name -> FunctionInfo}.
        self.classes: dict[str, dict[str, FunctionInfo]] = {}
        #: Module-level constants: name -> literal value (int/str/bytes).
        self.constants: dict[str, object] = {}
        #: Imported names: local alias -> dotted source (“repro.util.varint.encode_uvarint”).
        self.imports: dict[str, str] = {}
        self._scan()

    def _scan(self) -> None:
        tree = self.context.tree
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and isinstance(
                stmt.value, ast.Constant
            ):
                value = stmt.value.value
                if isinstance(value, (int, str, bytes)):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            self.constants[target.id] = value
            elif isinstance(stmt, ast.ImportFrom) and stmt.module:
                for alias in stmt.names:
                    local = alias.asname or alias.name
                    self.imports[local] = f"{stmt.module}.{alias.name}"
            elif isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    local = alias.asname or alias.name.split(".")[0]
                    self.imports[local] = alias.name

    def constant_bytes_len(self, name: str) -> int | None:
        """Length of a module-level bytes/str constant, if known."""
        value = self.constants.get(name)
        if isinstance(value, (bytes, str)):
            return len(value)
        return None


def _call_names(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> set[str]:
    """Bare names of everything ``func`` calls (one frame only)."""
    names: set[str] = set()
    stack: list[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            target = node.func
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif isinstance(target, ast.Attribute):
                names.add(target.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


class ProjectIndex:
    """Symbol index + call graph over a set of parsed modules."""

    def __init__(self, modules: Iterable[ModuleContext]) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.by_name: dict[str, list[FunctionInfo]] = {}
        for context in modules:
            info = ModuleInfo(context)
            self.modules[info.relpath] = info
            self._index_module(info)

    # -- construction ---------------------------------------------------

    def _index_module(self, info: ModuleInfo) -> None:
        def add(
            node: ast.FunctionDef | ast.AsyncFunctionDef,
            class_name: str | None,
        ) -> None:
            qual = (
                f"{info.relpath}::{class_name}.{node.name}"
                if class_name
                else f"{info.relpath}::{node.name}"
            )
            fn = FunctionInfo(qual, info.relpath, node, info, class_name)
            fn.callees = _call_names(node)
            info.functions[qual] = fn
            self.functions[qual] = fn
            self.by_name.setdefault(node.name, []).append(fn)
            if class_name is not None:
                info.classes.setdefault(class_name, {})[node.name] = fn

        for stmt in info.context.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                add(stmt, None)
            elif isinstance(stmt, ast.ClassDef):
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        add(sub, stmt.name)

    # -- queries --------------------------------------------------------

    def module(self, relpath: str) -> ModuleInfo | None:
        return self.modules.get(relpath)

    def functions_named(self, name: str) -> list[FunctionInfo]:
        """Every project function with this bare name."""
        return list(self.by_name.get(name, []))

    def resolve_callees(self, fn: FunctionInfo) -> list[FunctionInfo]:
        """Project functions ``fn`` may call (name-based, over-approx).

        ``self.m(...)`` prefers the method of ``fn``'s own class when it
        exists; everything else fans out to all same-named functions.
        """
        resolved: list[FunctionInfo] = []
        own_class = (
            fn.module.classes.get(fn.class_name, {})
            if fn.class_name
            else {}
        )
        for name in fn.callees:
            if name in own_class:
                resolved.append(own_class[name])
                continue
            resolved.extend(self.by_name.get(name, []))
        return resolved

    def reachable_from(
        self, entries: Iterable[FunctionInfo]
    ) -> set[FunctionInfo]:
        """Transitive call-graph closure from ``entries`` (inclusive)."""
        seen: set[str] = set()
        out: set[FunctionInfo] = set()
        stack = list(entries)
        while stack:
            fn = stack.pop()
            if fn.qualname in seen:
                continue
            seen.add(fn.qualname)
            out.add(fn)
            stack.extend(self.resolve_callees(fn))
        return out

    def iter_functions(self) -> Iterator[FunctionInfo]:
        yield from self.functions.values()

    # -- test corpus (for rules that require coverage) -------------------

    def test_files(self, project_root: Path) -> list[tuple[Path, str]]:
        """``(path, source)`` for every test file under the project root."""
        tests_dir = project_root / "tests"
        out: list[tuple[Path, str]] = []
        if tests_dir.is_dir():
            for path in sorted(tests_dir.rglob("*.py")):
                try:
                    out.append((path, path.read_text(encoding="utf-8")))
                except (OSError, UnicodeDecodeError):  # pragma: no cover
                    continue
        return out
