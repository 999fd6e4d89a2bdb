"""AST rule engine behind ``primacy lint``.

The engine is deliberately small: a :class:`Rule` is an object with a
``code`` (``PL001``), a default :class:`Severity`, and a ``check``
method that walks one parsed module and yields :class:`Finding`\\ s.
Everything repo-specific lives in :mod:`repro.lint.rules`; everything
generic -- file discovery, suppression comments, baselines, output
formats, exit-status policy -- lives here.

Suppressions
------------
A finding on line *L* is silenced by a comment **on that line**::

    except Exception:  # primacy-lint: disable=PL001 -- ships to parent

or for a whole file by a comment anywhere in it::

    # primacy-lint: disable-file=PL004

``disable=all`` silences every rule.  Text after ``--`` is a free-form
justification and is encouraged: a suppression without a reason is a
smell the next reader cannot audit.

Baselines
---------
A baseline is a JSON file of finding *fingerprints* (stable hashes of
``path:rule:v<analysis_version>:message`` -- no line numbers, so
unrelated edits do not invalidate it).  Findings present in the
baseline are demoted to warnings: new rules can land warn-only against
the existing tree and be promoted to errors by deleting entries.  The
rule's ``analysis_version`` is part of the hash, so *tightening one
rule* (bumping its version) invalidates exactly that rule's baseline
entries and nobody else's.
"""

from __future__ import annotations

import ast
import enum
import hashlib
import io
import json
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
    "Severity",
    "Finding",
    "LintError",
    "ModuleContext",
    "Rule",
    "lint_paths",
    "load_module",
    "load_baseline",
    "write_baseline",
    "format_findings_text",
    "format_findings_json",
]

_SUPPRESS_RE = re.compile(
    r"#\s*primacy-lint:\s*(disable|disable-file)\s*=\s*"
    r"(all|PL\d{3}(?:\s*,\s*PL\d{3})*)",
)


class LintError(Exception):
    """A file could not be linted (unreadable, syntax error, bad rule set)."""


class Severity(str, enum.Enum):
    """How a finding affects the exit status (errors fail, warnings don't)."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    message: str
    path: str  # POSIX-style path, relative to the lint invocation root
    line: int
    col: int
    severity: Severity = Severity.ERROR
    #: The producing rule's analysis version; part of the fingerprint,
    #: so bumping a rule's version invalidates only its baseline entries.
    analysis_version: int = 1

    @property
    def fingerprint(self) -> str:
        """Stable identity for baselines (line-number independent)."""
        raw = (
            f"{self.path}:{self.rule}:v{self.analysis_version}:"
            f"{self.message}"
        ).encode()
        return hashlib.sha256(raw).hexdigest()[:16]

    def as_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            "rule": self.rule,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity.value,
            "analysis_version": self.analysis_version,
            "fingerprint": self.fingerprint,
        }

    def demoted(self) -> "Finding":
        """Copy of this finding at warning severity (baseline demotion)."""
        return Finding(
            rule=self.rule,
            message=self.message,
            path=self.path,
            line=self.line,
            col=self.col,
            severity=Severity.WARNING,
            analysis_version=self.analysis_version,
        )


class ModuleContext:
    """One parsed source file plus the lookups every rule needs.

    Exposes the AST (with parent links), the raw source lines, the
    suppression table, and the project root so rules that need
    cross-file context (PL005's test lookup) can find it.
    """

    def __init__(
        self, path: Path, source: str, relpath: str, project_root: Path
    ) -> None:
        self.path = path
        self.relpath = relpath
        self.project_root = project_root
        self.source = source
        self.lines = source.splitlines()
        # SyntaxError propagates; lint_paths turns it into a PL000 finding.
        self.tree = ast.parse(source, filename=str(path))
        self._parents: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(self.tree):
            for child in ast.iter_child_nodes(node):
                self._parents[child] = node
        self._line_suppressions: dict[int, set[str]] = {}
        self._file_suppressions: set[str] = set()
        self._scan_suppressions()

    # -- suppression comments ------------------------------------------

    def _scan_suppressions(self) -> None:
        reader = io.StringIO(self.source).readline
        try:
            tokens = list(tokenize.generate_tokens(reader))
        except tokenize.TokenError:  # pragma: no cover - partial files
            tokens = []
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if match is None:
                continue
            kind, codes_text = match.groups()
            codes = (
                {"all"}
                if codes_text == "all"
                else {c.strip() for c in codes_text.split(",")}
            )
            if kind == "disable-file":
                self._file_suppressions |= codes
            else:
                self._line_suppressions.setdefault(
                    tok.start[0], set()
                ).update(codes)

    def suppressed(self, line: int, code: str) -> bool:
        """Whether ``code`` is silenced at ``line``."""
        if {"all", code} & self._file_suppressions:
            return True
        at_line = self._line_suppressions.get(line, set())
        return bool({"all", code} & at_line)

    # -- tree navigation ------------------------------------------------

    def parent(self, node: ast.AST) -> ast.AST | None:
        """Immediate parent of ``node`` in the tree."""
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Parents of ``node``, innermost first."""
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def enclosing_function(
        self, node: ast.AST
    ) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        """Nearest function definition containing ``node``."""
        for anc in self.ancestors(node):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return anc
        return None

    def functions(
        self,
    ) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
        """Every function definition in the module (including methods)."""
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node


def walk_function(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested functions.

    Rules reason about one frame at a time: a ``close()`` inside a
    nested closure does not balance an acquisition in the outer frame.
    """
    stack: list[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`code`, :attr:`title`, and :attr:`rationale`
    (shown by ``primacy lint --list-rules``) and implement
    :meth:`check`.  Cross-module rules instead set
    :attr:`requires_project` and implement :meth:`check_project`, which
    runs once per lint invocation over the whole
    :class:`~repro.lint.project.ProjectIndex`.

    :attr:`analysis_version` feeds finding fingerprints: bump it
    whenever the rule's logic tightens, so stale baseline entries for
    *this rule only* are invalidated.
    """

    code: str = "PL000"
    title: str = "abstract rule"
    rationale: str = ""
    severity: Severity = Severity.ERROR
    analysis_version: int = 1
    #: Cross-module rules run in the project phase instead of per module.
    requires_project: bool = False
    #: Minimal bad/good snippets shown by ``primacy lint --explain``
    #: when the repo's fixture files are not on disk.
    example_bad: str = ""
    example_good: str = ""

    def check(self, module: ModuleContext) -> Iterable[Finding]:
        """Yield findings for one module (per-module rules)."""
        return ()

    def check_project(self, project) -> Iterable[Finding]:
        """Yield findings over the whole project (cross-module rules)."""
        return ()

    def finding(
        self, module: ModuleContext, node: ast.AST, message: str
    ) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(
            rule=self.code,
            message=message,
            path=module.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            severity=self.severity,
            analysis_version=self.analysis_version,
        )


# -- running ------------------------------------------------------------


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``.py`` files."""
    seen: set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        elif not path.exists():
            raise LintError(f"no such file or directory: {path}")
        else:
            continue
        for candidate in candidates:
            if path.is_dir():
                # Skip cache and hidden directories *below* the walk root;
                # an explicitly-passed hidden root still gets linted.
                rel_parts = candidate.relative_to(path).parts[:-1]
                if any(
                    part == "__pycache__" or part.startswith(".")
                    for part in rel_parts
                ):
                    continue
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def _relative_to_root(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def select_rules(
    rules: Iterable[Rule],
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> list[Rule]:
    """Filter the rule set by ``--select`` / ``--ignore`` code lists."""
    chosen = list(rules)
    known = {r.code for r in chosen}
    for requested in list(select or []) + list(ignore or []):
        if requested not in known:
            raise LintError(
                f"unknown rule {requested!r}; known: {', '.join(sorted(known))}"
            )
    if select:
        wanted = set(select)
        chosen = [r for r in chosen if r.code in wanted]
    if ignore:
        dropped = set(ignore)
        chosen = [r for r in chosen if r.code not in dropped]
    return chosen


def load_module(
    file_path: Path, root: Path
) -> "ModuleContext | Finding":
    """Parse one file; a syntax error comes back as a PL000 finding."""
    try:
        source = file_path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise LintError(f"cannot read {file_path}: {exc}") from exc
    relpath = _relative_to_root(file_path, root)
    try:
        return ModuleContext(file_path, source, relpath, root)
    except SyntaxError as exc:  # primacy-lint: disable=PL001 -- converted to a PL000 finding, not swallowed
        return Finding(
            rule="PL000",
            message=f"cannot parse: {exc.msg}",
            path=relpath,
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            severity=Severity.ERROR,
        )


def lint_paths(
    paths: Iterable[Path | str],
    *,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    project_root: Path | None = None,
    baseline: set[str] | None = None,
) -> list[Finding]:
    """Lint every ``.py`` file under ``paths`` with every rule.

    ``select``/``ignore`` narrow the rule set.  Suppressed findings are
    dropped; baseline-matched findings are demoted to warnings.
    Findings come back sorted by location.  Cross-module rules
    (``requires_project``) run once over a
    :class:`~repro.lint.project.ProjectIndex` of all linted files.
    """
    from repro.lint.rules import all_rules

    root = (project_root or Path.cwd()).resolve()
    active = select_rules(all_rules(), select, ignore)
    findings: list[Finding] = []
    modules: dict[str, ModuleContext] = {}
    for file_path in iter_python_files([Path(p) for p in paths]):
        loaded = load_module(file_path, root)
        if isinstance(loaded, Finding):
            findings.append(loaded)
        else:
            modules[loaded.relpath] = loaded
    raw: list[Finding] = []
    for rule in active:
        if not rule.requires_project:
            for module in modules.values():
                raw.extend(rule.check(module))
    project_rules = [r for r in active if r.requires_project]
    if project_rules:
        from repro.lint.project import ProjectIndex

        index = ProjectIndex(list(modules.values()))
        for rule in project_rules:
            raw.extend(rule.check_project(index))
    for finding in raw:
        module = modules.get(finding.path)
        if module is None or not module.suppressed(finding.line, finding.rule):
            findings.append(finding)
    result = [
        f.demoted() if baseline and f.fingerprint in baseline else f
        for f in findings
    ]
    result.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return result


# -- baselines ----------------------------------------------------------


def load_baseline(path: Path) -> set[str]:
    """Read a baseline file into a fingerprint set.

    Accepts both formats: v1 (a flat ``fingerprints`` list) and v2
    (``entries`` objects carrying the producing rule and its
    ``analysis_version``).  Either way the match key is the
    fingerprint, which since v2 hashes the analysis version in -- so a
    rule tightened after the baseline was written simply stops
    matching its stale entries.
    """
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise LintError(f"cannot read baseline {path}: {exc}") from exc
    entries = payload.get("entries")
    if isinstance(entries, list):
        fingerprints = [
            e.get("fingerprint")
            for e in entries
            if isinstance(e, dict) and isinstance(e.get("fingerprint"), str)
        ]
        if len(fingerprints) != len(entries):
            raise LintError(f"baseline {path} has malformed 'entries'")
        return set(fingerprints)
    fingerprints = payload.get("fingerprints")
    if not isinstance(fingerprints, list):
        raise LintError(
            f"baseline {path} has no 'entries' or 'fingerprints' list"
        )
    return set(fingerprints)


def write_baseline(path: Path, findings: Iterable[Finding]) -> int:
    """Write ``findings`` as a v2 baseline; returns the entry count.

    Entries record the producing rule and its analysis version next to
    each fingerprint so a reviewer can audit *what* was baselined and
    which version of the rule produced it.
    """
    unique: dict[str, Finding] = {}
    for f in findings:
        unique.setdefault(f.fingerprint, f)
    entries = [
        {
            "fingerprint": fp,
            "rule": f.rule,
            "analysis_version": f.analysis_version,
        }
        for fp, f in sorted(unique.items())
    ]
    payload = {"version": 2, "entries": entries}
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return len(entries)


# -- output -------------------------------------------------------------


def format_findings_text(findings: list[Finding]) -> str:
    """Human-readable report, one line per finding plus a summary."""
    lines = [
        f"{f.path}:{f.line}:{f.col + 1}: {f.rule} {f.severity.value}: "
        f"{f.message}"
        for f in findings
    ]
    errors = sum(1 for f in findings if f.severity is Severity.ERROR)
    warnings = len(findings) - errors
    lines.append(f"{errors} error(s), {warnings} warning(s)")
    return "\n".join(lines)


def format_findings_json(findings: list[Finding]) -> str:
    """Machine-readable report (stable shape; consumed by CI)."""
    errors = sum(1 for f in findings if f.severity is Severity.ERROR)
    payload = {
        "findings": [f.as_dict() for f in findings],
        "summary": {
            "errors": errors,
            "warnings": len(findings) - errors,
            "total": len(findings),
        },
    }
    return json.dumps(payload, indent=2)
