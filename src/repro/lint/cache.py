"""Content-hash incremental cache behind ``primacy lint --deep``.

Deep rules are 10-50x the cost of the shallow walkers (CFGs, fixpoint
solves, a project index), so ``--deep`` caches results keyed by what
actually determines them:

* **per-file phase** (shallow + deep per-module rules): keyed by the
  file's content hash plus a *rules signature* -- every active
  per-module rule's ``code:v<analysis_version>``.  Editing one file
  re-lints one file; bumping one rule's ``analysis_version`` re-lints
  everything, for exactly that reason.
* **project phase** (PL102/PL103 run over the whole index):
  keyed by the hash of *all* file hashes plus the project rules
  signature.  Any edit anywhere re-runs the cross-module phase -- it
  is interprocedural, so that is the honest invalidation unit.

On a fully-warm run nothing is even *parsed*: both phases replay
stored findings.  :class:`CacheStats` counts hits and misses so CI and
tests can assert the cache actually worked.

Suppression comments live in file content, so cached findings are
stored post-suppression and the content hash covers them.  Baselines
are applied *after* the cache (they demote, not filter, and may change
independently of source).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable

from repro.lint.engine import (
    Finding,
    LintError,
    ModuleContext,
    Rule,
    apply_baseline,
    check_modules,
    iter_python_files,
    load_module,
    select_rules,
)

__all__ = ["CacheStats", "LintCache", "deep_lint"]

_CACHE_VERSION = 1


class CacheStats:
    """Hit/miss counters for one deep-lint run."""

    def __init__(self) -> None:
        self.file_hits = 0
        self.file_misses = 0
        self.project_hit = False
        self.project_ran = False

    def as_dict(self) -> dict:
        return {
            "file_hits": self.file_hits,
            "file_misses": self.file_misses,
            "project_hit": self.project_hit,
            "project_ran": self.project_ran,
        }

    def summary(self) -> str:
        project = "hit" if self.project_hit else (
            "miss" if self.project_ran else "skipped"
        )
        return (
            f"cache: {self.file_hits} file hit(s), "
            f"{self.file_misses} miss(es), project phase {project}"
        )


def rules_signature(rules: Iterable[Rule]) -> str:
    """Stable signature of a rule set: codes and analysis versions."""
    parts = sorted(f"{r.code}:v{r.analysis_version}" for r in rules)
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def _content_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class LintCache:
    """JSON-file cache: per-file entries plus one project-phase entry."""

    def __init__(self, path: Path | None) -> None:
        self.path = path
        self._files: dict[str, dict] = {}
        self._project: dict | None = None
        self._dirty = False
        if path is not None and path.exists():
            self._load(path)

    def _load(self, path: Path) -> None:
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):  # primacy-lint: disable=PL001 -- a corrupt cache is an empty cache, never a failure
            return
        if payload.get("version") != _CACHE_VERSION:
            return
        files = payload.get("files")
        if isinstance(files, dict):
            self._files = files
        project = payload.get("project")
        if isinstance(project, dict):
            self._project = project

    def save(self) -> None:
        if self.path is None or not self._dirty:
            return
        payload = {
            "version": _CACHE_VERSION,
            "files": self._files,
            "project": self._project,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(
            json.dumps(payload, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    # -- per-file phase -------------------------------------------------

    def get_file(
        self, relpath: str, sha: str, sig: str
    ) -> list[Finding] | None:
        entry = self._files.get(relpath)
        if (
            entry is None
            or entry.get("sha") != sha
            or entry.get("rules_sig") != sig
        ):
            return None
        return [Finding.from_dict(f) for f in entry.get("findings", [])]

    def put_file(
        self, relpath: str, sha: str, sig: str, findings: list[Finding]
    ) -> None:
        self._files[relpath] = {
            "sha": sha,
            "rules_sig": sig,
            "findings": [f.as_dict() for f in findings],
        }
        self._dirty = True

    # -- project phase --------------------------------------------------

    def get_project(self, sha: str, sig: str) -> list[Finding] | None:
        entry = self._project
        if (
            entry is None
            or entry.get("sha") != sha
            or entry.get("rules_sig") != sig
        ):
            return None
        return [Finding.from_dict(f) for f in entry.get("findings", [])]

    def put_project(
        self, sha: str, sig: str, findings: list[Finding]
    ) -> None:
        self._project = {
            "sha": sha,
            "rules_sig": sig,
            "findings": [f.as_dict() for f in findings],
        }
        self._dirty = True


def _relpath(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def deep_lint(
    paths: Iterable[Path | str],
    rules: Iterable[Rule],
    *,
    project_root: Path | None = None,
    baseline: set[str] | None = None,
    cache: LintCache | None = None,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    stats: CacheStats | None = None,
) -> list[Finding]:
    """Run ``rules`` (shallow + deep) with incremental caching.

    ``stats``, when provided, is filled with the run's hit/miss
    counters.  With no ``cache`` this is equivalent to
    :func:`~repro.lint.engine.lint_paths` over the same rule set.
    """
    root = (project_root or Path.cwd()).resolve()
    active = select_rules(list(rules), select, ignore)
    module_rules = [r for r in active if not r.requires_project]
    project_rules = [r for r in active if r.requires_project]
    module_sig = rules_signature(module_rules)
    project_sig = rules_signature(project_rules)
    stats = stats if stats is not None else CacheStats()

    # Pass 1: hash every file; decide per-file hits without parsing.
    file_list: list[tuple[Path, str, str]] = []  # (path, relpath, sha)
    findings: list[Finding] = []
    for file_path in iter_python_files([Path(p) for p in paths]):
        try:
            raw = file_path.read_bytes()
        except OSError as exc:
            raise LintError(f"cannot read {file_path}: {exc}") from exc
        file_list.append(
            (file_path, _relpath(file_path, root), _content_hash(raw))
        )

    project_sha = hashlib.sha256(
        "|".join(f"{rel}:{sha}" for _, rel, sha in sorted(
            file_list, key=lambda item: item[1]
        )).encode()
    ).hexdigest()[:16]

    cached_project = (
        cache.get_project(project_sha, project_sig)
        if cache is not None and project_rules
        else None
    )

    # Pass 2: per-file phase, parsing only the misses -- unless the
    # project phase must run, which needs every module parsed anyway.
    modules: dict[str, ModuleContext] = {}
    need_all_modules = bool(project_rules) and cached_project is None

    def _parse(file_path: Path) -> ModuleContext | Finding:
        return load_module(file_path, root)

    for file_path, relpath, sha in file_list:
        cached = (
            cache.get_file(relpath, sha, module_sig)
            if cache is not None
            else None
        )
        if cached is not None:
            stats.file_hits += 1
            findings.extend(cached)
            if need_all_modules:
                loaded = _parse(file_path)
                if isinstance(loaded, ModuleContext):
                    modules[relpath] = loaded
            continue
        stats.file_misses += 1
        loaded = _parse(file_path)
        if isinstance(loaded, Finding):
            findings.append(loaded)
            if cache is not None:
                cache.put_file(relpath, sha, module_sig, [loaded])
            continue
        modules[relpath] = loaded
        file_findings = check_modules([loaded], module_rules)
        findings.extend(file_findings)
        if cache is not None:
            cache.put_file(relpath, sha, module_sig, file_findings)

    # Pass 3: project phase.
    if project_rules:
        if cached_project is not None:
            stats.project_hit = True
            findings.extend(cached_project)
        else:
            stats.project_ran = True
            ordered = [
                modules[rel]
                for _, rel, _ in file_list
                if rel in modules
            ]
            only_project = check_modules(ordered, project_rules)
            findings.extend(only_project)
            if cache is not None:
                cache.put_project(project_sha, project_sig, only_project)

    if cache is not None:
        cache.save()
    return apply_baseline(findings, baseline)
