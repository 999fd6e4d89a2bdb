"""``repro.lint`` -- repo-specific static analysis for codec invariants.

PR 2 made the storage stack's contracts explicit: decode paths raise
typed :class:`~repro.compressors.base.CodecError` subclasses, framing
constants agree with the byte layouts that serialize them, and the
shared-memory engine releases every segment it acquires.  This package
enforces those contracts mechanically:

* :mod:`repro.lint.engine` -- AST rule framework: per-rule severity,
  ``# primacy-lint: disable=RULE`` suppressions, baselines, JSON and
  human-readable output.
* :mod:`repro.lint.rules` -- the shallow PL001..PL005 set (exception
  discipline, struct-format consistency, SharedMemory lifecycle,
  buffer-bounds discipline, codec-registry completeness) and the deep
  PL101..PL103 set (path-sensitive lifecycle proofs, fork-safety,
  encode/decode symmetry).
* :mod:`repro.lint.cfg` / :mod:`repro.lint.dataflow` /
  :mod:`repro.lint.project` -- the static-analysis substrate the deep
  rules stand on: per-function control-flow graphs with exception
  edges, a generic worklist dataflow solver, and a project-wide
  symbol index + call graph.
* :mod:`repro.lint.cache` -- the content-hash incremental cache behind
  ``--deep`` (per-file phase keyed by file hash, project phase keyed
  by the hash of all hashes; both keyed by rule analysis versions).
* :mod:`repro.lint.sanitize` -- the opt-in runtime sanitizer
  (``REPRO_SANITIZE=1``) that tracks live SharedMemory segments and
  unreleased memoryviews in the parallel engine.

Run it as ``primacy lint [--deep] [--format json] [--select RULES]
PATHS``; ``primacy lint --explain PL101`` prints any rule's rationale
with a minimal bad/good example.
"""

from repro.lint.cache import CacheStats, LintCache, deep_lint
from repro.lint.engine import (
    Finding,
    LintError,
    ModuleContext,
    Rule,
    Severity,
    format_findings_json,
    format_findings_text,
    lint_paths,
    load_baseline,
    write_baseline,
)
from repro.lint.rules import all_rules, deep_rules

__all__ = [
    "CacheStats",
    "Finding",
    "LintCache",
    "LintError",
    "ModuleContext",
    "Rule",
    "Severity",
    "all_rules",
    "deep_lint",
    "deep_rules",
    "format_findings_json",
    "format_findings_text",
    "lint_paths",
    "load_baseline",
    "write_baseline",
]
