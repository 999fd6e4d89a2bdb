"""``repro.lint`` -- repo-specific static analysis for codec invariants.

PR 2 made the storage stack's contracts explicit: decode paths raise
typed :class:`~repro.compressors.base.CodecError` subclasses, framing
constants agree with the byte layouts that serialize them, and the
shared-memory engine releases every segment it acquires.  This package
enforces those contracts mechanically:

* :mod:`repro.lint.engine` -- AST rule framework: per-rule severity,
  ``# primacy-lint: disable=RULE`` suppressions, baselines, JSON and
  human-readable output.
* :mod:`repro.lint.rules` -- the seven rules, all run on every
  invocation: exception discipline, struct-format consistency,
  buffer-bounds discipline and codec-registry completeness
  (PL001, PL002, PL004, PL005), and path-sensitive lifecycle proofs,
  fork-safety and encode/decode symmetry (PL101..PL103).
* :mod:`repro.lint.cfg` / :mod:`repro.lint.dataflow` /
  :mod:`repro.lint.project` -- the static-analysis substrate the
  PL1xx rules stand on: per-function control-flow graphs with
  exception edges, a generic worklist dataflow solver, and a
  project-wide symbol index + call graph.
* :mod:`repro.lint.sanitize` -- the opt-in runtime sanitizer
  (``REPRO_SANITIZE=1``) that tracks live SharedMemory segments and
  unreleased memoryviews in the parallel engine.

Run it as ``primacy lint [--format json] [--select RULES] PATHS``;
``primacy lint --explain PL101`` prints any rule's rationale with a
minimal bad/good example.
"""

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
from repro.lint.rules import all_rules

__all__ = [
    "Finding",
    "LintError",
    "ModuleContext",
    "Rule",
    "Severity",
    "all_rules",
    "format_findings_json",
    "format_findings_text",
    "lint_paths",
    "load_baseline",
    "write_baseline",
]
