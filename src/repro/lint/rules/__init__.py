"""The ``primacy lint`` rule catalog.

Every rule runs on every invocation through one framework:

* single-pass AST walkers (PL001, PL002, PL004, PL005);
* CFG/dataflow proofs and cross-module analyses (PL101..PL103), built
  on :mod:`repro.lint.cfg`, :mod:`repro.lint.dataflow`, and
  :mod:`repro.lint.project`.

Each rule lives in its own module and registers itself here; the CLI
and the engine pull the set through :func:`all_rules` so tests can
also instantiate rules individually.
"""

from repro.lint.engine import Rule
from repro.lint.rules.bounds import BufferBoundsRule
from repro.lint.rules.exceptions import ExceptionDisciplineRule
from repro.lint.rules.forksafety import ForkSafetyRule
from repro.lint.rules.lifecycle import ResourceLifecycleRule
from repro.lint.rules.registry import CodecRegistryRule
from repro.lint.rules.structfmt import StructFormatRule
from repro.lint.rules.symmetry import EncodeDecodeSymmetryRule

__all__ = [
    "all_rules",
    "ExceptionDisciplineRule",
    "StructFormatRule",
    "BufferBoundsRule",
    "CodecRegistryRule",
    "ResourceLifecycleRule",
    "ForkSafetyRule",
    "EncodeDecodeSymmetryRule",
]


def all_rules() -> list[Rule]:
    """Fresh instances of every rule, in code order."""
    return [
        ExceptionDisciplineRule(),
        StructFormatRule(),
        BufferBoundsRule(),
        CodecRegistryRule(),
        ResourceLifecycleRule(),
        ForkSafetyRule(),
        EncodeDecodeSymmetryRule(),
    ]
