"""The ``primacy lint`` rule catalog.

Two tiers share one framework:

* **shallow** rules (PL001..PL005) -- single-pass AST walkers, cheap
  enough to run on every invocation;
* **deep** rules (PL101..PL103) -- CFG/dataflow proofs and
  cross-module analyses behind ``primacy lint --deep``, built on
  :mod:`repro.lint.cfg`, :mod:`repro.lint.dataflow`, and
  :mod:`repro.lint.project`.

Each rule lives in its own module and registers itself here; the CLI
and the engine pull the sets through :func:`all_rules` /
:func:`deep_rules` so tests can also instantiate rules individually.
"""

from repro.lint.engine import Rule
from repro.lint.rules.bounds import BufferBoundsRule
from repro.lint.rules.exceptions import ExceptionDisciplineRule
from repro.lint.rules.forksafety import ForkSafetyRule
from repro.lint.rules.lifecycle import ResourceLifecycleRule
from repro.lint.rules.registry import CodecRegistryRule
from repro.lint.rules.sharedmem import SharedMemoryLifecycleRule
from repro.lint.rules.structfmt import StructFormatRule
from repro.lint.rules.symmetry import EncodeDecodeSymmetryRule

__all__ = [
    "all_rules",
    "deep_rules",
    "ExceptionDisciplineRule",
    "StructFormatRule",
    "SharedMemoryLifecycleRule",
    "BufferBoundsRule",
    "CodecRegistryRule",
    "ResourceLifecycleRule",
    "ForkSafetyRule",
    "EncodeDecodeSymmetryRule",
]


def all_rules() -> list[Rule]:
    """Fresh instances of every shallow rule, in code order."""
    return [
        ExceptionDisciplineRule(),
        StructFormatRule(),
        SharedMemoryLifecycleRule(),
        BufferBoundsRule(),
        CodecRegistryRule(),
    ]


def deep_rules() -> list[Rule]:
    """Fresh instances of the deep (CFG/cross-module) rules."""
    return [
        ResourceLifecycleRule(),
        ForkSafetyRule(),
        EncodeDecodeSymmetryRule(),
    ]
