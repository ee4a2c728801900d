"""Static analysis for the Neurocube reproduction.

Two engines, two layers of the stack:

* :mod:`repro.analysis.nclint` — an AST linter over the *codebase*,
  enforcing the simulator invariants generic linters cannot express
  (determinism, layering, the scheduler contract, guarded tracer
  emits).  Rules carry ``NC1xx`` codes.
* :mod:`repro.analysis.nccheck` — a static verifier over compiled
  *plans* (:class:`~repro.core.scheduler.PassPlan`), proving
  deadlock-freedom, OP-ID/cache/address/route well-formedness and the
  memoization invariant before a single cycle is simulated.  Checks
  carry ``NC2xx`` codes.

See ``docs/static_analysis.md`` for the full catalogue.
"""

from repro.analysis.nccheck import (
    CHECK_CATALOGUE,
    DescriptorReport,
    PlanViolation,
    check_plan,
    self_test,
    stall_boundaries,
    verify_memo_pairs,
    verify_plan,
    verify_program,
)
from repro.analysis.nclint import (
    RULES,
    Rule,
    Violation,
    lint_paths,
    lint_source,
    rule_catalogue,
)

__all__ = [
    "CHECK_CATALOGUE",
    "DescriptorReport",
    "PlanViolation",
    "RULES",
    "Rule",
    "Violation",
    "check_plan",
    "lint_paths",
    "lint_source",
    "rule_catalogue",
    "self_test",
    "stall_boundaries",
    "verify_memo_pairs",
    "verify_plan",
    "verify_program",
]
