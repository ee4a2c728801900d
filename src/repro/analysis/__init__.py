"""Static analysis for the Neurocube reproduction.

Three engines, three layers of the stack:

* :mod:`repro.analysis.nclint` — an AST linter over the *codebase*,
  enforcing the simulator invariants generic linters cannot express
  (determinism, layering, the scheduler contract, guarded tracer
  emits).  Rules carry ``NC1xx`` codes.
* :mod:`repro.analysis.nccheck` — a static verifier over compiled
  *plans* (:class:`~repro.core.scheduler.PassPlan`), proving
  deadlock-freedom, OP-ID/cache/address/route well-formedness and the
  memoization invariant before a single cycle is simulated.  Checks
  carry ``NC2xx`` codes.
* :mod:`repro.analysis.shardcheck` — a static verifier over multi-cube
  *shard plans* (:class:`~repro.core.shard.ShardPlan`), proving
  exchange completeness, byte-accounting equality with the analytic
  model, per-cube capacity feasibility, shard-geometry reconstruction,
  barrier-fold determinism and link sanity before a cube process is
  spawned.  Checks carry ``NC3xx`` codes.

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
from repro.analysis.shardcheck import (
    SHARD_CHECK_CATALOGUE,
    ShardViolation,
    check_shard_plan,
    predict_exchange_cycles,
    report_shard_plan,
    verify_shard_plan,
)

__all__ = [
    "CHECK_CATALOGUE",
    "DescriptorReport",
    "PlanViolation",
    "RULES",
    "Rule",
    "SHARD_CHECK_CATALOGUE",
    "ShardViolation",
    "Violation",
    "check_plan",
    "check_shard_plan",
    "lint_paths",
    "lint_source",
    "predict_exchange_cycles",
    "report_shard_plan",
    "rule_catalogue",
    "self_test",
    "stall_boundaries",
    "verify_memo_pairs",
    "verify_plan",
    "verify_program",
    "verify_shard_plan",
]
