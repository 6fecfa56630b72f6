"""Static analysis for the engine's two intermediate representations.

Two checkers live here, both pure (no execution, no mutation):

- :mod:`.plan_verifier` — walks a compiled :class:`~repro.sqlengine.plan.
  PhysicalPlan` bottom-up, synthesizes every node's output schema (column
  names, dtype kinds, nullability) and checks per-operator structural
  invariants, raising :class:`~repro.errors.PlanInvariantError` on the
  first violation.  Gated by ``EngineConfig.verify_plans`` (on by
  default), it runs after every planner invocation and over every
  ``EXPLAIN``.
- :mod:`.ir_checker` — well-formedness checks for TondIR programs
  (dangling variable/relation refs, double assignment, union arity),
  raising :class:`~repro.errors.IRInvariantError`.  Run on entry to
  :func:`~repro.core.tondir.optimize.optimize` and again after every
  optimization round, so a pass that breaks an invariant is caught at the
  pass boundary rather than at SQL rendering time.

The invariant catalogue (rule ids, what each one means, how to add one)
is documented in docs/ARCHITECTURE.md under "Static analysis & plan
verification".
"""

from .ir_checker import check_program
from .plan_verifier import ColInfo, verify_plan

__all__ = ["ColInfo", "check_program", "verify_plan"]
