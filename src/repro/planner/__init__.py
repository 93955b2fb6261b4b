"""Semiring-aware query planning for the positive algebra.

Green, Karvounarakis & Tannen prove (Proposition 3.4) that the classic
relational-algebra identities -- pushdowns, fusions, join commutativity and
associativity, distribution over union -- hold over *any* commutative
semiring, while idempotence-based laws (``R ∪ R = R``, ``R ⋈ R = R``) hold
exactly when the semiring's operations are idempotent.  This package turns
those theorems into an optimizer:

* :mod:`repro.planner.rewrites` -- the semiring-safe rewrite rules plus the
  idempotence-gated ones, applied bottom-up to a fixpoint;
* :mod:`repro.planner.cost` -- database statistics and System-R style
  cardinality estimation;
* :mod:`repro.planner.reorder` -- greedy cost-based join reordering;
* :mod:`repro.planner.optimizer` -- the :func:`optimize`/:func:`explain`
  entry points;
* :mod:`repro.planner.plans` -- schema inference and structural plan
  signatures.

Entry points::

    from repro.planner import optimize, explain

    plan = optimize(query, database)       # an equivalent, cheaper Query
    print(explain(query, database))        # rules applied + cost estimates
    query.evaluate(database, optimize=True)  # optimize-and-run in one call
"""

from repro.planner.cost import CostModel, Estimate, Statistics, TableStats
from repro.planner.optimizer import OptimizationReport, explain, optimize
from repro.planner.plans import catalog_of, infer_attributes, plan_signature
from repro.planner.reorder import reorder_joins
from repro.planner.rewrites import (
    RewriteContext,
    SemiringProfile,
    rewrite_fixpoint,
    semiring_profile,
)

__all__ = [
    "optimize",
    "explain",
    "OptimizationReport",
    "Statistics",
    "TableStats",
    "CostModel",
    "Estimate",
    "plan_signature",
    "infer_attributes",
    "catalog_of",
    "reorder_joins",
    "rewrite_fixpoint",
    "RewriteContext",
    "SemiringProfile",
    "semiring_profile",
]
