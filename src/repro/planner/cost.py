"""Cardinality estimation and plan costing from database statistics.

The planner's cost model is deliberately textbook: per-relation cardinalities
and per-attribute distinct counts collected once from a
:class:`~repro.relations.database.Database` (:class:`Statistics`), combined
bottom-up with System-R style estimation formulas (:class:`CostModel`):

* selection scales cardinality by a predicate selectivity (``1/V(R, a)`` for
  ``a = const``, ``1/max(V(R, a), V(R, b))`` for ``a = b``, a fixed default
  for opaque predicates);
* a natural join on shared attributes ``J`` estimates
  ``|L| * |R| / prod_{a in J} max(V(L, a), V(R, a))``;
* projection caps cardinality at the product of the kept attributes'
  distinct counts; union adds.

Estimates drive the greedy join reordering of :mod:`repro.planner.reorder`
and the plan-cost comparisons of :func:`repro.planner.optimizer.explain`.
Absent statistics fall back to uniform defaults, so the rewrite engine works
(just less informedly) on bare queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.algebra.ast import (
    EmptyRelation,
    Join,
    Project,
    Query,
    RelationRef,
    Rename,
    Select,
    Union,
)
from repro.algebra.predicates import (
    AttrEquals,
    AttrEqualsConst,
    AttrNotEqualsConst,
    BasePredicate,
    ComparisonPredicate,
    Conjunction,
    Disjunction,
    FalsePredicate,
    Negation,
    TruePredicate,
    as_predicate,
)
from repro.relations.database import Database

__all__ = [
    "TableStats",
    "Statistics",
    "Estimate",
    "CostModel",
    "PARALLEL_ROW_OVERHEAD",
]

#: Cardinality assumed for base relations without collected statistics.
DEFAULT_CARDINALITY = 100.0

#: Distinct-count assumed for attributes without collected statistics.
DEFAULT_DISTINCT = 10.0

#: Selectivity assumed for predicates the model cannot analyze; the
#: pipelined engine also scales a fused filter's input estimate by it when
#: sizing join build sides.
DEFAULT_SELECTIVITY = 1.0 / 3.0


@dataclass(frozen=True)
class TableStats:
    """Cardinality and per-attribute distinct counts of one base relation."""

    cardinality: int
    distinct: Mapping[str, int]


class Statistics:
    """Per-relation statistics snapshot used by the cost model."""

    def __init__(self, tables: Mapping[str, TableStats] | None = None):
        self.tables: dict[str, TableStats] = dict(tables or {})

    @classmethod
    def from_database(
        cls, database: Database, relations: "set[str] | frozenset[str] | None" = None
    ) -> "Statistics":
        """Collect cardinalities and distinct counts from the database.

        ``relations`` restricts the scan to the named relations (the
        optimizer passes the query's ``relation_names()``, so planning a
        small query never pays for scanning unrelated large tables).
        """
        tables: dict[str, TableStats] = {}
        for name, relation in database.items():
            if relations is not None and name not in relations:
                continue
            attributes = relation.schema.attributes
            seen: dict[str, set] = {a: set() for a in attributes}
            for tup in relation:
                for a in attributes:
                    seen[a].add(tup[a])
            tables[name] = TableStats(
                cardinality=len(relation),
                distinct={a: len(values) for a, values in seen.items()},
            )
        return cls(tables)

    def table(self, name: str) -> TableStats | None:
        return self.tables.get(name)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Statistics({sorted(self.tables)})"


@dataclass
class Estimate:
    """Estimated output of a subplan: cardinality and distinct counts.

    ``distinct`` doubles as the schema of the estimated relation -- its keys
    are exactly the output attributes (when the schema is inferable).
    """

    cardinality: float
    distinct: dict[str, float] = field(default_factory=dict)

    @property
    def attributes(self) -> frozenset[str]:
        return frozenset(self.distinct)

    def clamp(self) -> "Estimate":
        """Distinct counts can never exceed the cardinality (or fall below 1
        while the relation is non-empty)."""
        cardinality = max(self.cardinality, 0.0)
        bound = max(cardinality, 1.0) if cardinality > 0 else 0.0
        return Estimate(
            cardinality,
            {a: min(max(d, min(1.0, bound)), bound) for a, d in self.distinct.items()},
        )


class CostModel:
    """Bottom-up cardinality estimation and total-work costing of plans."""

    def __init__(self, statistics: Statistics | None = None):
        self.statistics = statistics or Statistics()

    # -- cardinality --------------------------------------------------------------
    def estimate(self, query: Query) -> Estimate:
        """Estimated cardinality and distinct counts of ``query``'s output."""
        if isinstance(query, RelationRef):
            stats = self.statistics.table(query.name)
            if stats is None:
                return Estimate(DEFAULT_CARDINALITY, {}).clamp()
            return Estimate(
                float(stats.cardinality),
                {a: float(d) for a, d in stats.distinct.items()},
            ).clamp()
        if isinstance(query, EmptyRelation):
            return Estimate(0.0, {a: 0.0 for a in query.schema.attributes})
        if isinstance(query, Select):
            child = self.estimate(query.child)
            factor = self.selectivity(query.predicate, child)
            return Estimate(
                child.cardinality * factor,
                {a: d * max(factor, DEFAULT_SELECTIVITY) for a, d in child.distinct.items()},
            ).clamp()
        if isinstance(query, Project):
            child = self.estimate(query.child)
            limit = 1.0
            distinct: dict[str, float] = {}
            for a in query.attributes:
                d = child.distinct.get(a, DEFAULT_DISTINCT)
                distinct[a] = d
                limit = min(limit * max(d, 1.0), child.cardinality + 1.0)
            return Estimate(min(child.cardinality, limit), distinct).clamp()
        if isinstance(query, Rename):
            child = self.estimate(query.child)
            return Estimate(
                child.cardinality,
                {query.mapping.get(a, a): d for a, d in child.distinct.items()},
            )
        if isinstance(query, Union):
            left, right = self.estimate(query.left), self.estimate(query.right)
            distinct = dict(left.distinct)
            for a, d in right.distinct.items():
                distinct[a] = distinct.get(a, 0.0) + d
            return Estimate(left.cardinality + right.cardinality, distinct).clamp()
        if isinstance(query, Join):
            return self.join_estimate(
                self.estimate(query.left), self.estimate(query.right)
            )
        # Unknown node: be pessimistic but functional.
        return Estimate(DEFAULT_CARDINALITY, {})

    def join_estimate(self, left: Estimate, right: Estimate) -> Estimate:
        """The System-R natural-join formula on two subplan estimates."""
        shared = left.attributes & right.attributes
        cardinality = left.cardinality * right.cardinality
        for a in sorted(shared):
            divisor = max(
                left.distinct.get(a, DEFAULT_DISTINCT),
                right.distinct.get(a, DEFAULT_DISTINCT),
                1.0,
            )
            cardinality /= divisor
        distinct = dict(right.distinct)
        for a, d in left.distinct.items():
            distinct[a] = min(d, distinct.get(a, d))
        return Estimate(cardinality, distinct).clamp()

    def cardinality(self, query: Query) -> float:
        """Estimated output cardinality of ``query``."""
        return self.estimate(query).cardinality

    # -- selectivity --------------------------------------------------------------
    def selectivity(self, predicate: Any, child: Estimate) -> float:
        """The fraction of ``child``'s tuples estimated to satisfy ``predicate``."""
        predicate = as_predicate(predicate)
        if isinstance(predicate, TruePredicate):
            return 1.0
        if isinstance(predicate, FalsePredicate):
            return 0.0
        if isinstance(predicate, AttrEqualsConst):
            return 1.0 / max(
                child.distinct.get(predicate.attribute, DEFAULT_DISTINCT), 1.0
            )
        if isinstance(predicate, AttrNotEqualsConst):
            eq = 1.0 / max(
                child.distinct.get(predicate.attribute, DEFAULT_DISTINCT), 1.0
            )
            return max(1.0 - eq, 0.0)
        if isinstance(predicate, AttrEquals):
            return 1.0 / max(
                child.distinct.get(predicate.left, DEFAULT_DISTINCT),
                child.distinct.get(predicate.right, DEFAULT_DISTINCT),
                1.0,
            )
        if isinstance(predicate, ComparisonPredicate):
            if predicate.operator == "==":
                return 1.0 / max(
                    child.distinct.get(predicate.attribute, DEFAULT_DISTINCT), 1.0
                )
            if predicate.operator == "!=":
                eq = 1.0 / max(
                    child.distinct.get(predicate.attribute, DEFAULT_DISTINCT), 1.0
                )
                return max(1.0 - eq, 0.0)
            return DEFAULT_SELECTIVITY
        if isinstance(predicate, Conjunction):
            factor = 1.0
            for part in predicate.parts:
                factor *= self.selectivity(part, child)
            return factor
        if isinstance(predicate, Disjunction):
            miss = 1.0
            for part in predicate.parts:
                miss *= 1.0 - self.selectivity(part, child)
            return min(1.0 - miss, 1.0)
        if isinstance(predicate, Negation):
            return max(1.0 - self.selectivity(predicate.inner, child), 0.0)
        if isinstance(predicate, BasePredicate):
            return DEFAULT_SELECTIVITY
        return DEFAULT_SELECTIVITY  # pragma: no cover - as_predicate wraps callables

    # -- total cost ----------------------------------------------------------------
    def cost(self, query: Query) -> float:
        """Total estimated work: the sum over all operator nodes of the tuples
        they read plus the tuples they emit (hash joins read both inputs once)."""
        if isinstance(query, (RelationRef, EmptyRelation)):
            return self.estimate(query).cardinality
        children = query.children()
        total = sum(self.cost(child) for child in children)
        total += sum(self.estimate(child).cardinality for child in children)
        total += self.estimate(query).cardinality
        return total
