"""Universality as the differential oracle on every physical backend.

Theorems 4.3 (positive algebra) and 6.4 (datalog) say a query's result in
any commutative semiring ``K`` is ``Eval_v`` applied to its provenance
polynomials.  So one ``N[X]`` evaluation on the definitional path checks the
production path in every target semiring at once: each case below builds a
``K``-database as the image of an abstractly-tagged one under a valuation,
evaluates directly in ``K`` on the row or columnar backend, and compares with
the specialized polynomials annotation for annotation.

The datalog instance is a layered DAG, so every atom has finitely many
derivation trees and the polynomial provenance is exact even in targets
that are not omega-continuous (``Z``).
"""

from __future__ import annotations

import pytest

from strategies import naive_fixpoint

from repro.algebra import Q
from repro.datalog import evaluate_program
from repro.relations.tagging import abstractly_tag_database
from repro.semirings import (
    BooleanSemiring,
    CompletedNaturalsSemiring,
    FuzzySemiring,
    IntegerRing,
    NaturalsSemiring,
    PosBoolSemiring,
    TropicalSemiring,
    ViterbiSemiring,
    WhyProvenanceSemiring,
)
from repro.semirings.posbool import BoolExpr
from repro.workloads import dag_database, star_join_database, transitive_closure_program

STORAGES = ["row", "columnar"]

#: Each target with a value pool; variable ``i`` of the tagged database is
#: sent to ``pool[i % len(pool)]``.  Fuzzy/Viterbi use dyadic values so float
#: products are exact, and Z mixes signs so projections can cancel.
TARGETS = [
    (NaturalsSemiring(), [1, 2, 3, 5]),
    (IntegerRing(), [2, -1, 3, -2, 1]),
    (BooleanSemiring(), [True, True, False]),
    (TropicalSemiring(), [0.0, 1.0, 2.0, 7.0]),
    (FuzzySemiring(), [0.25, 0.5, 0.75, 1.0]),
    (ViterbiSemiring(), [0.125, 0.5, 0.75, 1.0]),
    (CompletedNaturalsSemiring(), [1, 2, 4]),
    (PosBoolSemiring(), [BoolExpr.var(v) for v in "abc"]),
    (WhyProvenanceSemiring(), [frozenset({v}) for v in "pqr"]),
]
TARGET_IDS = [target.name for target, _ in TARGETS]


def _valuation(tagged, target, pool):
    return {
        variable: target.coerce(pool[index % len(pool)])
        for index, variable in enumerate(sorted(tagged.valuation))
    }


def _specialize(tagged, target, pool):
    """The ``K``-database ``Eval_v(R-bar)`` and the valuation behind it."""
    valuation = _valuation(tagged, target, pool)
    database = tagged.database.map_annotations(
        lambda polynomial: polynomial.evaluate(target, valuation), target
    )
    return database, valuation


def star_query():
    return (
        Q.relation("F")
        .join(Q.relation("D1"))
        .join(Q.relation("D2"))
        .project("a", "y")
        .union(Q.relation("D1").rename({"x": "y"}))
    )


@pytest.mark.parametrize("storage", STORAGES)
@pytest.mark.parametrize("target,pool", TARGETS, ids=TARGET_IDS)
def test_query_factorizes_through_provenance(target, pool, storage):
    """Theorem 4.3: ``q(R) = Eval_v(q(R-bar))`` on the pipelined executor."""
    tagged = abstractly_tag_database(
        star_join_database(
            NaturalsSemiring(), fact_tuples=24, dimension_tuples=8, seed=11
        )
    )
    query = star_query()
    provenance = query.evaluate(tagged.database)
    database, valuation = _specialize(tagged, target, pool)
    direct = query.evaluate(database, executor="pipelined", storage=storage)
    expected = provenance.map_annotations(
        lambda polynomial: polynomial.evaluate(target, valuation), target
    )
    assert expected.support, "the instance must produce output"
    assert direct.equal_to(expected)


@pytest.mark.parametrize("storage", STORAGES)
@pytest.mark.parametrize("target,pool", TARGETS, ids=TARGET_IDS)
def test_datalog_factorizes_through_provenance(target, pool, storage):
    """Theorem 6.4 on an acyclic instance: semi-naive fixpoint = Eval_v(N[X])."""
    program = transitive_closure_program(linear=True)
    tagged = abstractly_tag_database(
        dag_database(NaturalsSemiring(), layers=4, width=3, seed=2)
    )
    provenance = naive_fixpoint(program, tagged.database)
    database, valuation = _specialize(tagged, target, pool)
    direct = evaluate_program(program, database, storage=storage)
    expected = {
        atom: value
        for atom, value in (
            (atom, polynomial.evaluate(target, valuation))
            for atom, polynomial in provenance.annotations.items()
        )
        if not target.is_zero(value)
    }
    assert expected, "the instance must derive atoms"
    actual = {
        atom: value
        for atom, value in direct.annotations.items()
        if not target.is_zero(value)
    }
    assert actual == expected
