"""Differential harness: pipelined physical execution vs operator-at-a-time.

The pipelined engine (:mod:`repro.engine`) fuses selections, projections and
renames into scans and join probe loops, picks hash-join build sides by
estimated cardinality, and accumulates duplicate-tuple annotation
contributions batched.  Every one of those moves is justified by
associativity, commutativity and distributivity alone, so on *any* plan --
optimized or as written -- and over *any* commutative semiring the result
must equal the naive executor's, annotation for annotation.  This suite
drives that equivalence with hypothesis-generated random query trees and
databases over the registry semirings of the ISSUE: N, B, Tropical,
PosBool(X), Z, N[X], and provenance circuits.

Every equivalence is additionally driven on **both storage backends**: the
``storage`` parametrization pins the pipelined side to the row dict store
or to the columnar store, where (numpy permitting) the whole-column
vectorized kernels take over for the supported semirings and fall back
row-at-a-time for the rest -- either way the annotations must not move.

Circuits are compared by the polynomial they denote: the pipelined engine
sums contributions in a different association order, which yields
semantically equal but structurally distinct DAGs (Proposition 4.2).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from strategies import (
    BASE_SCHEMAS,
    DOMAIN,
    PLANNER_SEMIRING_NAMES,
    annotation_for,
    ra_queries,
    view_databases,
)

from repro.circuits import to_polynomial
from repro.engine import join_relations, project_relation
from repro.errors import QueryError
from repro.incremental import MaterializedView, UpdateBatch, apply_batch_to_database
from repro.semirings import get_semiring

DIFFERENTIAL_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Both physical backends of the pipelined side.
STORAGE_BACKENDS = ("row", "columnar")


def _comparable(semiring, value):
    if semiring.name == "Circ[X]":
        return to_polynomial(value)
    return value


def _assert_same_relation(semiring, expected, actual, context: str):
    assert expected.schema.attribute_set == actual.schema.attribute_set, context
    for tup in set(expected.support) | set(actual.support):
        left = expected.annotation(tup)
        right = actual.annotation(tup)
        assert _comparable(semiring, left) == _comparable(semiring, right), (
            f"{context}\n{tup}: naive={semiring.format_value(left)} "
            f"pipelined={semiring.format_value(right)}"
        )


@pytest.mark.parametrize("storage", STORAGE_BACKENDS)
@pytest.mark.parametrize("semiring_name", PLANNER_SEMIRING_NAMES)
@given(data=st.data())
@DIFFERENTIAL_SETTINGS
def test_pipelined_executor_agrees_annotation_for_annotation(semiring_name, storage, data):
    """executor="pipelined" equals executor="naive" on random plans."""
    semiring = get_semiring(semiring_name)
    query, _schema = data.draw(ra_queries(), label="query")
    database = data.draw(view_databases(semiring), label="database")
    baseline = query.evaluate(database)
    result = query.evaluate(database, executor="pipelined", storage=storage)
    result.check_consistency()
    _assert_same_relation(
        semiring,
        baseline,
        result,
        f"as-written plan over {semiring.name} on {storage} storage: {query}",
    )


@pytest.mark.parametrize("storage", STORAGE_BACKENDS)
@pytest.mark.parametrize("semiring_name", PLANNER_SEMIRING_NAMES)
@given(data=st.data())
@DIFFERENTIAL_SETTINGS
def test_pipelined_executor_agrees_on_optimized_plans(semiring_name, storage, data):
    """The full stack -- planner then physical engine -- stays equivalent."""
    semiring = get_semiring(semiring_name)
    query, _schema = data.draw(ra_queries(), label="query")
    database = data.draw(view_databases(semiring), label="database")
    baseline = query.evaluate(database)
    _assert_same_relation(
        semiring,
        baseline,
        query.evaluate(database, optimize=True, executor="pipelined", storage=storage),
        f"optimized plan over {semiring.name} on {storage} storage: {query}",
    )


@pytest.mark.parametrize("storage", STORAGE_BACKENDS)
@pytest.mark.parametrize("semiring_name", PLANNER_SEMIRING_NAMES)
@given(data=st.data())
@DIFFERENTIAL_SETTINGS
def test_relation_level_kernels_match_operators(semiring_name, storage, data):
    """The shared join/projection kernels equal their logical counterparts.

    On columnar inputs the kernels route through the vectorized whole-column
    implementations for the semirings that support them; the result must
    stay identical either way.
    """
    from repro.algebra import operators

    semiring = get_semiring(semiring_name)
    database = data.draw(view_databases(semiring), label="database")
    left = database.relation("R").with_storage(storage)
    right = database.relation("S").with_storage(storage)
    joined = join_relations(left, right)
    joined.check_consistency()
    _assert_same_relation(
        semiring,
        operators.join(left, right),
        joined,
        f"join kernel over {semiring.name} on {storage} storage",
    )
    _assert_same_relation(
        semiring,
        operators.project(left, ["a"]),
        project_relation(left, ["a"]),
        f"projection kernel over {semiring.name} on {storage} storage",
    )


@pytest.mark.parametrize("storage", STORAGE_BACKENDS)
@pytest.mark.parametrize("semiring_name", ("bag", "bool", "tropical", "posbool", "z"))
@given(data=st.data())
@settings(
    max_examples=15,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_pipelined_materialized_views_maintain_identically(semiring_name, storage, data):
    """A view maintained through the engine kernels stays equal to
    recomputation of the original query under random insertion streams."""
    semiring = get_semiring(semiring_name)
    query, _schema = data.draw(ra_queries(), label="query")
    database = data.draw(view_databases(semiring), label="database")
    shadow = database.copy()
    view = MaterializedView(query, database, storage=storage)
    _assert_same_relation(
        semiring, query.evaluate(shadow), view.relation, f"initial view: {query}"
    )
    index = 9000
    for _ in range(data.draw(st.integers(min_value=1, max_value=3), label="batches")):
        insertions = {}
        for name in sorted(BASE_SCHEMAS):
            attributes = BASE_SCHEMAS[name]
            entries = []
            for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
                values = tuple(
                    data.draw(st.sampled_from(DOMAIN)) for _ in attributes
                )
                index += 1
                entries.append((values, annotation_for(semiring, index, data.draw)))
            if entries:
                insertions[name] = entries
        batch = UpdateBatch(insertions=insertions)
        view.apply(batch)
        apply_batch_to_database(shadow, batch)
        _assert_same_relation(
            semiring,
            query.evaluate(shadow),
            view.relation,
            f"maintained view on {storage} storage: {query}",
        )


def test_unknown_executor_is_rejected():
    from repro import Database, NaturalsSemiring, Q

    database = Database(NaturalsSemiring())
    database.create("R", ["a", "b"], [("1", "2")])
    with pytest.raises(QueryError):
        Q.relation("R").evaluate(database, executor="vectorized")
