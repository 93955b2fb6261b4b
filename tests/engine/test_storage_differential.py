"""Row vs columnar differential harness over the public entry points.

Each entry point has one production path, but that path runs over two
physical backends: row stores, and columnar stores that engage the
whole-column vectorized kernels.  Every cell of the matrix -- queries,
datalog fixpoints and incremental maintenance, crossed with semirings from
plain booleans to provenance polynomials and circuits -- must produce
*annotation-identical* results on both, and agree with the definitional
evaluators (the Definition 3.2 operators, ``executor="naive"``, and the
naive datalog fixpoint).

Semirings the kernels cannot vectorize (polynomials, circuits) must fall
back to the row loop rather than approximate, so they stay in the matrix.
The int64 cases pin the other half of that contract: numeric carriers whose
sums or products could wrap fall back to exact Python arithmetic.  The
kernels are chosen by each semiring's declared ``vector_carrier``, so N[X]
under the borrowed name ``B`` or ``N`` must stay on the row loop too.
"""

from __future__ import annotations

import random

import pytest

from strategies import naive_fixpoint

from repro.algebra import Q
from repro.algebra.predicates import OpaquePredicate
from repro.circuits import CircuitSemiring, to_polynomial
from repro.datalog import evaluate_program
from repro.incremental import IncrementalDatalog
from repro.relations.database import Database
from repro.relations.krelation import KRelation
from repro.semirings import (
    BooleanSemiring,
    IntegerRing,
    NaturalsSemiring,
    PolynomialSemiring,
    PosBoolSemiring,
    ProvenancePolynomialSemiring,
    TropicalSemiring,
)
from repro.workloads import (
    chain_graph_database,
    random_annotation,
    random_graph_database,
    transitive_closure_program,
)

SEMIRINGS = [
    BooleanSemiring(),
    NaturalsSemiring(),
    IntegerRing(),
    TropicalSemiring(),
    PosBoolSemiring(),
    ProvenancePolynomialSemiring(),
    CircuitSemiring(),
]
IDS = [s.name for s in SEMIRINGS]
STORAGES = ["row", "columnar"]

NEAR_BOUNDARY = 3 << 61  # fits int64; two of them do not


def _comparable(semiring, value):
    # Executors may associate + and . differently, which yields structurally
    # distinct but equal circuits: compare them by the polynomial they denote.
    if semiring.name == "Circ[X]":
        return to_polynomial(value)
    return value


def assert_same_relation(expected: KRelation, actual: KRelation) -> None:
    semiring = expected.semiring
    assert expected.schema.attribute_set == actual.schema.attribute_set
    assert set(expected.support) == set(actual.support)
    for tup in expected.support:
        assert _comparable(semiring, expected.annotation(tup)) == _comparable(
            semiring, actual.annotation(tup)
        ), tup


def two_relation_db(semiring, *, nodes=12, seed=0):
    """A larger edge relation ``R`` plus a smaller ``S``."""
    db = random_graph_database(
        semiring, nodes=nodes, edge_probability=0.35, seed=seed
    )
    small = random_graph_database(
        semiring, nodes=nodes // 2, edge_probability=0.6, seed=seed + 17
    )
    db.register("S", small.relation("R"))
    return db


def two_hop_query():
    """``R(x, mid) ⋈ S(mid, y)`` projected to endpoints (the projection sums)."""
    left = Q.relation("R").rename({"y": "mid"})
    right = Q.relation("S").rename({"x": "mid"})
    return left.join(right).project("x", "y")


# -- queries ---------------------------------------------------------------------
@pytest.mark.parametrize("semiring", SEMIRINGS, ids=IDS)
def test_query_backends_agree(semiring):
    db = two_relation_db(semiring)
    query = two_hop_query()
    reference = query.evaluate(db, storage="row")
    assert reference.support, "the instance must produce output"
    assert query.evaluate(db, storage="columnar").equal_to(reference)
    for storage in STORAGES:
        pipelined = query.evaluate(db, executor="pipelined", storage=storage)
        assert_same_relation(reference, pipelined)


def _self_join(db):
    left = Q.relation("R").rename({"y": "mid"})
    right = Q.relation("R").rename({"x": "mid"})
    return left.join(right).project("x", "y")


def _union_of_two(db):
    small = random_graph_database(
        db.semiring, nodes=6, edge_probability=0.6, seed=17
    )
    db.register("S", small.relation("R"))
    return Q.relation("R").union(Q.relation("S"))


def _self_union(db):
    return Q.relation("R").union(Q.relation("R")).project("x")


def _opaque_select(db):
    return Q.relation("R").select(
        OpaquePredicate(lambda tup: tup["x"] < tup["y"]), description="x < y"
    )


QUERY_SHAPES = {
    "self-join": _self_join,
    "union-of-two": _union_of_two,
    "self-union": _self_union,
    "opaque-select": _opaque_select,
}


@pytest.mark.parametrize("storage", STORAGES)
@pytest.mark.parametrize("shape", sorted(QUERY_SHAPES))
def test_query_shapes_match_definitional_operators(shape, storage):
    """Self-joins, unions and unanalyzable predicates on every backend."""
    db = random_graph_database(
        NaturalsSemiring(), nodes=12, edge_probability=0.35, seed=4
    )
    query = QUERY_SHAPES[shape](db)
    reference = query.evaluate(db, storage="row")
    assert reference.support
    pipelined = query.evaluate(db, executor="pipelined", storage=storage)
    assert_same_relation(reference, pipelined)


# -- datalog fixpoints -----------------------------------------------------------
@pytest.mark.parametrize("semiring", SEMIRINGS, ids=IDS)
def test_datalog_backends_agree(semiring):
    """Linear transitive closure over an acyclic chain, every semiring."""
    program = transitive_closure_program(linear=True)
    db = chain_graph_database(semiring, length=16, seed=3)
    row = evaluate_program(program, db, storage="row")
    columnar = evaluate_program(program, db, storage="columnar")
    assert row.annotations == columnar.annotations
    assert row.iterations == columnar.iterations
    naive = naive_fixpoint(program, db)
    assert set(naive.annotations) == set(row.annotations)
    for atom, value in naive.annotations.items():
        assert _comparable(semiring, value) == _comparable(
            semiring, row.annotations[atom]
        )


@pytest.mark.parametrize(
    "semiring",
    [BooleanSemiring(), TropicalSemiring(), PosBoolSemiring()],
    ids=["B", "Tropical", "PosBool(B)"],
)
def test_datalog_cyclic_graph(semiring):
    """Cyclic graphs: idempotent fixpoints converge identically on both backends."""
    program = transitive_closure_program(linear=True)
    db = random_graph_database(semiring, nodes=9, edge_probability=0.3, seed=5)
    row = evaluate_program(program, db, storage="row")
    columnar = evaluate_program(program, db, storage="columnar")
    assert columnar.annotations == row.annotations
    assert columnar.iterations == row.iterations
    assert row.annotations == naive_fixpoint(program, db).annotations


# -- incremental maintenance -----------------------------------------------------
@pytest.mark.parametrize("semiring", SEMIRINGS, ids=IDS)
def test_incremental_initial_fixpoint_and_insert(semiring):
    """Row and columnar maintenance agree with each other and a fresh fixpoint."""
    program = transitive_closure_program(linear=True)
    views = {
        storage: IncrementalDatalog(
            program,
            chain_graph_database(semiring, length=12, seed=9),
            storage=storage,
        )
        for storage in STORAGES
    }
    assert views["row"].result.annotations == views["columnar"].result.annotations
    # A forward shortcut edge keeps the graph acyclic (finite provenance for
    # the non-idempotent semirings) while rewriting many closure annotations.
    rng = random.Random(99)
    update = [(("n0", "n7"), random_annotation(semiring, rng, 101))]
    for view in views.values():
        view.insert("R", update)
    assert views["row"].result.annotations == views["columnar"].result.annotations
    assert views["row"].relation("Q").equal_to(views["columnar"].relation("Q"))

    fresh_db = chain_graph_database(semiring, length=12, seed=9)
    fresh_db.relation("R").set(*update[0])
    fresh = naive_fixpoint(program, fresh_db)
    assert set(fresh.annotations) == set(views["row"].result.annotations)
    for atom, value in fresh.annotations.items():
        assert _comparable(semiring, value) == _comparable(
            semiring, views["row"].result.annotations[atom]
        )


# -- exact numeric carriers near the int64 boundary --------------------------------
def _relation(semiring, attributes, rows):
    relation = KRelation(semiring, attributes)
    for row, annotation in rows:
        relation.set(row, annotation)
    return relation


@pytest.mark.parametrize("storage", STORAGES)
def test_projection_sum_past_int64_is_exact(storage):
    semiring = NaturalsSemiring()
    db = Database(semiring)
    db.register(
        "R",
        _relation(
            semiring,
            ["a", "b"],
            [((1, b), NEAR_BOUNDARY) for b in range(3)] + [((2, 0), 1)],
        ),
    )
    result = Q.relation("R").project("a").evaluate(
        db, executor="pipelined", storage=storage
    )
    assert result.annotation({"a": 1}) == 3 * NEAR_BOUNDARY  # exact, not wrapped
    assert result.annotation({"a": 2}) == 1


@pytest.mark.parametrize("storage", STORAGES)
def test_join_product_past_int64_is_exact(storage):
    semiring = NaturalsSemiring()
    db = Database(semiring)
    db.register("R", _relation(semiring, ["a", "b"], [((1, 1), NEAR_BOUNDARY)]))
    db.register("S", _relation(semiring, ["b", "c"], [((1, 1), 4), ((1, 2), 1)]))
    result = Q.relation("R").join(Q.relation("S")).project("a").evaluate(
        db, executor="pipelined", storage=storage
    )
    assert result.annotation({"a": 1}) == 5 * NEAR_BOUNDARY


@pytest.mark.parametrize("storage", STORAGES)
def test_datalog_past_int64_is_exact(storage):
    """Path products over 2^40-weighted edges leave int64 after two hops."""
    semiring = NaturalsSemiring()
    db = Database(semiring)
    db.register(
        "R",
        _relation(
            semiring, ["x", "y"], [((f"n{i}", f"n{i + 1}"), 1 << 40) for i in range(4)]
        ),
    )
    program = transitive_closure_program(linear=True)
    result = evaluate_program(program, db, storage=storage)
    naive = naive_fixpoint(program, db)
    assert result.annotations == naive.annotations
    assert result.relation("Q", db).annotation({"x": "n0", "y": "n4"}) == 1 << 160


@pytest.mark.parametrize("storage", STORAGES)
def test_integer_cancellation_drops_zero_totals(storage):
    semiring = IntegerRing()
    db = Database(semiring)
    db.register(
        "R",
        _relation(
            semiring,
            ["a", "b"],
            [((1, "x"), 5), ((1, "y"), -5), ((2, "x"), 2), ((2, "y"), 1)],
        ),
    )
    result = Q.relation("R").project("a").evaluate(
        db, executor="pipelined", storage=storage
    )
    assert set(result.support) == {result._coerce_tuple({"a": 2})}
    assert result.annotation({"a": 2}) == 3


@pytest.mark.parametrize("storage", STORAGES)
def test_small_values_match_python_fold(storage):
    semiring = NaturalsSemiring()
    db = Database(semiring)
    db.register(
        "R",
        _relation(
            semiring,
            ["a", "b"],
            [((i, j), value) for i in range(50) for j, value in enumerate((i, i + 1, 2)) if value],
        ),
    )
    result = Q.relation("R").project("a").evaluate(
        db, executor="pipelined", storage=storage
    )
    assert {tup["a"]: result.annotation(tup) for tup in result.support} == {
        i: 2 * i + 3 for i in range(50)
    }


# -- the vector kernels are chosen by declaration, not by name --------------------
@pytest.mark.parametrize("name", ["B", "N"])
def test_vectorization_follows_the_carrier_not_the_name(name):
    """N[X] under a vectorizable semiring's name keeps its polynomials.

    Two paths reach ``(a, c)``, so the projection sums two monomials; a
    kernel chosen by name would coerce them into bools or ints instead.
    """
    semiring = PolynomialSemiring(name=name)
    x, y, u, v = (semiring.var(n) for n in "xyuv")
    db = Database(semiring)
    db.register(
        "R", _relation(semiring, ["x", "y"], [(("a", "m"), x), (("a", "n"), y)])
    )
    db.register(
        "S", _relation(semiring, ["x", "y"], [(("m", "c"), u), (("n", "c"), v)])
    )
    query = two_hop_query()
    row = query.evaluate(db, executor="pipelined", storage="row")
    columnar = query.evaluate(db, executor="pipelined", storage="columnar")
    assert_same_relation(row, columnar)
    expected = semiring.add(semiring.mul(x, u), semiring.mul(y, v))
    assert columnar.annotation({"x": "a", "y": "c"}) == expected
