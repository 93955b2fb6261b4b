"""Unit coverage of the whole-column kernels behind the columnar backend.

The differential harnesses prove the vectorized engine *agrees* with the
row engine end-to-end; this file pins down the pieces in isolation --
``ColumnEncoder``'s incremental dictionary encoding, ``fire_linear_join``'s
grouped totals (including deliberate zero totals under a ring), the
``vector_carrier`` declarations the kernels dispatch on, the numpy-missing
degradation, and row/columnar equality of the semi-naive engine over every
vectorizable semiring plus a non-vectorizable control.
"""

from __future__ import annotations

import random

import pytest

from repro.circuits import CircuitSemiring
from repro.datalog import evaluate_program
from repro.engine import vectorized
from repro.obs.semiring import instrument
from repro.semirings import (
    BooleanSemiring,
    CompletedNaturalsSemiring,
    EventSemiring,
    EventSpace,
    FuzzySemiring,
    IntegerPolynomialRing,
    IntegerRing,
    NaturalsSemiring,
    PolynomialSemiring,
    PosBoolSemiring,
    PowerSeriesSemiring,
    ProductSemiring,
    Semiring,
    TropicalSemiring,
    ViterbiSemiring,
    WhyProvenanceSemiring,
    WitnessWhySemiring,
    available_semirings,
    get_semiring,
)
from repro.workloads import (
    random_annotation,
    random_graph_database,
    transitive_closure_program,
)

requires_numpy = pytest.mark.skipif(
    not vectorized.numpy_available(),
    reason="vectorized kernels need a numpy runtime",
)


@requires_numpy
class TestColumnEncoder:
    def test_incremental_extend_matches_one_shot_encoding(self):
        encoder = vectorized.ColumnEncoder()
        encoder.extend(["a", "b", "a"])
        assert len(encoder) == 3
        encoder.extend(["c", "b"])
        column = encoder.column()
        assert list(column.codes) == [0, 1, 0, 2, 1]
        assert list(column.uniques) == ["a", "b", "c"]
        assert list(column.values()) == ["a", "b", "a", "c", "b"]

    def test_column_snapshots_are_stable_across_growth(self):
        encoder = vectorized.ColumnEncoder()
        encoder.extend([1, 2])
        before = encoder.column()
        encoder.extend([3])
        assert list(before.codes) == [0, 1]  # earlier snapshot untouched
        assert list(encoder.column().codes) == [0, 1, 2]

    def test_unhashable_values_raise_out_of_extend(self):
        encoder = vectorized.ColumnEncoder()
        with pytest.raises(TypeError):
            encoder.extend([["not", "hashable"]])


def _encode(values):
    encoder = vectorized.ColumnEncoder()
    encoder.extend(values)
    return encoder.column()


@requires_numpy
class TestFireLinearJoin:
    def _ops(self, name):
        ops = vectorized.vector_ops_for(get_semiring(name))
        assert ops is not None
        return ops

    def test_grouped_totals_match_the_hand_computed_join(self):
        # delta(a, b) ⋈ stored(b, c) grouped on (a, c) over N: the classic
        # two-hop shape the semi-naive recipe compiles TC rules into.
        ops = self._ops("bag")
        emit = {}
        fired = vectorized.fire_linear_join(
            ops,
            probe_cols={0: _encode(["x", "x", "y"]), 1: _encode(["m", "n", "m"])},
            probe_ann=ops.to_array([2, 3, 5]),
            build_cols={0: _encode(["m", "n", "m"]), 1: _encode(["p", "p", "q"])},
            build_ann=ops.to_array([7, 11, 13]),
            key=[(1, 0)],
            head=[("p", 0), ("b", 1)],
            emit=emit,
        )
        assert fired
        totals = {tup: values for tup, values in emit.items()}
        # (x,p): x-m(2*7) + x-n(3*11) = 47; (x,q): 2*13 = 26
        # (y,p): 5*7 = 35;              (y,q): 5*13 = 65
        assert {tup: sum(vals) for tup, vals in totals.items()} == {
            ("x", "p"): 47,
            ("x", "q"): 26,
            ("y", "p"): 35,
            ("y", "q"): 65,
        }

    def test_zero_totals_are_emitted_for_merge_delta_to_cancel(self):
        # Under Z two contributions to the same head tuple may cancel; the
        # kernel must emit the exact zero so merge_delta (which owns the
        # stored-zero invariant) can remove the tuple, exactly like the row
        # path's per-derivation accumulation would.
        ops = self._ops("z")
        emit = {}
        assert vectorized.fire_linear_join(
            ops,
            probe_cols={0: _encode(["x", "x"]), 1: _encode(["m", "n"])},
            probe_ann=ops.to_array([1, -1]),
            build_cols={0: _encode(["m", "n"]), 1: _encode(["p", "p"])},
            build_ann=ops.to_array([4, 4]),
            key=[(1, 0)],
            head=[("p", 0), ("b", 1)],
            emit=emit,
        )
        assert [sum(vals) for vals in emit.values()] == [0]

    def test_empty_sides_fire_trivially(self):
        ops = self._ops("bag")
        emit = {}
        assert vectorized.fire_linear_join(
            ops,
            probe_cols={},
            probe_ann=ops.to_array([]),
            build_cols={0: _encode(["m"])},
            build_ann=ops.to_array([1]),
            key=[],
            head=[],
            emit=emit,
        )
        assert emit == {}


# -- the vector_carrier declarations ----------------------------------------------

#: The semirings that declare a numpy carrier.
VECTORIZED = [
    NaturalsSemiring(),
    IntegerRing(),
    TropicalSemiring(),
    FuzzySemiring(),
    ViterbiSemiring(),
    BooleanSemiring(),
]

#: Every other shipped semiring: their carriers have no exact numpy image.
NOT_VECTORIZED = [
    CompletedNaturalsSemiring(),
    PolynomialSemiring(),
    PolynomialSemiring(allow_infinite_coefficients=True),
    PowerSeriesSemiring(),
    IntegerPolynomialRing(),
    PosBoolSemiring(),
    WhyProvenanceSemiring(),
    WitnessWhySemiring(),
    CircuitSemiring(),
    EventSemiring(EventSpace({"w1": 0.5, "w2": 0.5})),
    ProductSemiring([BooleanSemiring(), NaturalsSemiring()]),
    PolynomialSemiring(name="B"),  # a borrowed name is not a declaration
]

#: The capability attributes ``Semiring`` declares (flags and carrier).
CAPABILITIES = [
    key
    for key, value in vars(Semiring).items()
    if not key.startswith("_") and not callable(value)
]


def _samples(semiring, count=24):
    rng = random.Random(7)
    values = [random_annotation(semiring, rng, i) for i in range(count)]
    values += [semiring.zero(), semiring.one()]
    if semiring.has_negation:
        values += [semiring.negate(value) for value in values[:6]]
    return values


def test_registry_carriers_are_exactly_the_declared_six():
    declared = {
        get_semiring(name).name
        for name in available_semirings()
        if get_semiring(name).vector_carrier is not None
    }
    assert declared == {semiring.name for semiring in VECTORIZED}


@pytest.mark.parametrize("semiring", NOT_VECTORIZED, ids=str)
def test_other_shipped_semirings_declare_no_carrier(semiring):
    assert semiring.vector_carrier is None
    assert vectorized.vector_ops_for(semiring) is None


@requires_numpy
@pytest.mark.parametrize("semiring", VECTORIZED, ids=str)
def test_vector_ops_agree_with_the_scalar_operations(semiring):
    ops = vectorized.vector_ops_for(semiring)
    values = _samples(semiring)
    rng = random.Random(11)
    partners = rng.sample(values, len(values))
    products = ops.mul(ops.to_array(values), ops.to_array(partners))
    assert products.tolist() == [semiring.mul(a, b) for a, b in zip(values, partners)]

    # Group 0 stays empty: its total must be the semiring zero.
    groups = [rng.randrange(1, 5) for _ in values]
    totals = ops.accumulate(ops.to_array(values), groups, 5)
    assert totals.tolist() == [
        semiring.sum(v for v, g in zip(values, groups) if g == k) for k in range(5)
    ]
    assert ops.zero_mask(ops.to_array(values)).tolist() == [
        semiring.is_zero(value) for value in values
    ]


@pytest.mark.parametrize("semiring", VECTORIZED + NOT_VECTORIZED, ids=str)
def test_instrumented_wrapper_mirrors_every_capability(semiring):
    assert "vector_carrier" in CAPABILITIES
    wrapper = instrument(semiring)
    for key in CAPABILITIES:
        # Set on the wrapper itself, not inherited from the Semiring default.
        assert key in vars(wrapper), key
        assert getattr(wrapper, key) == getattr(semiring, key), key


#: Semirings whose annotate-mode semi-naive rounds vectorize, plus "nx"
#: (no vector arithmetic -- exercises the per-plan row fallback under the
#: columnar stores) as a control.
SEMINAIVE_NAMES = ("bool", "tropical", "fuzzy", "viterbi", "nx")


@pytest.mark.parametrize("semiring_name", SEMINAIVE_NAMES)
def test_seminaive_row_and_columnar_storage_agree(semiring_name):
    semiring = get_semiring(semiring_name)
    database = random_graph_database(
        semiring, nodes=12, edge_probability=0.25, seed=17
    )
    program = transitive_closure_program()
    kwargs = {"on_divergence": "skip"} if semiring_name == "nx" else {}
    row = evaluate_program(program, database, storage="row", **kwargs)
    columnar = evaluate_program(
        program, database, storage="columnar", **kwargs
    )
    assert row.annotations == columnar.annotations
    assert row.iterations == columnar.iterations


def test_everything_degrades_gracefully_without_numpy(monkeypatch):
    # CI's plain test matrix has no numpy: the columnar stores must still
    # work, with every vectorized entry point declining instead of crashing.
    monkeypatch.setattr(vectorized, "_np", None)
    assert not vectorized.numpy_available()
    assert vectorized.fire_linear_join(None, {}, None, {}, None, [], [], {}) is False

    from repro import Database, Q
    from repro.semirings import NaturalsSemiring

    database = Database(NaturalsSemiring())
    database.create("E", ["a", "b"], [(("1", "2"), 2), (("2", "3"), 3)])
    assert (
        vectorized.try_execute(Q.relation("E"), database, storage="columnar") is None
    )
    query = (
        Q.relation("E")
        .join(Q.relation("E").rename({"a": "b", "b": "c"}))
        .project("a", "c")
    )
    result = query.evaluate(database, executor="pipelined", storage="columnar")
    assert result.storage == "columnar"
    assert result.annotation(("1", "3")) == 6
    result.check_consistency()

    semiring = get_semiring("tropical")
    graph = random_graph_database(semiring, nodes=8, edge_probability=0.3, seed=5)
    program = transitive_closure_program()
    row = evaluate_program(program, graph, storage="row")
    columnar = evaluate_program(program, graph, storage="columnar")
    assert row.annotations == columnar.annotations
