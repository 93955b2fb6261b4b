"""IncrementalDatalog vs from-scratch naive evaluation.

The maintained fixpoint must agree with the naive Kleene fixpoint
(``strategies.naive_fixpoint``) on the same
(post-update) database after every insertion batch -- across the idempotent
direct mode (B, Tropical), the non-idempotent collect-and-solve mode (N∞
with divergence handling, N[X] with skip), and randomized recursive
programs from ``tests/strategies.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from strategies import DOMAIN, annotation_for, naive_fixpoint, programs_with_databases

from repro.errors import DatalogError
from repro.incremental import IncrementalDatalog
from repro.relations.database import Database
from repro.semirings import get_semiring
from repro.workloads import random_edge_insert_stream, random_graph_database

TC_PROGRAM = """
T(x, y) :- R(x, y).
T(x, z) :- R(x, y), T(y, z).
"""

STREAM_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _assert_matches_fresh(maintained, program, database, *, on_divergence="top"):
    fresh = naive_fixpoint(program, database, on_divergence=on_divergence)
    assert maintained.result.divergent_atoms == fresh.divergent_atoms
    assert maintained.result.annotations == fresh.annotations


@pytest.mark.parametrize("storage", ["row", "columnar"])
@pytest.mark.parametrize("semiring_name", ["bool", "tropical", "natinf"])
def test_edge_stream_matches_fresh_evaluation(semiring_name, storage):
    semiring = get_semiring(semiring_name)
    database = random_graph_database(semiring, nodes=8, edge_probability=0.2, seed=3)
    maintained = IncrementalDatalog(TC_PROGRAM, database, storage=storage)
    _assert_matches_fresh(maintained, TC_PROGRAM, database)
    stream = random_edge_insert_stream(
        semiring, nodes=8, batches=5, edges_per_batch=2, seed=11
    )
    for batch in stream:
        maintained.insert("R", batch)
        _assert_matches_fresh(maintained, TC_PROGRAM, database)


def test_insertion_creating_cycle_diverges_like_fresh_run():
    semiring = get_semiring("natinf")
    database = Database(semiring)
    database.create("R", ["x", "y"], [(("a", "b"), 1), (("b", "c"), 1)])
    maintained = IncrementalDatalog(TC_PROGRAM, database)
    assert not maintained.result.divergent_atoms
    maintained.insert("R", [(("c", "a"), 1)])  # closes the cycle
    assert maintained.result.divergent_atoms
    _assert_matches_fresh(maintained, TC_PROGRAM, database)


def test_provenance_polynomials_with_skip():
    semiring = get_semiring("nx")
    database = Database(semiring)
    database.create(
        "R",
        ["x", "y"],
        [(("a", "b"), semiring.var("p")), (("b", "c"), semiring.var("r"))],
    )
    maintained = IncrementalDatalog(TC_PROGRAM, database, on_divergence="skip")
    maintained.insert("R", [(("c", "d"), semiring.var("s"))])
    _assert_matches_fresh(maintained, TC_PROGRAM, database, on_divergence="skip")
    # a cycle makes some atoms divergent; skip keeps the engines agreeing
    maintained.insert("R", [(("d", "a"), semiring.var("t"))])
    assert maintained.result.divergent_atoms
    _assert_matches_fresh(maintained, TC_PROGRAM, database, on_divergence="skip")


def test_remove_runs_the_dred_pass_incrementally():
    semiring = get_semiring("bool")
    database = Database(semiring)
    database.create("R", ["x", "y"], [("a", "b"), ("b", "c"), ("c", "d")])
    maintained = IncrementalDatalog(TC_PROGRAM, database)
    assert len(maintained.result.annotations) == 6
    engine_before = maintained._engine
    maintained.remove("R", [("b", "c")])
    assert maintained.last_delete_mode == "dred"
    assert maintained._engine is engine_before  # no rebuild
    _assert_matches_fresh(maintained, TC_PROGRAM, database)
    assert len(maintained.result.annotations) == 2
    maintained.check_consistency()


def test_negative_insertion_cancelling_a_fact_stays_incremental():
    # Regression: over Z a negative insertion can cancel an EDB fact exactly.
    # The cancellation now routes through the instantiation-graph deletion
    # pass -- the maintained engine must survive (no rebuild) and still agree
    # with fresh evaluation.
    semiring = get_semiring("z")
    database = Database(semiring)
    database.create("R", ["x", "y"], [(("a", "b"), 2), (("b", "c"), 1)])
    maintained = IncrementalDatalog(TC_PROGRAM, database)
    engine_before = maintained._engine
    maintained.insert("R", [(("a", "b"), -2)])
    assert maintained._engine is engine_before  # cancelled in place
    assert ("a", "b") not in database.relation("R")
    _assert_matches_fresh(maintained, TC_PROGRAM, database)
    assert set(maintained.result.annotations) == {
        atom for atom in maintained.result.annotations if atom.values == ("b", "c")
    }
    maintained.check_consistency()
    # a partial (non-cancelling) negative insertion stays incremental
    maintained.insert("R", [(("b", "c"), 5), (("c", "d"), 3)])
    maintained.insert("R", [(("b", "c"), -2)])
    _assert_matches_fresh(maintained, TC_PROGRAM, database)
    maintained.check_consistency()


def test_zero_valued_insertion_is_a_noop():
    semiring = get_semiring("natinf")
    database = Database(semiring)
    database.create("R", ["x", "y"], [(("a", "b"), 1)])
    maintained = IncrementalDatalog(TC_PROGRAM, database)
    before = dict(maintained.result.annotations)
    maintained.insert("R", [(("x", "y"), 0)])  # zero annotation: no support
    assert maintained.result.annotations == before
    assert ("x", "y") not in database.relation("R")


def test_insert_rejects_non_edb_predicates():
    database = Database(get_semiring("bool"))
    database.create("R", ["x", "y"], [("a", "b")])
    maintained = IncrementalDatalog(TC_PROGRAM, database)
    with pytest.raises(DatalogError):
        maintained.insert("T", [("a", "b")])
    with pytest.raises(DatalogError):
        maintained.insert("unknown", [("a", "b")])


def test_dominated_reinsert_is_a_noop():
    semiring = get_semiring("tropical")
    database = Database(semiring)
    database.create("R", ["x", "y"], [(("a", "b"), 2.0), (("b", "c"), 1.0)])
    maintained = IncrementalDatalog(TC_PROGRAM, database)
    before = dict(maintained.result.annotations)
    maintained.insert("R", [(("a", "b"), 5.0)])  # min(2, 5) == 2: dominated
    assert maintained.result.annotations == before
    maintained.insert("R", [(("a", "b"), 0.5)])  # improvement must propagate
    _assert_matches_fresh(maintained, TC_PROGRAM, database)
    assert maintained.result.annotations != before


@pytest.mark.parametrize("semiring_name", ["bool", "tropical", "bag", "posbool"])
@STREAM_SETTINGS
@given(data=st.data())
def test_random_programs_under_insert_streams(semiring_name, data):
    program, database = data.draw(
        programs_with_databases(semiring_name), label="instance"
    )
    semiring = database.semiring
    maintained = IncrementalDatalog(program, database, on_divergence="skip")
    _assert_matches_fresh(maintained, program, database, on_divergence="skip")
    if not program.edb_predicates:
        return  # purely intensional program: nothing to insert into
    index = 5000
    for _ in range(data.draw(st.integers(min_value=1, max_value=3), label="batches")):
        predicate = data.draw(
            st.sampled_from(sorted(program.edb_predicates)), label="predicate"
        )
        arity = program.arity(predicate)
        rows = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=2))):
            values = tuple(data.draw(st.sampled_from(DOMAIN)) for _ in range(arity))
            index += 1
            rows.append((values, annotation_for(semiring, index, data.draw)))
        maintained.insert(predicate, rows)
        _assert_matches_fresh(maintained, program, database, on_divergence="skip")
