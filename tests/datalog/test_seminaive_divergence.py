"""Divergence behavior of the semi-naive engine, mirrored against the naive oracle.

Covers the full ``on_divergence`` matrix on a cyclic instance -- raising
:class:`DivergenceError` when the semiring cannot absorb an infinite sum,
assigning the top element when it can (``N∞``, Figure 7(b)), and skipping
the divergent atoms while keeping exact values -- plus the round-count
regression: on an acyclic chain the semi-naive engine solves the program in
a single topological pass where the naive Kleene iteration
(:func:`strategies.naive_fixpoint`) runs once per path length.
"""

from __future__ import annotations

import pytest

from strategies import naive_fixpoint

from repro.datalog import (
    GroundAtom,
    datalog_circuit_provenance,
    evaluate_program,
    Program,
)
from repro.errors import DivergenceError
from repro.relations.database import Database
from repro.semirings import (
    INFINITY,
    CompletedNaturalsSemiring,
    NaturalsSemiring,
    ProvenancePolynomialSemiring,
)
from repro.workloads import chain_graph_database, transitive_closure_program

TC = transitive_closure_program()

#: The engine under test and the Definition 5.5 oracle, side by side.
SOLVERS = pytest.mark.parametrize(
    "solve", [naive_fixpoint, evaluate_program], ids=["naive", "seminaive"]
)


def _cyclic_database(semiring):
    """a -> b -> a plus an off-ramp b -> c; every atom reaches the cycle."""
    database = Database(semiring)
    database.create("R", ["x", "y"], [("a", "b"), ("b", "a"), ("b", "c")])
    return database


@SOLVERS
def test_divergence_error_without_top(solve):
    """N has no top element: a cyclic program must raise under 'top' and 'error'."""
    database = _cyclic_database(NaturalsSemiring())
    with pytest.raises(DivergenceError):
        solve(TC, database)  # on_divergence="top"
    with pytest.raises(DivergenceError):
        solve(TC, database, on_divergence="error")


@SOLVERS
def test_divergence_error_in_polynomials(solve):
    """N[X] has no top either; 'error' must also raise for provenance."""
    semiring = ProvenancePolynomialSemiring()
    database = _cyclic_database(semiring).map_annotations(
        lambda _: semiring.one(), semiring
    )
    with pytest.raises(DivergenceError):
        solve(TC, database, on_divergence="error")


def test_skip_drops_the_same_atoms_in_both_engines():
    database = _cyclic_database(NaturalsSemiring())
    naive = naive_fixpoint(TC, database, on_divergence="skip")
    seminaive = evaluate_program(TC, database, on_divergence="skip")
    assert naive.divergent_atoms == seminaive.divergent_atoms
    assert naive.annotations == seminaive.annotations
    # Every atom on/after the a<->b cycle is gone; nothing else was derivable.
    assert seminaive.divergent_atoms == frozenset(seminaive.ground.idb_atoms)
    assert seminaive.annotations == {}


def test_natinf_top_assignment_matches_figure_7b_semantics():
    """Under N∞ the divergent atoms must get ∞ in both engines."""
    database = _cyclic_database(CompletedNaturalsSemiring())
    naive = naive_fixpoint(TC, database)
    seminaive = evaluate_program(TC, database)
    assert naive.annotations == seminaive.annotations
    assert seminaive.annotations[GroundAtom("Q", ("a", "a"))] == INFINITY
    assert seminaive.annotations[GroundAtom("Q", ("a", "c"))] == INFINITY
    assert seminaive.divergent_atoms == naive.divergent_atoms


def test_circuit_provenance_divergence_matrix():
    """The circuit path forwards on_divergence to the semi-naive solver."""
    bag = NaturalsSemiring()
    database = _cyclic_database(bag)
    skip = datalog_circuit_provenance(TC, database)
    assert skip.circuits == {}
    oracle = naive_fixpoint(TC, database, on_divergence="skip")
    assert skip.divergent == oracle.divergent_atoms
    with pytest.raises(DivergenceError):
        datalog_circuit_provenance(TC, database, on_divergence="error")


def test_seminaive_round_count_beats_naive_on_chain():
    """Regression: on a chain the semi-naive engine needs strictly fewer rounds.

    Under ``N`` the chain's grounding is acyclic, so the semi-naive engine
    finishes in one topological pass while the naive oracle performs one
    Kleene round per path length (plus one to detect stability).
    """
    length = 12
    database = chain_graph_database(NaturalsSemiring(), length=length)
    naive = naive_fixpoint(TC, database)
    seminaive = evaluate_program(TC, database)
    assert naive.annotations == seminaive.annotations
    assert seminaive.iterations < naive.iterations
    assert seminaive.iterations == 1
    assert naive.iterations > length / 2


def test_invalid_on_divergence_is_rejected():
    database = _cyclic_database(NaturalsSemiring())
    with pytest.raises(ValueError, match="on_divergence"):
        evaluate_program(TC, database, on_divergence="explode")


def test_unsolvable_unless_skip_message_mentions_remedy():
    database = _cyclic_database(NaturalsSemiring())
    with pytest.raises(DivergenceError, match="on_divergence='skip'"):
        evaluate_program(TC, database)
