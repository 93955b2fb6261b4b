"""The probabilistic frontend rides the planner and the fast engines.

``ProbabilisticDatabase.query_events`` plumbs ``optimize=``/``executor=``
through, with planner-on defaults, and the datalog methods run on the
semi-naive engine.  These tests prove the answer *events* -- not just the
probabilities -- are identical across every query mode, and that the
datalog events equal the naive Kleene fixpoint computed directly in
``P(Omega)``.
"""

from __future__ import annotations

import pytest

from strategies import naive_fixpoint

from repro.probabilistic import ProbabilisticDatabase
from repro.relations import Tup
from repro.workloads import (
    figure4_probabilistic_database,
    section2_query,
    transitive_closure_program,
)


def _cyclic_pdb() -> ProbabilisticDatabase:
    pdb = ProbabilisticDatabase()
    pdb.add_relation(
        "R",
        ["x", "y"],
        [
            (("a", "b"), "e1", 0.5),
            (("b", "c"), "e2", 0.5),
            (("a", "c"), "e3", 0.2),
            (("c", "a"), "e4", 0.5),
        ],
    )
    return pdb


def _assert_identical_events(reference, candidate, context):
    assert reference.schema.attribute_set == candidate.schema.attribute_set, context
    assert set(reference.support) == set(candidate.support), context
    for tup in reference.support:
        assert reference.annotation(tup) == candidate.annotation(tup), (
            f"{context}: event mismatch on {tup}"
        )


class TestQueryPlumbing:
    def test_all_query_modes_produce_identical_events(self):
        pdb = figure4_probabilistic_database()
        query = section2_query()
        reference = pdb.query_events(query, optimize=False)
        for optimize in (False, True):
            for executor in ("naive", "pipelined"):
                _assert_identical_events(
                    reference,
                    pdb.query_events(query, optimize=optimize, executor=executor),
                    f"optimize={optimize}, executor={executor}",
                )

    def test_optimized_is_the_default(self):
        """The planner-on default gives the same events as the old hard-coded
        naive path (Proposition 3.4 over P(Omega))."""
        pdb = figure4_probabilistic_database()
        query = section2_query()
        _assert_identical_events(
            pdb.query_events(query, optimize=False),
            pdb.query_events(query),
            "default mode",
        )

    def test_probabilities_agree_across_modes(self):
        pdb = figure4_probabilistic_database()
        query = section2_query()
        reference = pdb.query_probabilities(query, optimize=False)
        fast = pdb.query_probabilities(query, optimize=True, executor="pipelined")
        assert set(reference) == set(fast)
        for tup, probability in reference.items():
            assert fast[tup] == pytest.approx(probability)


class TestPipelinedDefault:
    """The pipelined executor is now the default for probabilistic queries."""

    def test_signature_defaults_are_pipelined(self):
        import inspect

        for method in (
            ProbabilisticDatabase.query_events,
            ProbabilisticDatabase.query_probabilities,
            ProbabilisticDatabase.query_lineage,
        ):
            assert (
                inspect.signature(method).parameters["executor"].default
                == "pipelined"
            ), method.__name__

    def test_default_matches_explicit_naive(self):
        pdb = figure4_probabilistic_database()
        query = section2_query()
        _assert_identical_events(
            pdb.query_events(query, executor="naive"),
            pdb.query_events(query),
            "pipelined default",
        )
        naive = pdb.query_probabilities(query, executor="naive")
        default = pdb.query_probabilities(query)
        assert set(naive) == set(default)
        for tup, probability in naive.items():
            assert default[tup] == pytest.approx(probability)


class TestEventSpaceMemo:
    """``IndependentEventSpace.probability`` memoizes per distinct event.

    The space is immutable after ``_build`` -- marginals are fixed at
    construction and the 2^n world set never changes -- so the memo is never
    invalidated.  It is also lazy: nothing is built until first use.
    """

    def test_space_is_lazy_until_first_use(self):
        from repro.probabilistic import IndependentEventSpace

        space = IndependentEventSpace({"e1": 0.5, "e2": 0.25})
        assert not space.is_built
        space.probability(space.event("e1"))
        assert space.is_built

    def test_memo_grows_and_hits(self):
        from repro.probabilistic import IndependentEventSpace

        space = IndependentEventSpace({"e1": 0.5, "e2": 0.25})
        e1 = space.event("e1")
        first = space.probability(e1)
        assert len(space._probability_memo) == 1
        # The memoized value is returned (same float object, no recompute).
        assert space.probability(frozenset(e1)) is first
        assert len(space._probability_memo) == 1
        space.probability(space.event("e2"))
        assert len(space._probability_memo) == 2
        assert first == pytest.approx(0.5)


def _naive_events(pdb, program):
    """The oracle: the naive Kleene fixpoint run directly over ``P(Omega)``."""
    return naive_fixpoint(program, pdb.database).output_relation(pdb.database)


class TestDatalogPlumbing:
    def test_events_match_the_naive_fixpoint(self):
        pdb = _cyclic_pdb()
        program = transitive_closure_program()
        _assert_identical_events(
            _naive_events(pdb, program),
            pdb.datalog_events(program),
            "datalog events",
        )

    def test_probabilities_match_the_naive_fixpoint(self):
        pdb = _cyclic_pdb()
        program = transitive_closure_program()
        naive = _naive_events(pdb, program)
        probabilities = pdb.datalog_probabilities(program)
        assert set(naive.support) == set(probabilities)
        for tup, event in naive.items():
            assert probabilities[tup] == pytest.approx(pdb.space.probability(event))
        # Anchor to the known closed-form value from the paper's example.
        assert probabilities[Tup(x="a", y="c")] == pytest.approx(0.4)
