"""Incremental deletion: DRed, ring and provenance-assisted paths.

The maintained :class:`IncrementalDatalog` must agree with the from-scratch
naive fixpoint (``strategies.naive_fixpoint``) *annotation-for-annotation* after every step of a
random insert/delete update stream, over every supported semiring and on
both storage backends -- and :meth:`check_consistency` must hold throughout
(the maintained ``edb_annotations``, stores and database supports all agree
with a from-scratch grounding).

Alongside the differential harness, targeted tests pin which deletion
strategy engages (``last_delete_mode``): ``"dred"`` for idempotent and plain
collect-mode semirings, ``"ring"`` for ``Z``/``Z[X]``, ``"provenance"`` when
every deleted fact is tagged with a fresh variable no surviving fact
mentions, ``"noop"`` for absent tuples, and ``"rebuild"`` only as the forced
last resort.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from strategies import annotation_for, naive_fixpoint

from repro.circuits import to_polynomial
from repro.circuits.nodes import Node
from repro.errors import DivergenceError
from repro.incremental import IncrementalDatalog, UpdateBatch
from repro.relations.database import Database
from repro.semirings import get_semiring

TC_PROGRAM = """
T(x, y) :- R(x, y).
T(x, z) :- R(x, y), T(y, z).
"""

#: B, N, Tropical, PosBool[X], Z, Z[X], N[X] and circuits -- both engine
#: regimes, both ring paths, and both provenance representations.
DELETION_SEMIRING_NAMES = (
    "bool",
    "bag",
    "tropical",
    "posbool",
    "z",
    "zx",
    "nx",
    "circuit",
)

NODES = ("a", "b", "c", "d", "e")

DELETION_SETTINGS = settings(
    max_examples=15,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _normalize(annotations):
    """Circuit equality is structural; compare via the denoted polynomials."""
    return {
        atom: (to_polynomial(value) if isinstance(value, Node) else value)
        for atom, value in annotations.items()
    }


def _assert_matches_fresh(maintained, database):
    fresh = naive_fixpoint(TC_PROGRAM, database, on_divergence="skip")
    assert maintained.result.divergent_atoms == fresh.divergent_atoms
    assert _normalize(maintained.result.annotations) == _normalize(fresh.annotations)


@pytest.mark.parametrize("storage", ("row", "columnar"))
@pytest.mark.parametrize("semiring_name", DELETION_SEMIRING_NAMES)
@DELETION_SETTINGS
@given(data=st.data())
def test_mixed_streams_match_fresh_evaluation(semiring_name, storage, data):
    semiring = get_semiring(semiring_name)
    database = Database(semiring)
    database.create("R", ["x", "y"], storage=storage)
    maintained = IncrementalDatalog(
        TC_PROGRAM, database, on_divergence="skip", storage=storage
    )
    index = 0
    steps = data.draw(st.integers(min_value=2, max_value=6), label="steps")
    for step in range(steps):
        support = sorted(
            tup.values_for(("x", "y")) for tup in database.relation("R")
        )
        if support and data.draw(st.booleans(), label=f"delete {step}?"):
            count = data.draw(
                st.integers(min_value=1, max_value=min(2, len(support))),
                label=f"deletes {step}",
            )
            rows = [
                data.draw(st.sampled_from(support), label=f"delete row {step}.{i}")
                for i in range(count)
            ]
            maintained.remove("R", rows)
            assert maintained.last_delete_mode in ("dred", "ring", "provenance")
        else:
            entries = []
            for _ in range(
                data.draw(st.integers(min_value=1, max_value=3), label=f"ins {step}")
            ):
                values = (
                    data.draw(st.sampled_from(NODES)),
                    data.draw(st.sampled_from(NODES)),
                )
                index += 1
                entries.append((values, annotation_for(semiring, index, data.draw)))
            maintained.insert("R", entries)
        _assert_matches_fresh(maintained, database)
        maintained.check_consistency()


@pytest.mark.parametrize("storage", ("row", "columnar"))
@pytest.mark.parametrize("semiring_name", ("bool", "bag"))
def test_removing_an_absent_fact_is_a_noop(semiring_name, storage):
    semiring = get_semiring(semiring_name)
    database = Database(semiring)
    database.create("R", ["x", "y"], [(("a", "b"), 1)], storage=storage)
    maintained = IncrementalDatalog(TC_PROGRAM, database, storage=storage)
    before = dict(maintained.result.annotations)
    engine = maintained._engine
    maintained.remove("R", [("x", "y")])
    assert maintained.last_delete_mode == "noop"
    assert maintained._engine is engine
    assert maintained.result.annotations == before
    maintained.check_consistency()


def test_idempotent_deletion_uses_dred_without_rebuilding():
    semiring = get_semiring("tropical")
    database = Database(semiring)
    database.create(
        "R",
        ["x", "y"],
        [(("a", "b"), 1.0), (("b", "c"), 2.0), (("a", "c"), 5.0), (("c", "d"), 1.0)],
    )
    maintained = IncrementalDatalog(TC_PROGRAM, database)
    engine = maintained._engine
    maintained.remove("R", [("b", "c")])
    assert maintained.last_delete_mode == "dred"
    assert maintained._engine is engine
    # ("a", "c") survives through its direct edge; ("a", "d") must have been
    # re-derived through the surviving path with the higher cost
    _assert_matches_fresh(maintained, database)
    maintained.check_consistency()


def test_ring_deletion_cancels_through_negative_deltas():
    semiring = get_semiring("z")
    database = Database(semiring)
    database.create("R", ["x", "y"], [(("a", "b"), 2), (("b", "c"), -3)])
    maintained = IncrementalDatalog(TC_PROGRAM, database)
    engine = maintained._engine
    maintained.remove("R", [("a", "b")])
    assert maintained.last_delete_mode == "ring"
    assert maintained._engine is engine
    assert ("a", "b") not in database.relation("R")
    _assert_matches_fresh(maintained, database)
    maintained.check_consistency()


@pytest.mark.parametrize("semiring_name", ("nx", "circuit"))
def test_provenance_assisted_deletion_patches_the_cached_result(semiring_name):
    semiring = get_semiring(semiring_name)
    database = Database(semiring)
    database.create(
        "R",
        ["x", "y"],
        [
            (("a", "b"), semiring.var("p")),
            (("b", "c"), semiring.var("q")),
            (("a", "c"), semiring.var("r")),
            (("c", "d"), semiring.var("s")),
        ],
    )
    maintained = IncrementalDatalog(TC_PROGRAM, database)
    assert maintained.result is not None  # prime the cache
    engine = maintained._engine
    maintained.remove("R", [("b", "c")])
    assert maintained.last_delete_mode == "provenance"
    assert maintained._engine is engine
    _assert_matches_fresh(maintained, database)
    maintained.check_consistency()


def test_provenance_license_requires_bare_fresh_variables():
    semiring = get_semiring("nx")
    # 1. a non-variable annotation on the deleted fact blocks the patch
    database = Database(semiring)
    database.create(
        "R",
        ["x", "y"],
        [
            (("a", "b"), semiring.var("p") * semiring.var("q")),
            (("b", "c"), semiring.var("r")),
        ],
    )
    maintained = IncrementalDatalog(TC_PROGRAM, database)
    assert maintained.result is not None
    maintained.remove("R", [("a", "b")])
    assert maintained.last_delete_mode == "dred"
    _assert_matches_fresh(maintained, database)
    # 2. a deleted variable shared with a surviving fact blocks it too
    database = Database(semiring)
    database.create(
        "R",
        ["x", "y"],
        [(("a", "b"), semiring.var("s")), (("b", "c"), semiring.var("s"))],
    )
    maintained = IncrementalDatalog(TC_PROGRAM, database)
    assert maintained.result is not None
    maintained.remove("R", [("a", "b")])
    assert maintained.last_delete_mode == "dred"
    _assert_matches_fresh(maintained, database)
    maintained.check_consistency()


def test_rebuild_is_only_the_forced_last_resort(monkeypatch):
    database = Database(get_semiring("bool"))
    database.create("R", ["x", "y"], [("a", "b"), ("b", "c")])
    maintained = IncrementalDatalog(TC_PROGRAM, database)

    def explode(*args, **kwargs):
        raise DivergenceError("forced rederive blow-up")

    monkeypatch.setattr(maintained._engine, "delete_edb", explode)
    maintained.remove("R", [("b", "c")])
    assert maintained.last_delete_mode == "rebuild"
    _assert_matches_fresh(maintained, database)
    maintained.check_consistency()


def test_apply_runs_deletions_before_insertions():
    semiring = get_semiring("tropical")
    database = Database(semiring)
    database.create("R", ["x", "y"], [(("a", "b"), 1.0), (("b", "c"), 2.0)])
    maintained = IncrementalDatalog(TC_PROGRAM, database)
    maintained.apply(
        UpdateBatch(
            insertions={"R": [(("b", "d"), 4.0)]},
            deletions={"R": [("b", "c")]},
        )
    )
    assert maintained.last_delete_mode == "dred"
    _assert_matches_fresh(maintained, database)
    maintained.check_consistency()


def test_delete_span_reports_mode_and_work():
    from repro.obs import tracing

    database = Database(get_semiring("bool"))
    database.create(
        "R", ["x", "y"], [("a", "b"), ("b", "c"), ("c", "d"), ("a", "c")]
    )
    maintained = IncrementalDatalog(TC_PROGRAM, database)
    with tracing() as sink:
        maintained.remove("R", [("b", "c")])
    (record,) = sink.find("incremental.delete")
    assert record.attributes["predicate"] == "R"
    assert record.attributes["deletes"] == 1
    assert record.attributes["mode"] == "dred"
    assert record.attributes["overdeleted"] >= 1
    assert record.attributes["rederived"] >= 0
    assert "rounds" in record.attributes


def test_cancellation_keeps_maintained_rounds_and_indexes():
    # Regression: a negative insertion that cancels an EDB fact exactly used
    # to rebuild the whole engine, resetting the maintained rounds/indexes.
    semiring = get_semiring("z")
    database = Database(semiring)
    database.create("R", ["x", "y"], [(("a", "b"), 2), (("b", "c"), 1)])
    maintained = IncrementalDatalog(TC_PROGRAM, database)
    engine = maintained._engine
    rounds_before = maintained._rounds
    maintained.insert("R", [(("a", "b"), -2)])  # exact cancellation
    assert maintained._engine is engine
    assert maintained._rounds >= rounds_before  # accumulated, never reset
    _assert_matches_fresh(maintained, database)
    maintained.check_consistency()
