"""S5: incremental view maintenance vs full recomputation.

Replays random update streams against materialized positive-algebra views
(:class:`repro.incremental.MaterializedView`) and an incrementally
maintained datalog fixpoint (:class:`repro.incremental.IncrementalDatalog`),
timing the maintained path against recomputing the result from scratch after
every batch.  A dedicated deletion series removes single facts from the
largest maintained TC fixpoint and times the delete/rederive (DRed) pass
against rebuilding the engine from the post-delete database.  Every instance
cross-checks the two paths tuple-for-tuple, so the benchmark doubles as an
end-to-end differential test; the acceptance bars are a >= 5x incremental
win on the largest update-stream instance and a >= 5x single-fact deletion
win over rebuild.

Runs standalone (CI smoke): ``PYTHONPATH=src python benchmarks/bench_incremental.py``
or under pytest: ``PYTHONPATH=src python -m pytest benchmarks/bench_incremental.py``.
"""

import time

from conftest import check_speedup, report
from reporting import emit, ops_snapshot

from repro.algebra.ast import Q
from repro.datalog import evaluate_program
from repro.incremental import IncrementalDatalog, MaterializedView, apply_batch_to_database
from repro.semirings import IntegerRing, NaturalsSemiring, TropicalSemiring
from repro.workloads import (
    chain_graph_database,
    random_edge_insert_stream,
    random_graph_database,
    random_update_stream,
    star_join_database,
    transitive_closure_program,
)

#: The RA instance series: (semiring, fact tuples, batches, deletes per batch).
#: Deletions ride along only on the ring instance (Z), where they propagate
#: incrementally; the last entry is "the largest update-stream instance" the
#: acceptance criterion refers to.
RA_INSTANCES = [
    (NaturalsSemiring(), 400, 10, 0),
    (IntegerRing(), 800, 12, 2),
    (TropicalSemiring(), 1500, 15, 0),
    (NaturalsSemiring(), 4000, 25, 0),
]

SEED = 5

#: The star-schema comparison view: F ⋈ D1 ⋈ D2 projected on (a, x, y).
VIEW_QUERY = (
    Q.relation("F").join(Q.relation("D1")).join(Q.relation("D2")).project("a", "x", "y")
)


def _timed(thunk):
    start = time.perf_counter()
    result = thunk()
    return result, time.perf_counter() - start


def _ra_record(semiring, fact_tuples, batches, deletes_per_batch):
    database = star_join_database(
        semiring,
        fact_tuples=fact_tuples,
        dimension_tuples=max(20, fact_tuples // 50),
        domain_size=max(15, fact_tuples // 20),
        seed=SEED,
    )
    shadow = database.copy()
    stream = random_update_stream(
        database,
        batches=batches,
        inserts_per_batch=4,
        deletes_per_batch=deletes_per_batch,
        domain_size=max(15, fact_tuples // 20),
        seed=SEED + 1,
        relation_names=["F"],
    )

    view, build_time = _timed(lambda: MaterializedView(VIEW_QUERY, database))
    incremental_time = 0.0
    recompute_time = 0.0
    recomputed = None
    for batch in stream:
        _, elapsed = _timed(lambda: view.apply(batch))
        incremental_time += elapsed

        def full():
            apply_batch_to_database(shadow, batch)
            return VIEW_QUERY.evaluate(shadow)

        recomputed, elapsed = _timed(full)
        recompute_time += elapsed
    assert recomputed is not None and view.relation.equal_to(recomputed), (
        f"incremental view diverged from recompute ({semiring.name}, "
        f"fact_tuples={fact_tuples})"
    )
    return {
        "tag": (
            f"star view on {semiring.name} (F={fact_tuples}, "
            f"{len(stream)} batches, {deletes_per_batch} deletes/batch)"
        ),
        "build_time": build_time,
        "incremental_time": incremental_time,
        "recompute_time": recompute_time,
        "view_tuples": len(view.relation),
    }


def _datalog_record(semiring, nodes, batches):
    database = random_graph_database(
        semiring, nodes=nodes, edge_probability=0.12, seed=SEED
    )
    program = transitive_closure_program()
    stream = random_edge_insert_stream(
        semiring, nodes=nodes, batches=batches, edges_per_batch=2, seed=SEED + 2
    )

    maintained, build_time = _timed(lambda: IncrementalDatalog(program, database))
    incremental_time = 0.0
    recompute_time = 0.0
    fresh = None
    for batch in stream:
        _, elapsed = _timed(lambda: maintained.insert("R", batch))
        incremental_time += elapsed
        fresh, elapsed = _timed(lambda: evaluate_program(program, database))
        recompute_time += elapsed
    assert fresh is not None and maintained.result.annotations == fresh.annotations, (
        f"incremental datalog diverged from fresh evaluation ({semiring.name})"
    )
    return {
        "tag": f"TC maintenance on {semiring.name} (nodes={nodes}, {batches} batches)",
        "build_time": build_time,
        "incremental_time": incremental_time,
        "recompute_time": recompute_time,
        "view_tuples": len(maintained.result.annotations),
    }


def _deletion_record(semiring, length, deletions):
    """Single-fact deletions from a maintained TC fixpoint vs full rebuild.

    The maintained engine runs its delete/rederive (DRed) pass per removed
    edge; the baseline re-evaluates the whole program from the post-delete
    database -- exactly what ``remove`` used to do before deletions became
    incremental.  The instance is the TC of a long chain (the biggest
    fixpoint this benchmark builds: ``length * (length + 1) / 2`` tuples),
    deleting tail edges whose doomed cone is small -- the regime DRed is
    for; a deletion's cost tracks the affected atoms, not the fixpoint size.
    The right-linear TC variant keeps the re-derivation head-driven plans
    probing the EDB edge relation first (O(out-degree) work per doomed
    atom); the quadratic rule would enumerate the closure instead.  Every
    step cross-checks the two annotation maps.
    """
    database = chain_graph_database(semiring, length=length, seed=SEED)
    program = transitive_closure_program(linear=True)
    maintained, build_time = _timed(lambda: IncrementalDatalog(program, database))
    incremental_time = 0.0
    recompute_time = 0.0
    for index in range(deletions):
        edge = (f"n{length - 1 - index}", f"n{length - index}")
        _, elapsed = _timed(lambda: maintained.remove("R", [edge]))
        incremental_time += elapsed
        assert maintained.last_delete_mode == "dred"
        fresh, elapsed = _timed(lambda: evaluate_program(program, database))
        recompute_time += elapsed
        assert maintained.result.annotations == fresh.annotations, (
            f"incremental deletion diverged from fresh evaluation "
            f"({semiring.name}, length={length}, deleted {edge})"
        )
    return {
        "tag": (
            f"TC single-fact deletion on {semiring.name} "
            f"(chain length={length}, {deletions} deletions)"
        ),
        "build_time": build_time,
        "incremental_time": incremental_time,
        "recompute_time": recompute_time,
        "view_tuples": len(maintained.result.annotations),
    }


def _speedup(record):
    return record["recompute_time"] / max(record["incremental_time"], 1e-9)


def _lines(record):
    return [
        f"{record['tag']}: {record['view_tuples']} maintained tuples",
        f"  initial build {record['build_time'] * 1e3:8.1f} ms",
        f"  recompute     {record['recompute_time'] * 1e3:8.1f} ms over the stream",
        f"  incremental   {record['incremental_time'] * 1e3:8.1f} ms over the stream"
        f"  ({_speedup(record):.1f}x faster)",
    ]


#: The deletion series instance: (semiring, chain length, deletions) -- the
#: largest maintained TC fixpoint the benchmark builds, from which single
#: facts are removed one at a time.
DELETION_INSTANCE = (TropicalSemiring(), 200, 10)


def test_incremental_matches_recompute_across_series():
    lines = []
    for semiring, fact_tuples, batches, deletes in RA_INSTANCES[:-1]:
        lines.extend(_lines(_ra_record(semiring, fact_tuples, batches, deletes)))
    lines.extend(_lines(_datalog_record(TropicalSemiring(), 24, 8)))
    report("S5: incremental maintenance vs recompute (series)", lines)


def test_incremental_beats_recompute_on_largest_instance():
    semiring, fact_tuples, batches, deletes = RA_INSTANCES[-1]
    record = _ra_record(semiring, fact_tuples, batches, deletes)
    report("S5: incremental vs recompute (largest update-stream instance)", _lines(record))
    check_speedup(
        _speedup(record), 5.0, "incremental win on the largest update-stream instance"
    )


def test_single_fact_deletion_beats_rebuild():
    semiring, length, deletions = DELETION_INSTANCE
    record = _deletion_record(semiring, length, deletions)
    report("S5: incremental deletion (DRed) vs rebuild", _lines(record))
    check_speedup(
        _speedup(record), 5.0, "single-fact deletion win over from-scratch rebuild"
    )


def _maintenance_ops(semiring, fact_tuples, batches, deletes_per_batch):
    """Semiring-op counts of maintaining the star view over the stream."""

    def run(instrumented):
        database = star_join_database(
            instrumented,
            fact_tuples=fact_tuples,
            dimension_tuples=max(20, fact_tuples // 50),
            domain_size=max(15, fact_tuples // 20),
            seed=SEED,
        )
        stream = random_update_stream(
            database,
            batches=batches,
            inserts_per_batch=4,
            deletes_per_batch=deletes_per_batch,
            domain_size=max(15, fact_tuples // 20),
            seed=SEED + 1,
            relation_names=["F"],
        )
        view = MaterializedView(VIEW_QUERY, database)
        for batch in stream:
            view.apply(batch)

    return ops_snapshot(semiring, run)


def main() -> None:
    records = [
        _ra_record(semiring, fact_tuples, batches, deletes)
        for semiring, fact_tuples, batches, deletes in RA_INSTANCES
    ]
    records.append(_datalog_record(TropicalSemiring(), 24, 8))
    deletion_semiring, deletion_length, deletion_count = DELETION_INSTANCE
    deletion = _deletion_record(deletion_semiring, deletion_length, deletion_count)
    records.append(deletion)
    for record in records:
        record["speedup"] = _speedup(record)
        for line in _lines(record):
            print(line)
    largest = records[len(RA_INSTANCES) - 1]
    print(f"\nlargest-instance incremental win: {_speedup(largest):.1f}x (need >= 5x)")
    print(f"single-fact deletion win over rebuild: {_speedup(deletion):.1f}x (need >= 5x)")
    ops_semiring, ops_facts, ops_batches, ops_deletes = RA_INSTANCES[0]
    emit(
        "incremental",
        records,
        summary={
            "largest_speedup": _speedup(largest),
            "deletion_speedup": _speedup(deletion),
            "required_speedup": 5.0,
            "deletion_instance": {
                "semiring": deletion_semiring.name,
                "chain_length": deletion_length,
                "deletions": deletion_count,
            },
            "ra_instances": [
                {"semiring": s.name, "facts": f, "batches": b, "deletes": d}
                for s, f, b, d in RA_INSTANCES
            ],
            "semiring_ops": {
                "workload": (
                    f"view maintenance ({ops_semiring.name}, facts={ops_facts}, "
                    f"batches={ops_batches})"
                ),
                **_maintenance_ops(ops_semiring, ops_facts, ops_batches, ops_deletes),
            },
        },
    )
    check_speedup(
        _speedup(largest), 5.0, "incremental win on the largest update-stream instance"
    )
    check_speedup(
        _speedup(deletion), 5.0, "single-fact deletion win over from-scratch rebuild"
    )


if __name__ == "__main__":
    main()
