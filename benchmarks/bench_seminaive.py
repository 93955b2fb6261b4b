"""S4: semi-naive vs naive datalog evaluation.

Times :func:`repro.datalog.evaluate_program` (the semi-naive engine) against
the naive reference -- :func:`repro.datalog.solve_ground` over
:func:`repro.datalog.ground_program`, Definition 5.5's Kleene iteration --
on the transitive-closure workloads of ``bench_scaling_datalog.py``, scaled
up to graph sizes where the naive ground-everything-then-iterate strategy
hits its wall.  The acceptance bar for this file is a >= 5x semi-naive win
on the largest instance of the series (every run also cross-checks that the
two produced identical annotations, so the benchmark doubles as an
end-to-end equivalence test).

A second series compares the semi-naive engine against itself across the
two storage backends (``storage="row"`` vs ``storage="columnar"``) on much
larger graphs: the columnar backend batches whole rounds through the
vectorized linear-join kernel (:func:`repro.engine.vectorized.fire_linear_join`)
instead of descending per derivation.  Its acceptance bar is a >= 5x
columnar-over-row win on the largest instance; the series needs a numpy
runtime and is skipped (with a visible note) without one.

Runs standalone (CI smoke): ``PYTHONPATH=src python benchmarks/bench_seminaive.py``
or under pytest: ``PYTHONPATH=src python -m pytest benchmarks/bench_seminaive.py``.
"""

import time

from conftest import check_speedup, report
from reporting import emit, ops_snapshot

from repro.datalog import evaluate_program, ground_program, solve_ground
from repro.semirings import (
    BooleanSemiring,
    CompletedNaturalsSemiring,
    TropicalSemiring,
)
from repro.workloads import random_graph_database, transitive_closure_program

#: The instance series: (semiring, node count).  The last entry is "the
#: largest scaling instance" the acceptance criterion refers to.
INSTANCES = [
    (BooleanSemiring(), 12),
    (CompletedNaturalsSemiring(), 16),
    (TropicalSemiring(), 16),
    (BooleanSemiring(), 16),
    (TropicalSemiring(), 24),
]

#: The columnar-vs-row series: both sides run the semi-naive engine on the
#: same graph, differing only in ``storage=``.  Sized well past where the
#: naive engine could follow; the last entry is the largest instance the
#: >= 5x acceptance bar refers to.
COLUMNAR_INSTANCES = [
    (BooleanSemiring(), 64),
    (TropicalSemiring(), 64),
    (TropicalSemiring(), 80),
]

EDGE_PROBABILITY = 0.18
SEED = 9


def _timed(thunk):
    start = time.perf_counter()
    result = thunk()
    return result, time.perf_counter() - start


def _record(semiring, nodes):
    database = random_graph_database(
        semiring, nodes=nodes, edge_probability=EDGE_PROBABILITY, seed=SEED
    )
    program = transitive_closure_program()
    naive, naive_time = _timed(
        lambda: solve_ground(ground_program(program, database), database.semiring)
    )
    seminaive, seminaive_time = _timed(lambda: evaluate_program(program, database))
    assert naive.annotations == seminaive.annotations, (
        f"engines disagree on {semiring.name}, nodes={nodes}"
    )
    return {
        "tag": f"TC on random graph ({semiring.name}, nodes={nodes})",
        "naive_time": naive_time,
        "seminaive_time": seminaive_time,
        "naive_rounds": naive.iterations,
        "seminaive_rounds": seminaive.iterations,
        "tuples": len(seminaive.annotations),
    }


def _columnar_record(semiring, nodes):
    database = random_graph_database(
        semiring, nodes=nodes, edge_probability=EDGE_PROBABILITY, seed=SEED
    )
    program = transitive_closure_program()
    row, row_time = _timed(
        lambda: evaluate_program(program, database, storage="row")
    )
    columnar, columnar_time = _timed(
        lambda: evaluate_program(program, database, storage="columnar")
    )
    assert row.annotations == columnar.annotations, (
        f"storage backends disagree on {semiring.name}, nodes={nodes}"
    )
    return {
        "tag": f"TC columnar vs row ({semiring.name}, nodes={nodes})",
        "row_time": row_time,
        "columnar_time": columnar_time,
        "rounds": columnar.iterations,
        "baseline_storage": "row",
        "contender_storage": "columnar",
        "tuples": len(columnar.annotations),
    }


def _columnar_speedup(record):
    return record["row_time"] / max(record["columnar_time"], 1e-9)


def _columnar_lines(record):
    return [
        f"{record['tag']}: {record['tuples']} derived tuples in {record['rounds']} rounds",
        f"  seminaive, row backend      {record['row_time'] * 1e3:8.1f} ms",
        f"  seminaive, columnar backend {record['columnar_time'] * 1e3:8.1f} ms"
        f"  ({_columnar_speedup(record):.1f}x faster, whole-column rounds)",
    ]


def _vector_runtime() -> bool:
    from repro.engine.vectorized import numpy_available

    return numpy_available()


def _lines(record):
    ratio = record["naive_time"] / max(record["seminaive_time"], 1e-9)
    return [
        f"{record['tag']}: {record['tuples']} derived tuples",
        f"  naive     {record['naive_time'] * 1e3:8.1f} ms in {record['naive_rounds']} rounds",
        f"  seminaive {record['seminaive_time'] * 1e3:8.1f} ms in {record['seminaive_rounds']} rounds  ({ratio:.1f}x faster)",
    ]


def _speedup(record):
    return record["naive_time"] / max(record["seminaive_time"], 1e-9)


def test_seminaive_matches_naive_across_series():
    lines = []
    for semiring, nodes in INSTANCES[:-1]:
        lines.extend(_lines(_record(semiring, nodes)))
    report("S4: semi-naive vs naive datalog engine (series)", lines)


def test_seminaive_beats_naive_on_largest_instance():
    semiring, nodes = INSTANCES[-1]
    record = _record(semiring, nodes)
    report("S4: semi-naive vs naive (largest scaling instance)", _lines(record))
    check_speedup(_speedup(record), 5.0, "semi-naive win on the largest instance")


def test_columnar_backend_matches_row_backend_across_series():
    import pytest

    if not _vector_runtime():
        pytest.skip("columnar vectorized rounds need a numpy runtime")
    lines = []
    for semiring, nodes in COLUMNAR_INSTANCES[:-1]:
        lines.extend(_columnar_lines(_columnar_record(semiring, nodes)))
    report("S4: semi-naive columnar vs row storage (series)", lines)


def test_columnar_backend_beats_row_backend_on_largest_instance():
    import pytest

    if not _vector_runtime():
        pytest.skip("columnar vectorized rounds need a numpy runtime")
    semiring, nodes = COLUMNAR_INSTANCES[-1]
    record = _columnar_record(semiring, nodes)
    report(
        "S4: semi-naive columnar vs row storage (largest instance)",
        _columnar_lines(record),
    )
    check_speedup(
        _columnar_speedup(record), 5.0, "columnar-over-row win on the largest instance"
    )


def _seminaive_ops(semiring, nodes):
    """Semiring-op counts of the semi-naive fixpoint (deterministic)."""

    def run(instrumented):
        database = random_graph_database(
            instrumented, nodes=nodes, edge_probability=EDGE_PROBABILITY, seed=SEED
        )
        evaluate_program(transitive_closure_program(), database)

    return ops_snapshot(semiring, run)


def main() -> None:
    records = [_record(semiring, nodes) for semiring, nodes in INSTANCES]
    for record in records:
        record["speedup"] = _speedup(record)
        for line in _lines(record):
            print(line)
    largest = records[-1]
    print(f"\nlargest-instance semi-naive win: {_speedup(largest):.1f}x (need >= 5x)")

    columnar_records = []
    if _vector_runtime():
        for semiring, nodes in COLUMNAR_INSTANCES:
            record = _columnar_record(semiring, nodes)
            record["speedup"] = _columnar_speedup(record)
            columnar_records.append(record)
            for line in _columnar_lines(record):
                print(line)
        print(
            f"\nlargest-instance columnar win: "
            f"{_columnar_speedup(columnar_records[-1]):.1f}x (need >= 5x)"
        )
    else:
        print("\ncolumnar series skipped: no numpy runtime for the vectorized rounds")

    ops_semiring, ops_nodes = INSTANCES[0]
    summary = {
        "largest_speedup": _speedup(largest),
        "required_speedup": 5.0,
        "instances": [{"semiring": s.name, "nodes": n} for s, n in INSTANCES],
        "columnar_instances": [
            {"semiring": s.name, "nodes": n} for s, n in COLUMNAR_INSTANCES
        ],
        "semiring_ops": {
            "workload": f"semi-naive TC ({ops_semiring.name}, nodes={ops_nodes})",
            **_seminaive_ops(ops_semiring, ops_nodes),
        },
    }
    if columnar_records:
        summary["largest_columnar_speedup"] = _columnar_speedup(columnar_records[-1])
        summary["required_columnar_speedup"] = 5.0
    emit("seminaive", records + columnar_records, summary=summary)
    check_speedup(_speedup(largest), 5.0, "semi-naive win on the largest instance")
    if columnar_records:
        check_speedup(
            _columnar_speedup(columnar_records[-1]),
            5.0,
            "columnar-over-row win on the largest instance",
        )


if __name__ == "__main__":
    main()
