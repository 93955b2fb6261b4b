"""Layer boundaries of the traced run and the per-layer metrics read off them.

Every target below is a function or method of one ``repro`` layer, wrapped
from outside by :class:`perfbench.tracer.Tracer`.  Time metrics are seconds
per workload call (mean over the traced phase), counts are per call, shares
are fractions of the traced call time.  A layer a workload never enters
reads zero -- that is the prediction for its bypass workload.
"""

from __future__ import annotations

from typing import Any, Dict, List

from perfbench.tracer import Tracer, inclusive_times, self_times

__all__ = ["LAYER_METRICS", "install_layers", "layer_metrics", "count_semiring_ops"]

#: Per-layer metric name -> unit.  The order is the report order.
LAYER_METRICS = {
    "planner.optimize_s": "s",
    "engine.compile_s": "s",
    "engine.execute_self_s": "s",
    "engine.vector_path_share": "ratio",
    "engine.fire_s": "s",
    "engine.fire_calls": "count",
    "engine.fire_share": "ratio",
    "engine.row_join_s": "s",
    "relations.merge_delta_s": "s",
    "relations.merge_delta_rows": "count",
    "relations.merge_changed_ratio": "ratio",
    "relations.merge_delta_share": "ratio",
    "relations.store_build_s": "s",
    "relations.scan_s": "s",
    "datalog.self_s": "s",
    "datalog.self_share": "ratio",
    "datalog.rounds": "count",
    "incremental.view_apply_s": "s",
    "incremental.insert_s": "s",
    "incremental.remove_s": "s",
    "incremental.delete_modes.dred": "count",
    "incremental.delete_modes.rebuild": "count",
    "incremental.apply_modes.delete_rederive": "count",
    "incremental.apply_modes.recompute": "count",
    "incremental.delete_vs_rebuild": "ratio",
    "circuits.compile_s": "s",
    "circuits.compile_share": "ratio",
    "circuits.wmc_s": "s",
    "circuits.compiled_nodes": "count",
    "circuits.cache_hit_rate": "ratio",
    "probabilistic.lineage_s": "s",
    "probabilistic.self_s": "s",
    "semirings.plus": "count",
    "semirings.times": "count",
    "semirings.is_zero": "count",
    "obs.trace_overhead": "ratio",
}


def _vector_answer(tracer: Tracer, result: Any) -> None:
    if result is not None and result is not False:
        tracer.counters["vector_answers"] += 1


def _count_merge_rows(tracer: Tracer, args: tuple, kwargs: dict):
    counters = tracer.counters

    def counted(updates):
        for entry in updates:
            counters["merge_offered"] += 1
            yield entry

    if "updates" in kwargs:
        kwargs = dict(kwargs, updates=counted(kwargs["updates"]))
    else:
        args = (args[0], counted(args[1])) + tuple(args[2:])
    return args, kwargs


def _count_changed(tracer: Tracer, result: Any) -> None:
    tracer.counters["merge_changed"] += len(result)


def install_layers(tracer: Tracer) -> None:
    """Schedule the layer wrappers on ``tracer`` (live inside ``with tracer``)."""
    wrap = tracer.wrap
    wrap("repro.planner.optimizer:optimize", "planner.optimize")
    # engine: RA execution, relation-level view kernels, datalog firing.
    # An "attempt" is one chokepoint where the vector path could answer.
    wrap("repro.engine.compile:compile_query", "engine.compile")
    wrap("repro.engine.compile:execute", "engine.execute", count="engine_attempts")
    wrap("repro.engine.vectorized:try_execute", on_result=_vector_answer)
    wrap("repro.engine.kernels:_join_relations", "engine.row_join", count="engine_attempts")
    wrap("repro.engine.kernels:_project_relation", count="engine_attempts")
    wrap("repro.engine.vectorized:try_join", on_result=_vector_answer)
    wrap("repro.engine.vectorized:try_project", on_result=_vector_answer)
    wrap("repro.datalog.seminaive:_SemiNaiveEngine._fire", count="engine_attempts")
    wrap(
        "repro.datalog.seminaive:_SemiNaiveEngine._fire_vectorized",
        on_result=_vector_answer,
    )
    wrap("repro.engine.vectorized:fire_linear_join", "engine.fire", count="fire_calls")
    # relations: store merge, result-store construction.
    wrap(
        "repro.relations.krelation:KRelation.merge_delta",
        "relations.merge_delta",
        on_args=_count_merge_rows,
        on_result=_count_changed,
    )
    wrap("repro.engine.vectorized:_materialize", "relations.store_build")
    wrap("repro.engine.kernels:build_relation", "relations.store_build")
    # datalog, incremental, circuits, probabilistic entry points.
    wrap("repro.datalog.fixpoint:evaluate_program", "datalog.evaluate")
    wrap("repro.incremental.view:MaterializedView.apply", "incremental.view_apply")
    wrap("repro.incremental.datalog:IncrementalDatalog.insert", "incremental.insert")
    wrap("repro.incremental.datalog:IncrementalDatalog.remove", "incremental.remove")
    wrap("repro.circuits.compile:CircuitCompiler.compile", "circuits.compile")
    wrap("repro.circuits.compile:CompiledCircuit.wmc", "circuits.wmc")
    wrap("repro.datalog.lattice_eval:lattice_condition_provenance", "probabilistic.lineage")
    wrap(
        "repro.probabilistic.tuple_independent:ProbabilisticDatabase.datalog_probabilities",
        "probabilistic.datalog_probabilities",
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer,
    calls: int,
    call_seconds: float,
    compile_stats: Dict[str, float],
    extras: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer metrics from the traced phase's spans and counters.

    ``compile_stats`` is the traced phase's delta of the library's
    knowledge-compilation counters; ``extras`` are workload-side values
    (rounds, maintenance modes, the DRed/rebuild ratio, op counts, overhead).
    """
    inclusive = inclusive_times(tracer.spans)
    own = self_times(tracer.spans)
    counters = tracer.counters

    def per_call(value: float) -> float:
        return _ratio(value, calls)

    def share(value: float) -> float:
        return _ratio(value, call_seconds)

    lookups = compile_stats.get("cache_hits", 0) + compile_stats.get("cache_misses", 0)
    metrics = {
        "planner.optimize_s": per_call(inclusive.get("planner.optimize", 0.0)),
        "engine.compile_s": per_call(inclusive.get("engine.compile", 0.0)),
        "engine.execute_self_s": per_call(own.get("engine.execute", 0.0)),
        "engine.vector_path_share": _ratio(
            counters["vector_answers"], counters["engine_attempts"]
        ),
        "engine.fire_s": per_call(inclusive.get("engine.fire", 0.0)),
        "engine.fire_calls": per_call(counters["fire_calls"]),
        "engine.fire_share": share(inclusive.get("engine.fire", 0.0)),
        "engine.row_join_s": per_call(inclusive.get("engine.row_join", 0.0)),
        "relations.merge_delta_s": per_call(inclusive.get("relations.merge_delta", 0.0)),
        "relations.merge_delta_rows": per_call(counters["merge_offered"]),
        "relations.merge_changed_ratio": _ratio(
            counters["merge_changed"], counters["merge_offered"]
        ),
        "relations.merge_delta_share": share(inclusive.get("relations.merge_delta", 0.0)),
        "relations.store_build_s": per_call(inclusive.get("relations.store_build", 0.0)),
        "relations.scan_s": per_call(inclusive.get("relations.scan", 0.0)),
        "datalog.self_s": per_call(own.get("datalog.evaluate", 0.0)),
        "datalog.self_share": share(own.get("datalog.evaluate", 0.0)),
        "incremental.view_apply_s": per_call(inclusive.get("incremental.view_apply", 0.0)),
        "incremental.insert_s": per_call(inclusive.get("incremental.insert", 0.0)),
        "incremental.remove_s": per_call(inclusive.get("incremental.remove", 0.0)),
        "circuits.compile_s": per_call(inclusive.get("circuits.compile", 0.0)),
        "circuits.compile_share": share(inclusive.get("circuits.compile", 0.0)),
        "circuits.wmc_s": per_call(inclusive.get("circuits.wmc", 0.0)),
        "circuits.compiled_nodes": per_call(compile_stats.get("output_nodes", 0)),
        "circuits.cache_hit_rate": _ratio(compile_stats.get("cache_hits", 0), lookups),
        "probabilistic.lineage_s": per_call(inclusive.get("probabilistic.lineage", 0.0)),
        "probabilistic.self_s": per_call(own.get("probabilistic.datalog_probabilities", 0.0)),
    }
    for name in LAYER_METRICS:
        metrics.setdefault(name, float(extras.get(name, 0.0)))
    return metrics


def _semiring_classes() -> List[type]:
    from repro.semirings.base import Semiring

    seen: List[type] = []
    pending = [Semiring]
    while pending:
        cls = pending.pop()
        if cls not in seen:
            seen.append(cls)
            pending.extend(cls.__subclasses__())
    return seen


def count_semiring_ops(run) -> Dict[str, float]:
    """Scalar ``+``/``*``/``is_zero`` calls made by ``run()``, any semiring.

    Counted by wrapping the methods on every semiring class (outermost call
    per operation kind), so the counted run takes the same physical path as
    an uncounted one: vector kernels do not go through these methods.
    """
    tracer = Tracer()
    for cls in _semiring_classes():
        for method, counter in (("add", "semirings.plus"), ("mul", "semirings.times"), ("is_zero", "semirings.is_zero")):
            if method in vars(cls):
                tracer.wrap((cls, method), count=counter)
    with tracer:
        run()
    return {
        name: float(tracer.counters[name])
        for name in ("semirings.plus", "semirings.times", "semirings.is_zero")
    }
