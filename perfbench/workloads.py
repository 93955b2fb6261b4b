"""The four benchmark workloads.

Each workload draws its inputs from the run's seed with its own RNG (the
library only ever sees the generated rows), builds its state through the
public constructors (``setup``, the ``setup_s`` metric), and then serves one
closed-loop client: :meth:`Workload.call` issues the next operation only after
the previous one returned and its whole result was read.  ``check`` compares
the outputs against an independent path, outside the timed region.

Every entry point is called on the production path the ROADMAP names --
pipelined executor, ``optimize=True``, semi-naive engine, compile method --
with storage following the semiring's capability (columnar for N and
Tropical, row for N[X]).  The keywords that select it are passed through
:func:`path_kwargs`, so an entry point that stops accepting one keeps
working and the dropped keyword is reported.
"""

from __future__ import annotations

import inspect
import math
import random
import statistics
from typing import Any, Callable, Dict, List, Tuple

from repro import (
    Database,
    IncrementalDatalog,
    MaterializedView,
    Q,
    UpdateBatch,
    evaluate_program,
)
from repro.probabilistic import ProbabilisticDatabase
from repro.relations import Tup
from repro.semirings import (
    NaturalsSemiring,
    ProvenancePolynomialSemiring,
    TropicalSemiring,
)

__all__ = ["WORKLOADS", "Workload", "path_kwargs"]

#: Transitive closure, shared by tc-columnar, update-stream and prob-tc.
TC_PROGRAM = "Q(x,y) :- R(x,y).\nQ(x,z) :- Q(x,y), R(y,z)."

Clock = Callable[[], float]
Span = Callable[..., Any]


def path_kwargs(fn: Callable[..., Any], dropped: List[str], **wanted: Any) -> Dict[str, Any]:
    """The subset of ``wanted`` keywords that ``fn`` still accepts.

    Keywords the signature no longer has are appended to ``dropped`` (as
    ``"fn(keyword)"``) so the run can report a path it could not request.
    """
    parameters = inspect.signature(fn).parameters
    open_ended = any(p.kind is p.VAR_KEYWORD for p in parameters.values())
    kept = {}
    for key, value in wanted.items():
        if open_ended or key in parameters:
            kept[key] = value
        else:
            dropped.append(f"{getattr(fn, '__qualname__', fn)}({key})")
    return kept


def _no_span(_name: str, fn: Callable[..., Any], *args: Any) -> Any:
    return fn(*args)


def _scan(result) -> int:
    """Read a whole result (a K-relation or an annotation map) through ``items()``."""
    count = 0
    for _key, _annotation in result.items():
        count += 1
    return count


class Workload:
    """One workload: seeded inputs, set-up, a closed-loop call and a gate."""

    name = ""
    #: What ``items`` counts: result tuples or base-fact updates.
    unit = "tuples"

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.dropped: List[str] = []
        self.generate()

    def generate(self) -> None:
        raise NotImplementedError

    def setup(self) -> Any:
        """Generated rows -> ready database / view / engine."""
        raise NotImplementedError

    def call(self, state: Any, clock: Clock, span: Span = _no_span) -> Tuple[int, List[Tuple[str, float]]]:
        """One closed-loop operation: ``(items, [(kind, seconds), ...])``.

        ``span(name, fn, *args)`` runs a benchmark-side step (reading a
        result) so the traced run can attribute it to a layer.
        """
        raise NotImplementedError

    def check(self, state: Any) -> List[str]:
        """Compare outputs against an independent path; return mismatches."""
        raise NotImplementedError

    def path_report(self, state: Any) -> Dict[str, Any]:
        """Which physical path actually ran (read off public attributes)."""
        return {}

    def probe(self, state: Any, on: bool) -> None:
        """Ask the next calls for extra measurements outside the timed region
        (the traced run sets it on its untraced calls)."""

    def phase_metrics(self, state: Any) -> Dict[str, float]:
        """Per-layer values the workload observed itself during the run."""
        return {}


# ---------------------------------------------------------------------------
# ra-twohop
# ---------------------------------------------------------------------------


class RaTwoHop(Workload):
    """``Query.evaluate`` of ``pi_{a,c}(E |><| rho(E))`` over 8,000 N-edges."""

    name = "ra-twohop"
    EDGES = 8000
    VALUES = 200

    def generate(self) -> None:
        rng = self.rng
        edges = set()
        while len(edges) < self.EDGES:
            edges.add((f"v{rng.randrange(self.VALUES)}", f"v{rng.randrange(self.VALUES)}"))
        self.rows = [(edge, rng.randint(1, 5)) for edge in sorted(edges)]
        self.query = (
            Q.relation("E")
            .join(Q.relation("E").rename({"a": "b", "b": "c"}))
            .project("a", "c")
        )

    def setup(self) -> Dict[str, Any]:
        database = Database(NaturalsSemiring())
        create = path_kwargs(database.create, self.dropped, storage="columnar")
        database.create("E", ["a", "b"], self.rows, **create)
        evaluate = path_kwargs(
            self.query.evaluate,
            self.dropped,
            optimize=True,
            executor="pipelined",
            storage="columnar",
        )
        return {"db": database, "kwargs": evaluate, "first": None, "last": None}

    def call(self, state, clock, span=_no_span):
        start = clock()
        result = self.query.evaluate(state["db"], **state["kwargs"])
        items = span("relations.scan", _scan, result)
        elapsed = clock() - start
        if state["first"] is None:
            state["first"] = result
        state["last"] = result
        return items, [("call", elapsed)]

    def check(self, state) -> List[str]:
        oracle = self.query.evaluate(
            state["db"], **path_kwargs(self.query.evaluate, [], executor="naive")
        )
        problems = []
        if not state["first"].equal_to(oracle):
            problems.append("ra-twohop: pipelined columnar result differs from the naive executor")
        if not state["last"].equal_to(state["first"]):
            problems.append("ra-twohop: repeated calls returned different results")
        return problems

    def path_report(self, state):
        return {"result_storage": state["last"].storage if state["last"] is not None else None}


# ---------------------------------------------------------------------------
# tc-columnar
# ---------------------------------------------------------------------------


def _random_digraph(rng: random.Random, nodes: int, density: float) -> List[Tuple[str, str]]:
    """Exactly ``round(density * n * (n - 1))`` distinct random edges.

    A fixed edge count rather than an independent coin per pair: the cost
    of every graph workload tracks the edge count, which under coin flips
    varies by about +-15% between seeds at these sizes.
    """
    pairs = [(f"n{i}", f"n{j}") for i in range(nodes) for j in range(nodes) if i != j]
    return sorted(rng.sample(pairs, round(density * len(pairs))))


class TcColumnar(Workload):
    """``evaluate_program`` of transitive closure, Tropical, 80 nodes, density 0.15.

    The weighted graph is fixed and the seed relabels its nodes and orders
    its rows: the seed changes every key and every hash the engine sees, but
    not the amount of work.  Between independently drawn weighted graphs of
    this size the call time swings by about 25% (the weights decide how many
    tentative path costs each round improves), which would bury code changes.
    """

    name = "tc-columnar"
    NODES = 80
    DENSITY = 0.15
    STRUCTURE_SEED = 0

    def generate(self) -> None:
        base = random.Random(self.STRUCTURE_SEED)
        edges = _random_digraph(base, self.NODES, self.DENSITY)
        weights = [float(base.randint(1, 20)) for _ in edges]
        labels = [f"n{i}" for i in range(self.NODES)]
        self.rng.shuffle(labels)
        relabel = {f"n{i}": label for i, label in enumerate(labels)}
        self.rows = [
            ((relabel[source], relabel[target]), weight)
            for (source, target), weight in zip(edges, weights)
        ]
        self.rng.shuffle(self.rows)

    def setup(self) -> Dict[str, Any]:
        database = Database(TropicalSemiring())
        create = path_kwargs(database.create, self.dropped, storage="columnar")
        database.create("R", ["x", "y"], self.rows, **create)
        kwargs = path_kwargs(
            evaluate_program, self.dropped, engine="seminaive", storage="columnar"
        )
        return {"db": database, "kwargs": kwargs, "first": None, "last": None, "rounds": 0}

    def call(self, state, clock, span=_no_span):
        start = clock()
        result = evaluate_program(TC_PROGRAM, state["db"], **state["kwargs"])
        items = span("relations.scan", _scan, result.annotations)
        elapsed = clock() - start
        if state["first"] is None:
            state["first"] = result.annotations
        state["last"] = result.annotations
        state["rounds"] = result.iterations
        return items, [("call", elapsed)]

    def check(self, state) -> List[str]:
        kwargs = path_kwargs(evaluate_program, [], engine="seminaive", storage="row")
        oracle = evaluate_program(TC_PROGRAM, state["db"], **kwargs).annotations
        problems = []
        if state["first"] != oracle:
            problems.append("tc-columnar: columnar fixpoint differs from the row backend")
        if state["last"] != state["first"]:
            problems.append("tc-columnar: repeated calls returned different fixpoints")
        return problems

    def phase_metrics(self, state):
        return {"datalog.rounds": state["rounds"]}


# ---------------------------------------------------------------------------
# update-stream
# ---------------------------------------------------------------------------


class UpdateStream(Workload):
    """Maintained views and fixpoints under a fixed-order batch mix.

    One call is one cycle of the mix: a view batch, a datalog insert batch
    and two datalog delete batches (so the graph keeps its size), each
    followed by a read.  The stream is generated as the loop goes, outside
    the timed region, from live-support bookkeeping of its own.
    """

    name = "update-stream"
    unit = "updates"
    FACTS = 2000
    DIMENSION = 40
    DOMAIN = 100
    VIEW_INSERTS = 8
    VIEW_DELETES = 4
    NODES = 40
    DENSITY = 0.08
    #: The starting graph is the same for every seed (the seed draws its
    #: weights and the update stream): DRed cost tracks the graph's
    #: structure, which between random graphs of this size swings the cycle
    #: time by about +-15% and would bury code changes.
    STRUCTURE_SEED = 0
    EDGES_PER_INSERT = 2
    LOOKUPS = 32
    #: Every SCAN_EVERY-th batch's read is a full scan, not just lookups.
    SCAN_EVERY = 4
    #: Cycle order; the two delete batches balance the insert batch's edges.
    MIX = ("view", "dl_insert", "dl_delete", "dl_delete")
    UPDATES_PER_CYCLE = VIEW_INSERTS + VIEW_DELETES + EDGES_PER_INSERT + 2

    VIEW_QUERY = (
        Q.relation("F").join(Q.relation("D1")).join(Q.relation("D2")).project("a", "x", "y")
    )

    def _distinct_rows(self, arity: int, count: int) -> List[tuple]:
        rows = set()
        while len(rows) < count:
            rows.add(tuple(f"v{self.rng.randrange(self.DOMAIN)}" for _ in range(arity)))
        return sorted(rows)

    def generate(self) -> None:
        rng = self.rng
        self.fact_rows = self._distinct_rows(3, self.FACTS)
        self.d1_rows = self._distinct_rows(2, self.DIMENSION)
        self.d2_rows = self._distinct_rows(2, self.DIMENSION)
        edges = _random_digraph(random.Random(self.STRUCTURE_SEED), self.NODES, self.DENSITY)
        self.edge_rows = [(edge, float(rng.randint(1, 20))) for edge in edges]
        nodes = [f"n{i}" for i in range(self.NODES)]
        self.tc_keys = [
            Tup(x=rng.choice(nodes), y=rng.choice(nodes)) for _ in range(self.LOOKUPS)
        ]
        self.view_key_seed = rng.randrange(2**32)
        self.stream_seed = rng.randrange(2**32)

    def setup(self) -> Dict[str, Any]:
        nx = ProvenancePolynomialSemiring()
        view_db = Database(nx)
        create_row = path_kwargs(view_db.create, self.dropped, storage="row")
        view_db.create("F", ["a", "b", "c"], [(row, f"f{i}") for i, row in enumerate(self.fact_rows)], **create_row)
        view_db.create("D1", ["a", "x"], [(row, f"d{i}") for i, row in enumerate(self.d1_rows)], **create_row)
        view_db.create("D2", ["b", "y"], [(row, f"e{i}") for i, row in enumerate(self.d2_rows)], **create_row)
        view = MaterializedView(
            self.VIEW_QUERY,
            view_db,
            **path_kwargs(
                MaterializedView.__init__,
                self.dropped,
                optimize=True,
                executor="pipelined",
                storage="row",
            ),
        )
        dl_db = Database(TropicalSemiring())
        dl_db.create(
            "R", ["x", "y"], self.edge_rows,
            **path_kwargs(dl_db.create, self.dropped, storage="columnar"),
        )
        maintained = IncrementalDatalog(
            TC_PROGRAM,
            dl_db,
            **path_kwargs(IncrementalDatalog.__init__, self.dropped, storage="columnar"),
        )
        view_keys = sorted(view.relation, key=lambda tup: tup.values_for(("a", "x", "y")))
        key_rng = random.Random(self.view_key_seed)
        return {
            "view": view,
            "view_db": view_db,
            "dl": maintained,
            "dl_db": dl_db,
            "view_keys": key_rng.sample(view_keys, min(self.LOOKUPS, len(view_keys))),
            "stream": _BatchStream(self, random.Random(self.stream_seed)),
            "batches": 0,
            "cycles": 0,
            "modes": {},
            "probe": False,
            "rebuild_kwargs": path_kwargs(
                evaluate_program, [], engine="seminaive", storage="columnar"
            ),
            "delete_s": [],
            "rebuild_s": [],
        }

    def _read(self, state, relation, keys) -> None:
        state["batches"] += 1
        if state["batches"] % self.SCAN_EVERY == 0:
            _scan(relation)
        else:
            for key in keys:
                relation.annotation(key)

    def call(self, state, clock, span=_no_span):
        parts: List[Tuple[str, float]] = []
        stream = state["stream"]
        for kind in self.MIX:
            batch = stream.next(kind)
            if kind == "view":
                start = clock()
                changed = state["view"].apply(batch)
                span("relations.scan", _scan, changed)
                parts.append(("view_apply", clock() - start))
                mode = ("view", state["view"].last_apply_mode)
                start = clock()
                span("relations.scan", self._read, state, state["view"].relation, state["view_keys"])
                parts.append(("read", clock() - start))
            else:
                start = clock()
                result = state["dl"].apply(batch)
                span("relations.scan", _scan, result.annotations)
                elapsed = clock() - start
                parts.append((kind, elapsed))
                if state["probe"] and kind == "dl_delete":
                    state["delete_s"].append(elapsed)
                    start = clock()
                    evaluate_program(TC_PROGRAM, state["dl_db"], **state["rebuild_kwargs"])
                    state["rebuild_s"].append(clock() - start)
                mode = ("datalog", state["dl"].last_delete_mode if kind == "dl_delete" else "insert")
                start = clock()
                output = state["dl"].output_relation()
                span("relations.scan", self._read, state, output, self.tc_keys)
                parts.append(("read", clock() - start))
            state["modes"][mode] = state["modes"].get(mode, 0) + 1
        state["cycles"] += 1
        return self.UPDATES_PER_CYCLE, parts

    def probe(self, state, on):
        state["probe"] = on

    def phase_metrics(self, state):
        cycles = state["cycles"] or 1
        modes = state["modes"]
        metrics = {
            "incremental.delete_modes.dred": modes.get(("datalog", "dred"), 0) / cycles,
            "incremental.delete_modes.rebuild": modes.get(("datalog", "rebuild"), 0) / cycles,
            "incremental.apply_modes.delete_rederive": modes.get(("view", "delete_rederive"), 0) / cycles,
            "incremental.apply_modes.recompute": modes.get(("view", "recompute"), 0) / cycles,
        }
        if state["rebuild_s"]:
            # DRed deletion time over a from-scratch evaluation of the same EDB.
            metrics["incremental.delete_vs_rebuild"] = statistics.median(
                state["delete_s"]
            ) / statistics.median(state["rebuild_s"])
        return metrics

    def check(self, state) -> List[str]:
        problems = []
        view = state["view"]
        try:
            view.relation.check_consistency()
        except Exception as error:  # the gate reports, the run goes on
            problems.append(f"update-stream: view store inconsistent: {error}")
        fresh_view = self.VIEW_QUERY.evaluate(
            state["view_db"], **path_kwargs(self.VIEW_QUERY.evaluate, [], executor="naive")
        )
        if not view.relation.equal_to(fresh_view):
            problems.append("update-stream: maintained view differs from a fresh evaluation")
        maintained = state["dl"]
        try:
            maintained.check_consistency()
        except Exception as error:
            problems.append(f"update-stream: maintained fixpoint inconsistent: {error}")
        kwargs = path_kwargs(evaluate_program, [], engine="seminaive", storage="row")
        fresh = evaluate_program(TC_PROGRAM, state["dl_db"], **kwargs)
        if maintained.result.annotations != fresh.annotations:
            problems.append("update-stream: maintained fixpoint differs from a fresh evaluation")
        return problems

    def path_report(self, state):
        return {f"{layer}.{mode}": count for (layer, mode), count in sorted(state["modes"].items())}


class _BatchStream:
    """Seeded batches over the live supports (never deletes an absent fact)."""

    def __init__(self, workload: UpdateStream, rng: random.Random):
        self.workload = workload
        self.rng = rng
        self.live_facts = {row: None for row in workload.fact_rows}
        self.fact_index = len(workload.fact_rows)
        self.live_edges = {edge: None for edge, _ in workload.edge_rows}

    def next(self, kind: str) -> UpdateBatch:
        rng = self.rng
        w = self.workload
        if kind == "view":
            # Deletions apply before insertions, so they are drawn first.
            deletes = []
            for _ in range(w.VIEW_DELETES):
                row = rng.choice(list(self.live_facts))
                del self.live_facts[row]
                deletes.append(row)
            inserts = []
            for _ in range(w.VIEW_INSERTS):
                row = tuple(f"v{rng.randrange(w.DOMAIN)}" for _ in range(3))
                self.fact_index += 1
                inserts.append((row, f"f{self.fact_index}"))
                self.live_facts[row] = None
            return UpdateBatch(insertions={"F": inserts}, deletions={"F": deletes})
        if kind == "dl_insert":
            inserts = []
            while len(inserts) < w.EDGES_PER_INSERT:
                source, target = rng.randrange(w.NODES), rng.randrange(w.NODES)
                edge = (f"n{source}", f"n{target}")
                if source == target or edge in self.live_edges:
                    continue
                self.live_edges[edge] = None
                inserts.append((edge, float(rng.randint(1, 20))))
            return UpdateBatch(insertions={"R": inserts})
        edge = rng.choice(sorted(self.live_edges))
        del self.live_edges[edge]
        return UpdateBatch(deletions={"R": [edge]})


# ---------------------------------------------------------------------------
# prob-tc
# ---------------------------------------------------------------------------


def _same_probabilities(left: Dict[Tup, float], right: Dict[Tup, float]) -> bool:
    """Equal answer sets with probabilities equal up to float summation order."""
    return set(left) == set(right) and all(
        math.isclose(left[tup], p, abs_tol=1e-9) for tup, p in right.items()
    )


def _uncertain_digraph(edges: int, structure_seed: int) -> List[Tuple[str, str]]:
    """The repository's knowledge-compilation graph generator: ``edges``
    distinct pairs over ``max(4, edges // 2)`` nodes."""
    rng = random.Random(structure_seed)
    nodes = max(4, edges // 2)
    pairs = [(f"n{u}", f"n{v}") for u in range(nodes) for v in range(nodes) if u != v]
    rng.shuffle(pairs)
    return pairs[:edges]


class ProbTc(Workload):
    """``datalog_probabilities`` (compile) of TC on 24 uncertain edges.

    The graph structure is fixed (the knowledge-compilation benchmark's
    instance): compile cost swings about tenfold between random structures
    of this size, which would swamp any code change.  The seed draws the
    edge probabilities; every call uses fresh event names, so the circuit
    compile cache cannot turn a call into a lookup.
    """

    name = "prob-tc"
    EDGES = 24
    ORACLE_EDGES = 14
    STRUCTURE_SEED = 7
    CHAIN = 40

    def generate(self) -> None:
        self.pairs = _uncertain_digraph(self.EDGES, self.STRUCTURE_SEED)
        self.probabilities = [round(self.rng.uniform(0.3, 0.95), 2) for _ in self.pairs]
        oracle_pairs = _uncertain_digraph(self.ORACLE_EDGES, self.STRUCTURE_SEED)
        self.oracle_rows = [
            (pair, f"o{i}", round(self.rng.uniform(0.3, 0.95), 2))
            for i, pair in enumerate(oracle_pairs)
        ]

    def _rows(self, tag: str) -> List[Tuple[Tuple[str, str], str, float]]:
        return [
            (pair, f"{tag}e{i}", probability)
            for i, (pair, probability) in enumerate(zip(self.pairs, self.probabilities))
        ]

    @staticmethod
    def _build(rows) -> ProbabilisticDatabase:
        pdb = ProbabilisticDatabase()
        pdb.add_relation("R", ["x", "y"], rows)
        return pdb

    def setup(self) -> Dict[str, Any]:
        pdb = self._build(self._rows("setup"))
        pdb.lineage_database  # noqa: B018 -- forces the lineage build
        kwargs = path_kwargs(
            ProbabilisticDatabase.datalog_probabilities,
            self.dropped,
            engine="seminaive",
            method="compile",
        )
        return {"kwargs": kwargs, "calls": 0, "first": None, "mismatches": 0}

    def call(self, state, clock, span=_no_span):
        state["calls"] += 1
        rows = self._rows(f"c{state['calls']}_")
        start = clock()
        pdb = self._build(rows)
        answers = pdb.datalog_probabilities(TC_PROGRAM, **state["kwargs"])
        items = span("relations.scan", _scan, answers)
        elapsed = clock() - start
        if state["first"] is None:
            state["first"] = answers
        elif not _same_probabilities(answers, state["first"]):
            state["mismatches"] += 1
        return items, [("call", elapsed)]

    def check(self, state) -> List[str]:
        problems = []
        if state["mismatches"]:
            problems.append(f"prob-tc: {state['mismatches']} calls disagreed with the first call")
        first = state["first"] or {}
        if not all(0.0 <= p <= 1.0 + 1e-12 for p in first.values()):
            problems.append("prob-tc: probability outside [0, 1]")
        pdb = self._build(self.oracle_rows)
        compiled = pdb.datalog_probabilities(TC_PROGRAM, **state["kwargs"])
        enumerated = self._build(self.oracle_rows).datalog_probabilities(
            TC_PROGRAM,
            **path_kwargs(ProbabilisticDatabase.datalog_probabilities, [], method="enumerate"),
        )
        if not _same_probabilities(compiled, enumerated):
            problems.append("prob-tc: compiled probabilities differ from world enumeration")
        chain = self._build(
            [((f"n{i}", f"n{i + 1}"), f"w{i}", 0.9) for i in range(self.CHAIN)]
        ).datalog_probabilities(TC_PROGRAM, **state["kwargs"])
        end = chain.get(Tup(x="n0", y=f"n{self.CHAIN}"))
        if end is None or not math.isclose(end, 0.9**self.CHAIN, abs_tol=1e-9):
            problems.append("prob-tc: chain anchor Pr(n0 ~> n40) != 0.9^40")
        return problems


WORKLOADS = {cls.name: cls for cls in (RaTwoHop, TcColumnar, UpdateStream, ProbTc)}
