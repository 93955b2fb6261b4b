"""Compile positive-algebra plans into pipelined physical operators.

The logical operators of Definition 3.2 (and of the PR 4 planner's output)
evaluate operator-at-a-time in :mod:`repro.algebra.operators`: every node
materializes a full intermediate :class:`~repro.relations.krelation.KRelation`,
building a canonical :class:`~repro.relations.tuples.Tup` and running a
semiring ``add``/``is_zero`` round-trip per intermediate tuple.  This module
compiles the same plans into a tree of **pipelined kernels** instead:

* rows are plain value tuples in a fixed positional order; canonical
  ``Tup`` objects exist only in the base relations and in the final result;
* ``select``/``project``/``rename`` **fuse** into the producing operator --
  a selection over a scan becomes a predicate compiled to positional row
  slots and evaluated inside the scan loop, a projection becomes an output
  column map, a rename is free (labels only);
* ``join`` is a hash join whose **build side is chosen by estimated
  cardinality** (exact for scans, propagated through operators with
  textbook default selectivities), with the fused residual predicates and
  the output column map applied directly in the probe loop;
* annotations of duplicate output rows are accumulated **batched** at the
  single pipeline breaker (the result materialization): contributions are
  grouped per output row and combined with one ``+``-chain and one zero
  test per row (:func:`repro.engine.kernels.accumulate_batches`).

The compiled plan evaluates to the same K-relation as the operator-at-a-time
path, annotation for annotation, over every commutative semiring -- all the
reassociation this streaming evaluation performs is justified by
associativity, commutativity and distributivity alone.  Only the display
order of attributes may differ (the named perspective is order-free).  The
differential harness in ``tests/engine`` drives this equivalence over
randomized plans and all registered semirings, circuits included.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.algebra.ast import (
    EmptyRelation,
    Join,
    Project,
    Query,
    RelationRef,
    Rename,
    Select,
    Union,
)
from repro.algebra.predicates import (
    AttrEquals,
    AttrEqualsConst,
    AttrNotEqualsConst,
    BasePredicate,
    ComparisonPredicate,
    Conjunction,
    Disjunction,
    FalsePredicate,
    Negation,
    TruePredicate,
    describe_predicate,
)
from repro.algebra.operators import validate_rename
from repro.engine.kernels import build_relation, hash_join_rows
from repro.errors import QueryError, SchemaError
from repro.obs import trace as _trace
from repro.planner.cost import DEFAULT_SELECTIVITY
from repro.relations.database import Database
from repro.relations.krelation import KRelation
from repro.relations.tuples import Tup

__all__ = ["compile_query", "execute", "drain", "resolve_execution_storage"]

Row = tuple
Filter = Callable[[Row], Any]


class _Node:
    """One physical operator plus its fused select/project/rename envelope.

    ``natural_attrs`` names the columns of the raw rows the operator
    produces; ``filters`` run against those raw rows; ``out_positions``
    (``None`` = identity) maps raw rows to output rows and ``attrs`` names
    the output columns (renames change only the names).  ``estimate`` is the
    compile-time output-cardinality estimate driving build-side selection.

    ``observer`` is the per-execution observability hook
    (:class:`repro.obs.explain.ExecutionObserver`): ``None`` in ordinary
    runs (the only cost is one attribute check per *operator*, never per
    row), set by ``explain(analyze=True)`` to collect actual rows, wall
    time and semiring-op counts per node.  ``filter_labels`` keeps the
    human-readable form of each fused predicate for plan rendering.
    """

    __slots__ = (
        "natural_attrs",
        "attrs",
        "out_positions",
        "filters",
        "estimate",
        "observer",
        "filter_labels",
    )

    def __init__(self, natural_attrs: Tuple[str, ...], estimate: float):
        self.natural_attrs = natural_attrs
        self.attrs = natural_attrs
        self.out_positions: Tuple[int, ...] | None = None
        self.filters: List[Filter] = []
        self.estimate = estimate
        self.observer = None
        self.filter_labels: List[str] = []

    # -- envelope -------------------------------------------------------------
    def natural_position(self, attribute: str) -> int | None:
        """The raw-row slot currently visible under output name ``attribute``."""
        try:
            output_index = self.attrs.index(attribute)
        except ValueError:
            return None
        if self.out_positions is None:
            return output_index
        return self.out_positions[output_index]

    def visible_slots(self) -> Tuple[Tuple[str, int], ...]:
        """(output name, raw-row slot) pairs for the current output columns."""
        if self.out_positions is None:
            return tuple((name, i) for i, name in enumerate(self.attrs))
        return tuple(zip(self.attrs, self.out_positions))

    def produce(self, database: Database) -> Iterator[Tuple[Row, Any]]:
        """Raw rows of the operator (before filters and the column map)."""
        raise NotImplementedError

    def rows(self, database: Database) -> Iterator[Tuple[Row, Any]]:
        """Output rows: raw rows through the fused envelope.

        With an observer attached the stream is wrapped to record per-node
        output cardinality and cumulative wall time; otherwise the iterator
        is returned untouched (no per-row observability cost).
        """
        iterator = self._envelope_rows(database)
        observer = self.observer
        if observer is None:
            return iterator
        return observer.observe_rows(self, iterator)

    def _envelope_rows(self, database: Database) -> Iterator[Tuple[Row, Any]]:
        filters = tuple(self.filters)
        out = self.out_positions
        if not filters and out is None:
            # Nothing fused onto this operator: skip the envelope entirely
            # (the common shape for scans feeding a join after pushdown).
            yield from self.produce(database)
            return
        semiring = database.semiring
        zero, one = semiring.zero(), semiring.one()
        mul = semiring.mul
        is_zero = semiring.is_zero
        for row, annotation in self.produce(database):
            keep = True
            for predicate in filters:
                outcome = predicate(row)
                if outcome is True:
                    continue
                if outcome is False:
                    keep = False
                    break
                # Semiring-valued {0, 1} outcome (Definition 3.2 allows it).
                if outcome == zero or outcome == one:
                    annotation = mul(annotation, outcome)
                    if is_zero(annotation):
                        keep = False
                        break
                else:
                    raise QueryError(
                        f"selection predicate returned {outcome!r}, "
                        "expected a {0, 1} value"
                    )
            if not keep:
                continue
            if out is not None:
                row = tuple(row[i] for i in out)
            yield row, annotation


class _Scan(_Node):
    """A base-relation scan emitting positional rows in sorted-attr order."""

    __slots__ = ("name",)

    def __init__(self, name: str, attrs: Tuple[str, ...], estimate: float):
        super().__init__(attrs, estimate)
        self.name = name

    def produce(self, database: Database) -> Iterator[Tuple[Row, Any]]:
        for tup, annotation in database.relation(self.name).items():
            yield tuple(value for _, value in tup.items()), annotation


class _Empty(_Node):
    """The empty relation: no rows, fixed schema."""

    __slots__ = ()

    def produce(self, database: Database) -> Iterator[Tuple[Row, Any]]:
        return iter(())


class _HashJoin(_Node):
    """Hash join: build the cheaper side, probe with the other.

    The children's *output* rows are joined on their shared attributes;
    residual predicates and the output column map fused onto this node run
    inside the probe loop.
    """

    __slots__ = (
        "left",
        "right",
        "left_key",
        "right_key",
        "right_extra",
        "build_is_left",
    )

    def __init__(self, left: _Node, right: _Node):
        shared = sorted(set(left.attrs) & set(right.attrs))
        left_attr_set = set(left.attrs)
        self.left = left
        self.right = right
        self.left_key = tuple(left.attrs.index(a) for a in shared)
        self.right_key = tuple(right.attrs.index(a) for a in shared)
        self.right_extra = tuple(
            i for i, a in enumerate(right.attrs) if a not in left_attr_set
        )
        natural = left.attrs + tuple(right.attrs[i] for i in self.right_extra)
        if shared:
            estimate = max(left.estimate, right.estimate)
        else:
            estimate = left.estimate * right.estimate
        super().__init__(natural, estimate)
        self.build_is_left = left.estimate <= right.estimate

    def produce(self, database: Database) -> Iterator[Tuple[Row, Any]]:
        mul = database.semiring.mul
        observer = self.observer
        stats = None
        if observer is not None:
            mul = observer.counted_mul(self, mul)
            stats = observer.join_stats(self)
        yield from hash_join_rows(
            mul,
            self.left.rows(database),
            self.right.rows(database),
            self.left_key,
            self.right_key,
            self.right_extra,
            self.build_is_left,
            stats=stats,
        )


class _UnionAll(_Node):
    """Stream both sides; the right side's columns are permuted to the left's."""

    __slots__ = ("left", "right", "right_permutation")

    def __init__(self, left: _Node, right: _Node):
        if set(left.attrs) != set(right.attrs):
            raise SchemaError(
                f"union requires identical attribute sets: "
                f"{left.attrs} vs {right.attrs}"
            )
        super().__init__(left.attrs, left.estimate + right.estimate)
        self.left = left
        self.right = right
        permutation = tuple(right.attrs.index(a) for a in left.attrs)
        self.right_permutation = (
            None if permutation == tuple(range(len(permutation))) else permutation
        )

    def produce(self, database: Database) -> Iterator[Tuple[Row, Any]]:
        yield from self.left.rows(database)
        permutation = self.right_permutation
        if permutation is None:
            yield from self.right.rows(database)
            return
        for row, annotation in self.right.rows(database):
            yield tuple(row[i] for i in permutation), annotation


# ---------------------------------------------------------------------------
# Predicate compilation
# ---------------------------------------------------------------------------


def _tup_fallback_filter(predicate: Callable[[Tup], Any], node: _Node) -> Filter:
    """Evaluate ``predicate`` on a reconstructed canonical tuple.

    The slow path: opaque callables (and structured predicates naming
    attributes the compiler cannot resolve) see exactly the tuple the
    operator-at-a-time evaluator would have handed them -- the node's
    current *output* columns -- so behaviour, including raised errors,
    matches the naive executor.
    """
    slots = sorted(node.visible_slots())

    def evaluate(row: Row) -> Any:
        return predicate(
            Tup._from_sorted_items(tuple((name, row[i]) for name, i in slots))
        )

    return evaluate


def _compile_predicate(predicate: Callable[[Tup], Any], node: _Node) -> Filter:
    """Compile a selection predicate to a positional row filter.

    Structured predicates (:mod:`repro.algebra.predicates`) compile to slot
    lookups; anything else falls back to :func:`_tup_fallback_filter`.
    Boolean combinators mirror the truthiness semantics of the structured
    predicate classes themselves (``Conjunction.__call__`` uses ``all``).
    """
    if isinstance(predicate, TruePredicate):
        return lambda row: True
    if isinstance(predicate, FalsePredicate):
        return lambda row: False
    if isinstance(predicate, AttrEquals):
        left = node.natural_position(predicate.left)
        right = node.natural_position(predicate.right)
        if left is None or right is None:
            return _tup_fallback_filter(predicate, node)
        return lambda row: row[left] == row[right]
    if isinstance(predicate, AttrEqualsConst):
        slot = node.natural_position(predicate.attribute)
        if slot is None:
            return _tup_fallback_filter(predicate, node)
        constant = predicate.constant
        return lambda row: row[slot] == constant
    if isinstance(predicate, AttrNotEqualsConst):
        slot = node.natural_position(predicate.attribute)
        if slot is None:
            return _tup_fallback_filter(predicate, node)
        constant = predicate.constant
        return lambda row: row[slot] != constant
    if isinstance(predicate, ComparisonPredicate):
        slot = node.natural_position(predicate.attribute)
        if slot is None:
            return _tup_fallback_filter(predicate, node)
        compare, value = predicate._compare, predicate.value
        return lambda row: compare(row[slot], value)
    if isinstance(predicate, Conjunction):
        parts = [_compile_predicate(part, node) for part in predicate.parts]
        return lambda row: all(part(row) for part in parts)
    if isinstance(predicate, Disjunction):
        parts = [_compile_predicate(part, node) for part in predicate.parts]
        return lambda row: any(part(row) for part in parts)
    if isinstance(predicate, Negation):
        inner = _compile_predicate(predicate.inner, node)
        return lambda row: not inner(row)
    if isinstance(predicate, BasePredicate):
        return _tup_fallback_filter(predicate, node)
    # Plain callable: opaque, evaluated on a reconstructed tuple.
    return _tup_fallback_filter(predicate, node)


# ---------------------------------------------------------------------------
# The compiler
# ---------------------------------------------------------------------------


def compile_query(query: Query, database: Database) -> _Node:
    """Compile a logical plan into a pipelined physical operator tree."""
    if isinstance(query, RelationRef):
        relation = database.relation(query.name)
        attrs = tuple(sorted(relation.schema.attribute_set))
        return _Scan(query.name, attrs, float(len(relation)))
    if isinstance(query, EmptyRelation):
        return _Empty(tuple(sorted(query.schema.attribute_set)), 0.0)
    if isinstance(query, Select):
        node = compile_query(query.child, database)
        node.filters.append(_compile_predicate(query.predicate, node))
        node.filter_labels.append(describe_predicate(query.predicate))
        node.estimate *= DEFAULT_SELECTIVITY
        return node
    if isinstance(query, Project):
        node = compile_query(query.child, database)
        positions = []
        for attribute in query.attributes:
            slot = node.natural_position(attribute)
            if slot is None:
                raise SchemaError(
                    f"cannot project on unknown attributes "
                    f"[{attribute!r}] of {node.attrs}"
                )
            positions.append(slot)
        node.out_positions = tuple(positions)
        node.attrs = tuple(query.attributes)
        return node
    if isinstance(query, Rename):
        node = compile_query(query.child, database)
        validate_rename(query.mapping, node.attrs)
        node.attrs = tuple(query.mapping.get(a, a) for a in node.attrs)
        return node
    if isinstance(query, Join):
        return _HashJoin(
            compile_query(query.left, database),
            compile_query(query.right, database),
        )
    if isinstance(query, Union):
        return _UnionAll(
            compile_query(query.left, database),
            compile_query(query.right, database),
        )
    raise QueryError(
        f"cannot compile query node {type(query).__name__}; the pipelined "
        "executor covers the positive algebra of Definition 3.2"
    )


def resolve_execution_storage(storage: Any, database: Database) -> str:
    """The storage backend a plan execution should target.

    Explicit ``storage=`` wins; then the ``REPRO_STORAGE`` environment
    variable; finally the database itself -- when every base relation is
    already columnar, results stay columnar (and the vectorized engine
    engages) without any configuration.
    """
    import os

    from repro.relations.storage import STORAGE_ENV, resolve_storage_kind

    if storage is not None:
        return resolve_storage_kind(storage)
    if os.environ.get(STORAGE_ENV):
        return resolve_storage_kind(None)
    relations = [relation for _, relation in database.items()]
    if relations and all(r.storage == "columnar" for r in relations):
        return "columnar"
    return "row"


def execute(query: Query, database: Database, *, storage: Any = None) -> KRelation:
    """Compile ``query`` and run it pipelined against ``database``.

    When the resolved storage backend is columnar, the whole-column
    engine (:mod:`repro.engine.vectorized`) is tried first: supported plan
    shapes over vectorizable semirings evaluate array-at-a-time with no
    per-row Python dispatch.  Anything it declines falls through to the
    row pipeline below, which runs on either backend.

    The row path's single pipeline breaker: all output rows are drained
    into per-row contribution batches, combined with one ``+``-chain each,
    and materialized as a K-relation (the stored-zero invariant of
    Definition 3.1 is enforced by the batch combiner).
    """
    kind = resolve_execution_storage(storage, database)
    if kind == "columnar":
        from repro.engine import vectorized

        result = vectorized.try_execute(query, database, storage=kind)
        if result is not None:
            return result
    if not _trace.enabled():
        root = compile_query(query, database)
        return drain(root, database, storage=kind)
    with _trace.span("engine.compile"):
        root = compile_query(query, database)
    with _trace.span("engine.execute", semiring=database.semiring.name) as sp:
        result = drain(root, database, storage=kind)
        sp.set(out_rows=len(result))
        return result


def drain(root: _Node, database: Database, *, storage: Any = None) -> KRelation:
    """Run a compiled plan to completion: the single pipeline breaker."""
    groups: Dict[tuple, List[Any]] = {}
    for row, annotation in root.rows(database):
        batch = groups.get(row)
        if batch is None:
            groups[row] = [annotation]
        else:
            batch.append(annotation)
    return build_relation(database.semiring, root.attrs, groups, storage=storage)
