"""Whole-column (vectorized) query execution over columnar K-relations.

The pipelined engine of :mod:`repro.engine.compile` still runs a Python
loop per row; this module evaluates the same positive-algebra plans one
**column** at a time instead, MonetDB-style, on ``numpy`` arrays:

* a scan reads the per-attribute value arrays and the parallel annotation
  array straight out of a :class:`~repro.relations.storage.ColumnarRowStore`
  (object arrays for attribute columns; ``int64``/``float64``/``bool`` for
  the annotations of the vectorizable semirings);
* a selection compiles its structured predicate to a boolean mask;
* a join factorizes the shared key columns to integer codes, sorts the
  build side once, finds every probe row's bucket with two binary searches
  (``searchsorted``) and expands the matching (build, probe) index pairs
  without a Python-level loop; annotations multiply array-at-a-time;
* projections and unions group rows by integer-coded keys and combine all
  annotation contributions per output group with a single ``ufunc.at``
  scatter -- the batched ``+``-chain of :func:`~repro.engine.kernels.
  accumulate_batches`, performed by the ufunc inner loop;
* canonical :class:`~repro.relations.tuples.Tup` objects are rebuilt only
  for the final result rows.

**Exactness.**  Only semirings that declare a
:attr:`~repro.semirings.base.Semiring.vector_carrier` -- a numpy dtype
their carrier maps onto losslessly, plus the ufuncs computing ``+`` and
``.`` on it -- are vectorized: N and Z (``int64``, with explicit overflow
guards that fall back to the scalar engine rather than wrap), Tropical,
Fuzzy and Viterbi (``float64``; min/max/+/* on IEEE doubles are
bit-identical to the scalar ``float`` path), and B (``bool``).  Their ``+``
is commutative *and* order-insensitive on the carrier (sums of ints,
min/max of floats, or of bools), so regrouping contributions per output
tuple yields exactly the annotations the row-at-a-time engines produce; the
differential harnesses in ``tests/engine`` assert this.  Everything else --
polynomials, circuits, event sets, ``N-inf`` -- and every plan shape this
module does not cover (opaque predicates, non-total comparisons) falls back
to the row engine, which works on either storage backend.

Dispatch is by that declaration alone: :func:`vector_ops_for` builds one
:class:`VectorOps` from ``vector_carrier`` and ``semiring.zero()``, so a new
exact semiring opts in by declaring its carrier on its class, and a
semiring that merely shares a name with a vectorizable one does not.  The
annotation-identical :class:`~repro.obs.semiring.InstrumentedSemiring`
mirrors its delegate's declaration and so takes the vectorized path too --
its per-op counters then see only the residual scalar work, which is
precisely the point: ``BENCH_*.json`` op counts attribute the columnar
speedup to Python-level semiring calls that no longer happen.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Tuple

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
from repro.algebra.operators import validate_rename
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
)
from repro.errors import SchemaError
from repro.obs import trace as _trace
from repro.relations.database import Database
from repro.relations.krelation import KRelation
from repro.relations.schema import Schema
from repro.relations.storage import ColumnarRowStore
from repro.relations.tuples import Tup
from repro.semirings.base import Semiring

try:  # pragma: no cover - exercised implicitly by every vectorized test
    import numpy as _np
except ImportError:  # pragma: no cover - CI images without numpy
    _np = None

__all__ = [
    "numpy_available",
    "vector_ops_for",
    "try_execute",
    "try_join",
    "try_project",
    "ColumnEncoder",
    "fire_linear_join",
]

#: Magnitude bound for int64 vector arithmetic: if ``|a|.max * |b|.max`` or
#: ``count * |v|.max`` can exceed this, the operation falls back to the
#: scalar engine instead of risking silent wraparound.  Python's unbounded
#: ints make the guard itself exact.
_INT64_GUARD = 1 << 62


def numpy_available() -> bool:
    """Whether the vectorized kernels can run at all."""
    return _np is not None


class _Fallback(ValueError):
    """Internal: this plan/instance cannot be vectorized exactly; use rows.

    A ``ValueError``, so callers outside this module that lift values with
    :meth:`VectorOps.to_array` can catch it without naming it.
    """


# ---------------------------------------------------------------------------
# Vector-level semiring arithmetic
# ---------------------------------------------------------------------------


class VectorOps:
    """Array-at-a-time ``(+, ., 0)`` for a semiring's declared numpy carrier.

    Built from :attr:`~repro.semirings.base.Semiring.vector_carrier` and
    ``semiring.zero()``.  ``to_array`` lifts a sequence of carrier values;
    ``mul`` multiplies two annotation arrays elementwise; ``accumulate``
    combines all contributions landing in the same output group with the
    semiring's ``+`` (one ``ufunc.at`` scatter); ``zero_mask`` flags values
    equal to the semiring zero (possible under Z's cancellation).  On
    ``int64`` the products and sums are guarded: an operation that could
    leave the dtype falls back to the exact scalar engine instead of
    wrapping.
    """

    __slots__ = ("dtype", "zero", "_add", "_mul", "_guarded")

    def __init__(self, carrier: Tuple[str, str, str], zero: Any):
        dtype, add, mul = carrier
        self.dtype = _np.dtype(dtype)
        self.zero = zero
        self._add = getattr(_np, add)
        self._mul = getattr(_np, mul)
        self._guarded = self.dtype == _np.int64

    def to_array(self, values: Iterable[Any]):
        """Lift ``values``; raises ``ValueError`` when one has no exact image."""
        try:
            return _np.array(list(values), dtype=self.dtype)
        except (OverflowError, TypeError, ValueError):
            raise _Fallback from None

    def mul(self, a, b):
        if self._guarded and len(a):
            if int(_np.abs(a).max()) * int(_np.abs(b).max()) > _INT64_GUARD:
                raise _Fallback
        return self._mul(a, b)

    def accumulate(self, values, group_ids, n_groups):
        if self._guarded and len(values):
            if len(values) * int(_np.abs(values).max()) > _INT64_GUARD:
                raise _Fallback
        totals = _np.full(n_groups, self.zero, dtype=self.dtype)
        self._add.at(totals, group_ids, values)
        return totals

    def zero_mask(self, totals):
        return totals == self.zero


def vector_ops_for(semiring: Semiring) -> VectorOps | None:
    """The vector arithmetic for ``semiring``, or ``None`` when unavailable.

    ``None`` unless the semiring declares a ``vector_carrier`` (the
    instrumented wrapper mirrors its delegate's).  Checked against the
    runtime at call time (not just import time) so every vectorized entry
    point declines together when numpy is unavailable.
    """
    if _np is None or semiring.vector_carrier is None:
        return None
    return VectorOps(semiring.vector_carrier, semiring.zero())


# ---------------------------------------------------------------------------
# Column batches
# ---------------------------------------------------------------------------


class _Col:
    """A dictionary-encoded column: dense ``int64`` codes into an alphabet.

    ``uniques`` is the (small) object array of distinct values the column
    has ever held; ``codes[i]`` indexes into it.  Every structural
    operation -- join key matching, group-by, equality masks -- runs on the
    integer codes; the actual values are gathered back (``uniques[codes]``)
    only when the final result materializes.
    """

    __slots__ = ("codes", "uniques")

    def __init__(self, codes, uniques):
        self.codes = codes
        self.uniques = uniques

    def take(self, index) -> "_Col":
        return _Col(self.codes[index], self.uniques)

    def values(self):
        return self.uniques[self.codes]


class _Batch:
    """An intermediate result: named encoded columns + an annotation array.

    Rows are unique by construction (scans read a finite-support map;
    grouping operators re-unique), so joins never need a dedup pass.
    ``display`` tracks the attribute order the operator-at-a-time path
    would have displayed -- equality of K-relations ignores it, but the
    final schema should still read naturally.
    """

    __slots__ = ("display", "columns", "ann")

    def __init__(self, display: Tuple[str, ...], columns: Dict[str, _Col], ann):
        self.display = display
        self.columns = columns
        self.ann = ann

    def __len__(self) -> int:
        return len(self.ann)


def _object_array(values: list):
    """A 1-D object array holding ``values`` verbatim (no nested broadcast)."""
    array = _np.empty(len(values), dtype=object)
    array[:] = values
    return array


class ColumnEncoder:
    """Incremental dictionary encoder for an append-only value stream.

    The one value-interning routine of this module: scans encode with
    :meth:`encode`, and :func:`_unify` re-codes two alphabets through one
    encoder.  The semi-naive engine's per-predicate stores only ever *grow*
    during a fixpoint run, so each round extends the encoding with the new
    suffix instead of re-encoding the whole column (:meth:`extend` is the
    only Python-level per-value work; :meth:`column` is a C-level array
    build).  Unhashable values raise ``TypeError`` out of :meth:`intern` --
    callers fall back to the row engine.
    """

    __slots__ = ("_table", "_alphabet", "_codes")

    def __init__(self):
        self._table: Dict[Any, int] = {}
        self._alphabet: list = []
        self._codes: list = []

    def __len__(self) -> int:
        return len(self._codes)

    @classmethod
    def encode(cls, values: Iterable[Any]) -> _Col:
        """Dictionary-encode ``values`` in one shot."""
        encoder = cls()
        codes = encoder.intern(values)
        return _Col(_np.array(codes, dtype=_np.int64), encoder.alphabet())

    def intern(self, values: Iterable[Any]) -> list:
        """The codes of ``values``, growing the alphabet with unseen ones.

        Hash-based interning matches the dict-equality grouping of the row
        engines exactly (no reliance on a total order over the domain).
        """
        table, alphabet = self._table, self._alphabet
        codes = []
        for value in values:
            code = table.get(value)
            if code is None:
                code = table[value] = len(alphabet)
                alphabet.append(value)
            codes.append(code)
        return codes

    def extend(self, values: Iterable[Any]) -> None:
        self._codes.extend(self.intern(values))

    def alphabet(self):
        """The distinct values seen so far, as an object array."""
        return _object_array(self._alphabet)

    def column(self) -> _Col:
        return _Col(_np.array(self._codes, dtype=_np.int64), self.alphabet())


def _scan_batch(relation: KRelation, ops: VectorOps) -> _Batch:
    """Lift a relation into an encoded column batch.

    For columnar stores the encoding (and the lifted annotation array) is
    cached on the store keyed by its mutation version, so the semi-naive
    fixpoint rounds and repeated queries re-scan for free.
    """
    store = relation._store
    display = tuple(relation.schema.attributes)
    if isinstance(store, ColumnarRowStore):
        cache = getattr(store, "_vec_cache", None)
        if cache is not None and cache[0] == store.version:
            columns, ann_values = cache[1], cache[2]
        else:
            columns = {
                attribute: ColumnEncoder.encode(column)
                for attribute, column in zip(store.attributes, store.columns)
            }
            ann_values = list(store.annotations)
            store._vec_cache = (store.version, columns, ann_values)
        return _Batch(display, dict(columns), ops.to_array(ann_values))
    attributes = tuple(sorted(relation.schema.attribute_set))
    raw: list[list] = [[] for _ in attributes]
    annotations: list = []
    for tup, annotation in store.items():
        for bucket, (_, value) in zip(raw, tup._items):
            bucket.append(value)
        annotations.append(annotation)
    columns = {a: ColumnEncoder.encode(bucket) for a, bucket in zip(attributes, raw)}
    return _Batch(display, columns, ops.to_array(annotations))


def _unify(left: _Col, right: _Col) -> Tuple[_Col, _Col]:
    """Re-code two columns over one shared alphabet, so their codes compare.

    Only the (small) alphabets are touched with Python-level hashing; the
    code arrays remap with one fancy-index gather each.
    """
    encoder = ColumnEncoder()
    left_map = _np.array(encoder.intern(left.uniques), dtype=_np.int64)
    right_map = _np.array(encoder.intern(right.uniques), dtype=_np.int64)
    uniques = encoder.alphabet()
    return _Col(left_map[left.codes], uniques), _Col(right_map[right.codes], uniques)


def _merged_col(left: _Col, right: _Col) -> _Col:
    """The concatenation of two columns over their shared alphabet."""
    left, right = _unify(left, right)
    return _Col(_np.concatenate([left.codes, right.codes]), left.uniques)


def _combine_codes(columns: list, n: int) -> Any:
    """Mixed-radix combination of several columns' codes into one row code.

    ``n`` rows; with no columns every row gets code 0 (one group).
    """
    combined = None
    radix = 1
    for column in columns:
        size = max(len(column.uniques), 1)
        if combined is None:
            combined, radix = column.codes, size
        else:
            if radix * size > _INT64_GUARD:
                raise _Fallback
            combined = combined * size + column.codes
            radix *= size
    return _np.zeros(n, dtype=_np.int64) if combined is None else combined


def _key_codes(pairs: list, n_left: int, n_right: int) -> Tuple[Any, Any]:
    """Comparable row codes for both sides of an equi-join.

    ``pairs`` lists the ``(left column, right column)`` of each key
    attribute; each pair is unified over both sides' alphabets, then each
    side's columns combine into one mixed-radix code per row.  No keys give
    all-zero codes, so :func:`_match` yields the cross product.
    """
    unified = [_unify(left, right) for left, right in pairs]
    return (
        _combine_codes([left for left, _ in unified], n_left),
        _combine_codes([right for _, right in unified], n_right),
    )


def _match(build_codes, probe_codes) -> Tuple[Any, Any]:
    """Every ``(build index, probe index)`` pair with equal codes.

    Sorts the build side once, finds each probe row's bucket with two
    binary searches and expands the pairs without a Python-level loop.
    """
    order = _np.argsort(build_codes, kind="stable")
    sorted_codes = build_codes[order]
    lo = _np.searchsorted(sorted_codes, probe_codes, side="left")
    hi = _np.searchsorted(sorted_codes, probe_codes, side="right")
    counts = hi - lo
    total = int(counts.sum())
    probe_index = _np.repeat(_np.arange(len(probe_codes)), counts)
    exclusive = _np.cumsum(counts) - counts
    offsets = _np.arange(total) - _np.repeat(exclusive, counts)
    return order[_np.repeat(lo, counts) + offsets], probe_index


def _group(batch: _Batch, keep: Tuple[str, ...], display: Tuple[str, ...], ops: VectorOps) -> _Batch:
    """Group rows by the ``keep`` columns, accumulating annotations per group."""
    n = len(batch)
    if n == 0:
        return _Batch(display, {a: batch.columns[a] for a in keep}, batch.ann)
    codes = _combine_codes([batch.columns[a] for a in keep], n)
    _, first_index, inverse = _np.unique(
        codes, return_index=True, return_inverse=True
    )
    totals = ops.accumulate(batch.ann, inverse, len(first_index))
    alive = ~ops.zero_mask(totals)
    representative = first_index[alive]
    columns = {a: batch.columns[a].take(representative) for a in keep}
    return _Batch(display, columns, totals[alive])


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


def _select_batch(batch: _Batch, predicate: Any, ops: VectorOps) -> _Batch:
    mask = _predicate_mask(predicate, batch)
    columns = {a: column.take(mask) for a, column in batch.columns.items()}
    return _Batch(batch.display, columns, batch.ann[mask])


def _const_mask(column: _Col, constant: Any):
    """Rows whose value equals ``constant``: one compare per *distinct* value."""
    flags = _np.fromiter(
        (bool(u == constant) for u in column.uniques),
        dtype=bool,
        count=len(column.uniques),
    )
    return flags[column.codes]


def _predicate_mask(predicate: Any, batch: _Batch):
    """A boolean keep-mask for a structured, total predicate.

    Mirrors the row-level truthiness of :mod:`repro.algebra.predicates`,
    evaluated on the column alphabets (tiny) and gathered out to rows;
    anything outside the supported repertoire was already rejected by
    :func:`_plan_supported`, so reaching the final branch is a bug guard.
    """
    n = len(batch)
    if isinstance(predicate, TruePredicate):
        return _np.ones(n, dtype=bool)
    if isinstance(predicate, FalsePredicate):
        return _np.zeros(n, dtype=bool)
    if isinstance(predicate, AttrEquals):
        left, right = _unify(
            batch.columns[predicate.left], batch.columns[predicate.right]
        )
        return left.codes == right.codes
    if isinstance(predicate, AttrEqualsConst):
        return _const_mask(batch.columns[predicate.attribute], predicate.constant)
    if isinstance(predicate, AttrNotEqualsConst):
        return ~_const_mask(batch.columns[predicate.attribute], predicate.constant)
    if isinstance(predicate, ComparisonPredicate):
        column = batch.columns[predicate.attribute]
        if predicate.operator == "==":
            return _const_mask(column, predicate.value)
        if predicate.operator == "!=":
            return ~_const_mask(column, predicate.value)
        raise _Fallback  # non-total comparisons never vectorize
    if isinstance(predicate, Conjunction):
        mask = _np.ones(n, dtype=bool)
        for part in predicate.parts:
            mask &= _predicate_mask(part, batch)
        return mask
    if isinstance(predicate, Disjunction):
        mask = _np.zeros(n, dtype=bool)
        for part in predicate.parts:
            mask |= _predicate_mask(part, batch)
        return mask
    if isinstance(predicate, Negation):
        return ~_predicate_mask(predicate.inner, batch)
    raise _Fallback


def _project_batch(batch: _Batch, attributes: Tuple[str, ...], ops: VectorOps) -> _Batch:
    missing = [a for a in attributes if a not in batch.columns]
    if missing:
        raise SchemaError(
            f"cannot project on unknown attributes {sorted(missing)}"
        )
    keep = tuple(dict.fromkeys(attributes))
    return _group(batch, keep, tuple(attributes), ops)


def _join_batches(left: _Batch, right: _Batch, ops: VectorOps) -> _Batch:
    shared = sorted(set(left.columns) & set(right.columns))
    extras = tuple(a for a in right.display if a not in left.columns)
    display = left.display + extras
    left_codes, right_codes = _key_codes(
        [(left.columns[a], right.columns[a]) for a in shared], len(left), len(right)
    )
    if len(left) <= len(right):
        left_index, right_index = _match(left_codes, right_codes)
    else:
        right_index, left_index = _match(right_codes, left_codes)
    ann = ops.mul(left.ann[left_index], right.ann[right_index])
    columns = {a: column.take(left_index) for a, column in left.columns.items()}
    for attribute in extras:
        columns[attribute] = right.columns[attribute].take(right_index)
    return _Batch(display, columns, ann)


def _union_batches(left: _Batch, right: _Batch, ops: VectorOps) -> _Batch:
    if set(left.columns) != set(right.columns):
        raise SchemaError(
            f"union requires identical attribute sets: "
            f"{sorted(left.columns)} vs {sorted(right.columns)}"
        )
    columns = {
        a: _merged_col(column, right.columns[a])
        for a, column in left.columns.items()
    }
    ann = _np.concatenate([left.ann, right.ann])
    merged = _Batch(left.display, columns, ann)
    return _group(merged, tuple(sorted(columns)), left.display, ops)


def _rename_batch(batch: _Batch, mapping: Dict[str, str]) -> _Batch:
    validate_rename(mapping, tuple(batch.columns))
    columns = {mapping.get(a, a): column for a, column in batch.columns.items()}
    display = tuple(mapping.get(a, a) for a in batch.display)
    return _Batch(display, columns, batch.ann)


# ---------------------------------------------------------------------------
# Semi-naive round batching
# ---------------------------------------------------------------------------


def fire_linear_join(
    ops: VectorOps,
    probe_cols: Dict[Any, _Col],
    probe_ann,
    build_cols: Dict[Any, _Col],
    build_ann,
    key: list,
    head: list,
    emit: Dict[tuple, list],
) -> bool:
    """One whole-column semi-naive firing: delta ⋈ stored, grouped per head.

    ``probe_*`` hold the round's delta rows, ``build_*`` the full stored
    relation of the single non-driver atom; ``key`` lists the
    ``(probe key, build key)`` column pairs to equi-join on and ``head``
    lists ``("p" | "b", key)`` sources for each head position.  Matching
    pairs are found with the sorted-build / binary-search probe of
    :func:`_match`, annotations multiply array-at-a-time, and all
    contributions to the same head tuple are combined with one ``ufunc.at``
    scatter -- the batched accumulation of ``_merge``, performed before the
    contributions ever become Python objects.  One grouped total per head
    tuple is appended to ``emit`` (exact for these order-insensitive
    carriers).  Returns ``False`` when an instance guard trips and the row
    path should run instead.
    """
    if _np is None:
        return False
    try:
        if len(probe_ann) == 0 or len(build_ann) == 0:
            return True
        pcodes, bcodes = _key_codes(
            [(probe_cols[p], build_cols[b]) for p, b in key],
            len(probe_ann),
            len(build_ann),
        )
        build_index, probe_index = _match(bcodes, pcodes)
        ann = ops.mul(probe_ann[probe_index], build_ann[build_index])
        out_cols = [
            probe_cols[k].take(probe_index)
            if side == "p"
            else build_cols[k].take(build_index)
            for side, k in head
        ]
        combined = _combine_codes(out_cols, len(ann))
        _, first_index, inverse = _np.unique(
            combined, return_index=True, return_inverse=True
        )
        totals = ops.accumulate(ann, inverse, len(first_index))
        # Zero totals are emitted too: the row path hands every combined
        # batch to merge_delta, which owns the stored-zero invariant.
        representatives = [
            col.uniques[col.codes[first_index]].tolist() for col in out_cols
        ]
        for row, value in zip(zip(*representatives), totals.tolist()):
            batch = emit.get(row)
            if batch is None:
                emit[row] = [value]
            else:
                batch.append(value)
        return True
    except _Fallback:
        return False


# ---------------------------------------------------------------------------
# Plan evaluation
# ---------------------------------------------------------------------------


def _predicate_supported(predicate: Any) -> bool:
    """Whether a predicate vectorizes *exactly*.

    Only total predicates qualify: ordering comparisons can raise on
    mixed-type values and the row engines evaluate conjunctions with
    short-circuiting, so a mask-at-a-time evaluation of a non-total part
    could raise where the scalar path would not.  Opaque callables are
    unanalyzable by definition.
    """
    if isinstance(
        predicate,
        (TruePredicate, FalsePredicate, AttrEquals, AttrEqualsConst, AttrNotEqualsConst),
    ):
        return True
    if isinstance(predicate, ComparisonPredicate):
        return predicate.operator in ("==", "!=")
    if isinstance(predicate, (Conjunction, Disjunction)):
        return all(_predicate_supported(part) for part in predicate.parts)
    if isinstance(predicate, Negation):
        return _predicate_supported(predicate.inner)
    return False


def _plan_supported(query: Query) -> bool:
    if isinstance(query, (RelationRef, EmptyRelation)):
        return True
    if isinstance(query, Select):
        return _predicate_supported(query.predicate) and _plan_supported(query.child)
    if isinstance(query, (Project, Rename)):
        return _plan_supported(query.child)
    if isinstance(query, (Join, Union)):
        return _plan_supported(query.left) and _plan_supported(query.right)
    return False


def _evaluate(query: Query, database: Database, ops: VectorOps) -> _Batch:
    if isinstance(query, RelationRef):
        return _scan_batch(database.relation(query.name), ops)
    if isinstance(query, EmptyRelation):
        display = tuple(query.schema.attributes)
        columns = {
            a: _Col(_np.zeros(0, dtype=_np.int64), _object_array([]))
            for a in display
        }
        return _Batch(display, columns, ops.to_array([]))
    if isinstance(query, Select):
        return _select_batch(_evaluate(query.child, database, ops), query.predicate, ops)
    if isinstance(query, Project):
        return _project_batch(
            _evaluate(query.child, database, ops), tuple(query.attributes), ops
        )
    if isinstance(query, Rename):
        return _rename_batch(_evaluate(query.child, database, ops), query.mapping)
    if isinstance(query, Join):
        return _join_batches(
            _evaluate(query.left, database, ops),
            _evaluate(query.right, database, ops),
            ops,
        )
    if isinstance(query, Union):
        return _union_batches(
            _evaluate(query.left, database, ops),
            _evaluate(query.right, database, ops),
            ops,
        )
    raise _Fallback


def _materialize(
    batch: _Batch, semiring: Semiring, ops: VectorOps, storage: str
) -> KRelation:
    """Build the final K-relation: the only per-row Python loop of a plan."""
    # Multiplication can reach the semiring zero on the float carriers
    # (overflow to inf under Tropical, underflow to 0.0 under Viterbi);
    # the row engines drop such rows when they accumulate, so drop them
    # here before storing -- zero is never stored (Definition 3.1).
    dead = ops.zero_mask(batch.ann)
    if dead.any():
        alive = ~dead
        batch = _Batch(
            batch.display,
            {a: column.take(alive) for a, column in batch.columns.items()},
            batch.ann[alive],
        )
    result = KRelation(semiring, Schema(batch.display), storage=storage)
    store = result._store
    attributes = tuple(sorted(batch.display))
    # One C-level gather per column decodes it; .tolist() lowers numpy
    # scalars to the exact Python carrier types the scalar engine uses
    # (int64 -> int, float64 -> float, bool_ -> bool).
    value_lists = [batch.columns[a].values().tolist() for a in attributes]
    annotations = batch.ann.tolist()
    from_sorted = Tup._from_sorted_items
    # Pre-pair each column with its attribute name once, so the per-row
    # work is a single zip(*) step yielding ready-made sorted item tuples.
    paired = [
        [(attribute, value) for value in values]
        for attribute, values in zip(attributes, value_lists)
    ]
    tuples = [from_sorted(row) for row in zip(*paired)]
    if isinstance(store, ColumnarRowStore):
        store.extend_rows(tuples, value_lists, annotations)
    else:
        for tup, annotation in zip(tuples, annotations):
            store.set(tup, annotation)
    return result


def try_execute(
    query: Query, database: Database, *, storage: str = "columnar"
) -> KRelation | None:
    """Evaluate ``query`` column-at-a-time, or ``None`` to use the row engine.

    Returns ``None`` when numpy is missing, the semiring has no exact
    vector arithmetic, the plan contains an unsupported shape, or an
    instance-level guard (int64 overflow, uncodable columns) trips
    mid-evaluation.  Never partially mutates anything -- evaluation is
    read-only until the final materialization.
    """
    if _np is None:
        return None
    ops = vector_ops_for(database.semiring)
    if ops is None or not _plan_supported(query):
        return None
    try:
        if not _trace.enabled():
            batch = _evaluate(query, database, ops)
            return _materialize(batch, database.semiring, ops, storage)
        with _trace.span(
            "engine.vectorized", semiring=database.semiring.name
        ) as span:
            batch = _evaluate(query, database, ops)
            result = _materialize(batch, database.semiring, ops, storage)
            span.set(out_rows=len(result))
            return result
    except _Fallback:
        return None


# ---------------------------------------------------------------------------
# Relation-level kernels (for views and datalog merge paths)
# ---------------------------------------------------------------------------


def _relation_ops(*relations: KRelation) -> VectorOps | None:
    """Vector ops when every input is columnar and the semiring vectorizes."""
    if _np is None:
        return None
    if any(not isinstance(r._store, ColumnarRowStore) for r in relations):
        return None
    return vector_ops_for(relations[0].semiring)


def try_join(left: KRelation, right: KRelation) -> KRelation | None:
    """Vectorized natural join of two columnar relations (or ``None``)."""
    ops = _relation_ops(left, right)
    if ops is None:
        return None
    try:
        batch = _join_batches(
            _scan_batch(left, ops), _scan_batch(right, ops), ops
        )
        schema = left.schema.join(right.schema)
        batch.display = tuple(schema.attributes)
        return _materialize(batch, left.semiring, ops, "columnar")
    except _Fallback:
        return None


def try_project(relation: KRelation, attributes: Iterable[str]) -> KRelation | None:
    """Vectorized projection of a columnar relation (or ``None``)."""
    attributes = tuple(attributes)
    ops = _relation_ops(relation)
    if ops is None:
        return None
    try:
        batch = _project_batch(_scan_batch(relation, ops), attributes, ops)
        return _materialize(batch, relation.semiring, ops, "columnar")
    except _Fallback:
        return None
