"""Shared physical operator kernels over K-relations.

The three hot paths of the system -- ad-hoc query evaluation
(:mod:`repro.engine.compile`), materialized-view delta propagation
(:mod:`repro.incremental.view`), and the semi-naive datalog rounds
(:mod:`repro.datalog.seminaive`) -- all reduce to the same two primitives:

* **hash join** with cost-driven build-side selection: the smaller input is
  loaded into a bucket index on the shared attributes and the larger one
  probes it, so the work is proportional to the joinable pairs;
* **batched annotation accumulation**: contributions to the same output
  tuple are collected first and combined with *one* ``+``-chain per tuple
  (:func:`combine_contributions`), instead of interleaving a semiring
  ``add`` and an ``is_zero`` test per input pair.  For cheap annotations
  (``B``, ``N``) this trims per-pair overhead; for heavy ones (polynomials,
  circuits, event sets) it also performs a single zero test per output
  tuple, which is where most of the win comes from.

Everything here works positionally: a relation's tuples are flattened once
into plain value tuples in sorted-attribute order (the order
:class:`~repro.relations.tuples.Tup` stores internally), all per-row work
happens on those value tuples, and canonical :class:`Tup` objects are
rebuilt only for the final output.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Tuple

from repro.algebra.operators import require_same_semiring
from repro.obs import trace as _trace
from repro.relations.krelation import KRelation
from repro.relations.schema import Schema
from repro.relations.tuples import Tup
from repro.semirings.base import Semiring

__all__ = [
    "combine_contributions",
    "accumulate_batches",
    "relation_rows",
    "build_relation",
    "hash_join_rows",
    "join_relations",
    "project_relation",
]


def combine_contributions(semiring: Semiring, values: Iterable[Any]) -> Any:
    """One ``+``-chain over a non-empty batch of contributions.

    Left-folds without a zero seed, so the result is bit-for-bit what the
    per-pair accumulation of :meth:`KRelation._accumulate` would have
    produced -- important for representation-sensitive semirings (circuit
    DAG shapes, polynomial term orders) that the differential harnesses
    compare structurally.
    """
    iterator = iter(values)
    total = next(iterator)
    add = semiring.add
    for value in iterator:
        total = add(total, value)
    return total


def accumulate_batches(
    semiring: Semiring, groups: Dict[Any, List[Any]]
) -> Dict[Any, Any]:
    """Combine per-key contribution batches, dropping keys that sum to zero."""
    out: Dict[Any, Any] = {}
    is_zero = semiring.is_zero
    for key, values in groups.items():
        total = values[0] if len(values) == 1 else combine_contributions(semiring, values)
        if not is_zero(total):
            out[key] = total
    return out


def relation_rows(relation: KRelation) -> Tuple[Tuple[str, ...], List[Tuple[tuple, Any]]]:
    """Flatten a relation to ``(sorted attrs, [(value row, annotation), ...])``.

    Rows come out in sorted-attribute order, read straight off each tuple's
    internal sorted item list -- no per-attribute lookups.
    """
    attrs = tuple(sorted(relation.schema.attribute_set))
    rows = [
        (tuple(value for _, value in tup.items()), annotation)
        for tup, annotation in relation.items()
    ]
    return attrs, rows


def build_relation(
    semiring: Semiring,
    attrs: Tuple[str, ...],
    groups: Dict[tuple, List[Any]],
    schema: Schema | None = None,
    storage: Any = None,
) -> KRelation:
    """Materialize accumulated row batches into a :class:`KRelation`.

    ``attrs`` names the positions of the row keys in ``groups``; ``schema``
    fixes the display order of the result (default: ``attrs`` as given);
    ``storage`` selects the result's physical backend (default: the
    process-wide ``REPRO_STORAGE`` setting).
    """
    result = KRelation(
        semiring, schema if schema is not None else Schema(attrs), storage=storage
    )
    order = sorted(range(len(attrs)), key=attrs.__getitem__)
    store = result._store
    for row, value in accumulate_batches(semiring, groups).items():
        items = tuple((attrs[i], row[i]) for i in order)
        store.set(Tup._from_sorted_items(items), value)
    return result


def _counted(rows: Iterable[Tuple[tuple, Any]], stats: Any) -> Iterable[Tuple[tuple, Any]]:
    """Count probe rows as they stream past (only used in observed mode)."""
    for item in rows:
        stats.probe_size += 1
        yield item


def hash_join_rows(
    mul: Callable[[Any, Any], Any],
    left_rows: Iterable[Tuple[tuple, Any]],
    right_rows: Iterable[Tuple[tuple, Any]],
    left_key: Tuple[int, ...],
    right_key: Tuple[int, ...],
    right_extra: Tuple[int, ...],
    build_is_left: bool,
    stats: Any = None,
) -> Iterable[Tuple[tuple, Any]]:
    """The shared hash-join probe loop on positional rows.

    Loads the designated build side into a bucket index on its key
    positions, streams the probe side against it, and yields
    ``(natural row, annotation)`` pairs where the natural row is the left
    row followed by the right side's ``right_extra`` columns and the
    annotation is ``left . right`` (Definition 3.2) regardless of which
    side was indexed.  When the build side is empty the probe side is never
    consumed.  Both the relation-level kernel (:func:`join_relations`) and
    the pipelined plan compiler's join node delegate here, so the join
    semantics live in exactly one place.

    ``stats``, when given, is an object with ``build_size`` / ``probe_size``
    counters (see :class:`repro.obs.explain.NodeStats`); the build size is
    recorded once the index is loaded and probe rows are counted as they
    stream through.  The default ``None`` keeps the loop unobserved.
    """
    if build_is_left:
        build_rows, build_key = left_rows, left_key
        probe_rows, probe_key = right_rows, right_key
    else:
        build_rows, build_key = right_rows, right_key
        probe_rows, probe_key = left_rows, left_key

    index: Dict[tuple, list] = {}
    for row, annotation in build_rows:
        index.setdefault(tuple(row[i] for i in build_key), []).append(
            (row, annotation)
        )
    if stats is not None:
        stats.build_size += sum(len(bucket) for bucket in index.values())
        probe_rows = _counted(probe_rows, stats)
    if not index:
        return

    for probe_row, probe_annotation in probe_rows:
        bucket = index.get(tuple(probe_row[i] for i in probe_key))
        if bucket is None:
            continue
        for build_row, build_annotation in bucket:
            if build_is_left:
                yield build_row + tuple(
                    probe_row[i] for i in right_extra
                ), mul(build_annotation, probe_annotation)
            else:
                yield probe_row + tuple(
                    build_row[i] for i in right_extra
                ), mul(probe_annotation, build_annotation)


def join_relations(left: KRelation, right: KRelation) -> KRelation:
    """Natural-join kernel: cost-driven build side, batched accumulation.

    Annotation semantics are Definition 3.2's ``left . right`` regardless of
    which side is indexed.  Equivalent to :func:`repro.algebra.operators.join`
    but works on positional value rows (no intermediate :class:`Tup`
    construction) and combines duplicate-output contributions with one
    ``+``-chain per output tuple.
    """
    if not _trace.enabled():
        return _join_relations(left, right)
    with _trace.span(
        "kernel.join", left_rows=len(left), right_rows=len(right)
    ) as sp:
        result = _join_relations(left, right)
        sp.set(out_rows=len(result))
        return result


def _shared_storage(*relations: KRelation) -> str | None:
    """The backend kernel outputs should use: columnar only when all inputs are."""
    if all(r.storage == "columnar" for r in relations):
        return "columnar"
    return None  # defer to the process-wide default


def _join_relations(left: KRelation, right: KRelation) -> KRelation:
    semiring = require_same_semiring(left, right)
    result_schema = left.schema.join(right.schema)
    out_storage = _shared_storage(left, right)
    if not left or not right:
        return KRelation(semiring, result_schema, storage=out_storage)

    if out_storage == "columnar":
        from repro.engine import vectorized

        result = vectorized.try_join(left, right)
        if result is not None:
            return result

    left_attrs, left_rows = relation_rows(left)
    right_attrs, right_rows = relation_rows(right)
    left_set = set(left_attrs)
    shared = sorted(left_set & set(right_attrs))
    left_key = tuple(left_attrs.index(a) for a in shared)
    right_key = tuple(right_attrs.index(a) for a in shared)
    extra_positions = tuple(
        i for i, a in enumerate(right_attrs) if a not in left_set
    )
    out_attrs = left_attrs + tuple(right_attrs[i] for i in extra_positions)

    groups: Dict[tuple, List[Any]] = {}
    for out_row, value in hash_join_rows(
        semiring.mul,
        left_rows,
        right_rows,
        left_key,
        right_key,
        extra_positions,
        build_is_left=len(left_rows) <= len(right_rows),
    ):
        batch = groups.get(out_row)
        if batch is None:
            groups[out_row] = [value]
        else:
            batch.append(value)
    return build_relation(semiring, out_attrs, groups, result_schema, storage=out_storage)


def project_relation(relation: KRelation, attributes: Iterable[str]) -> KRelation:
    """Projection kernel with batched accumulation of merged tuples."""
    if not _trace.enabled():
        return _project_relation(relation, attributes)
    with _trace.span("kernel.project", in_rows=len(relation)) as sp:
        result = _project_relation(relation, attributes)
        sp.set(out_rows=len(result))
        return result


def _project_relation(relation: KRelation, attributes: Iterable[str]) -> KRelation:
    target_schema = relation.schema.project(attributes)
    out_storage = _shared_storage(relation)
    if out_storage == "columnar":
        from repro.engine import vectorized

        result = vectorized.try_project(relation, tuple(target_schema.attributes))
        if result is not None:
            return result
    attrs, rows = relation_rows(relation)
    keep = tuple(attrs.index(a) for a in sorted(target_schema.attribute_set))
    out_attrs = tuple(attrs[i] for i in keep)
    groups: Dict[tuple, List[Any]] = {}
    for row, annotation in rows:
        key = tuple(row[i] for i in keep)
        batch = groups.get(key)
        if batch is None:
            groups[key] = [annotation]
        else:
            batch.append(annotation)
    return build_relation(
        relation.semiring, out_attrs, groups, target_schema, storage=out_storage
    )
