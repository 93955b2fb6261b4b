"""Materialized views over K-relations, maintained by delta propagation.

A :class:`MaterializedView` compiles a positive-algebra query into a tree of
operator nodes, each owning the materialized K-relation of its subquery.
Applying an :class:`~repro.incremental.delta.UpdateBatch` propagates
change-valued deltas bottom-up through the tree:

* linear operators (union, projection, selection, renaming) pass the child
  delta through themselves;
* a join node uses the two-term rule ``Δ(L ⋈ R) = ΔL ⋈ R_old ∪ L_new ⋈ ΔR``
  against its children's *materialized* relations, so no subquery is ever
  re-evaluated -- the work per update is proportional to the deltas and the
  tuples they join with, not to the view size.

Every join and projection -- in the initial materialization, in delta
propagation and in the deletion probes -- runs through the physical kernels
of :mod:`repro.engine.kernels` (cost-driven build side, batched annotation
accumulation, whole-column vectorization on columnar stores).  The view
maintains ``query`` as written: it does not run the planner, because
projection pushdown places projections directly over large base relations,
which the deletion pass below then re-scans on every batch.

Subtrees whose base relations are untouched by a batch are skipped
entirely.  Deletions take one of three paths (``last_apply_mode`` records
which ran):

* **ring** semirings (``has_negation``, e.g. ``Z`` or ``Z[X]``): a deletion
  is the negated annotation delta ``-R(t)`` and propagates through the
  ordinary bilinear delta rules (``"incremental"``);
* plain semirings: a **delete/rederive pass** walks the node tree bottom-up
  recomputing only the *affected keys* of each materialization -- removed
  leaf tuples, the union/selection/rename images of changed child tuples,
  the projection groups they collapse into, and for joins the output keys
  reachable from a changed child tuple (found by probing the maintained
  children, each output recomputed in O(1) from the two child annotations)
  (``"delete_rederive"``);
* **bounded recomputation** -- re-evaluating the operator nodes whose
  subtree reads a touched base relation -- remains only as the last-resort
  fallback if the targeted pass fails (``"recompute"``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

from repro.algebra import operators
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
from repro.engine.kernels import join_relations, project_relation
from repro.errors import QueryError
from repro.obs import trace as _trace
from repro.incremental.delta import (
    UpdateBatch,
    apply_batch_to_database,
    apply_delta,
    batch_deltas,
)
from repro.relations.database import Database
from repro.relations.krelation import KRelation
from repro.relations.tuples import Tup

__all__ = ["MaterializedView"]


class _Node:
    """One operator of the compiled view: the query node, children, and the
    materialized K-relation of the subquery rooted here.

    Leaf (``RelationRef``) nodes hold a *private copy* of the base relation:
    each leaf occurrence advances from old to new state exactly when the
    propagation pass reaches it, which is what keeps the two-term join rule
    correct even when the same base relation feeds both sides of a join.
    """

    __slots__ = ("query", "children", "relation", "base_names")

    def __init__(self, query: Query, children: List["_Node"], relation: KRelation):
        self.query = query
        self.children = children
        self.relation = relation
        self.base_names = query.relation_names()


def _build(query: Query, database: Database, storage: str = "row") -> _Node:
    """Compile ``query`` into a node tree, evaluating every subquery once."""
    if isinstance(query, RelationRef):
        return _Node(query, [], database.relation(query.name).with_storage(storage))
    if isinstance(query, EmptyRelation):
        return _Node(query, [], operators.empty(database.semiring, query.schema))
    children = [_build(child, database, storage) for child in query.children()]
    relation = _evaluate_node(query, children, storage)
    return _Node(query, children, relation)


def _evaluate_node(
    query: Query, children: List[_Node], storage: str = "row"
) -> KRelation:
    """Evaluate one operator from its children's materialized relations.

    The materialization is pinned to the view's ``storage`` backend so that
    every node the delta rules read from (leaf copies and operator results
    alike) stays on the backend the caller selected -- this is what lets
    the shared kernels keep taking the vectorized path across repeated
    ``apply`` calls.
    """
    if isinstance(query, Union):
        relation = operators.union(children[0].relation, children[1].relation)
    elif isinstance(query, Project):
        relation = project_relation(children[0].relation, query.attributes)
    elif isinstance(query, Select):
        relation = operators.select(children[0].relation, query.predicate)
    elif isinstance(query, Rename):
        relation = operators.rename(children[0].relation, query.mapping)
    elif isinstance(query, Join):
        relation = join_relations(children[0].relation, children[1].relation)
    else:
        raise QueryError(
            f"cannot materialize query node {type(query).__name__}; "
            "materialized views cover the positive algebra of Definition 3.2"
        )
    if relation.storage != storage:
        relation = relation.with_storage(storage)
    return relation


def _propagate(
    node: _Node,
    deltas: Mapping[str, KRelation],
    changed_out: Dict[Tup, Any] | None = None,
) -> KRelation:
    """Advance ``node`` (and its subtree) to the post-update state.

    Returns the node's change-valued delta.  On entry the subtree holds the
    pre-update materializations; on exit the post-update ones.  When
    ``changed_out`` is given (the root call), it collects the tuples whose
    materialized annotation *actually* changed -- a delta entry that is
    absorbed without effect (idempotent re-insert) is not a change.
    """
    query = node.query
    if not (node.base_names & deltas.keys()):
        return node.relation.empty_like()
    if isinstance(query, RelationRef):
        delta = deltas[query.name]
        applied = apply_delta(node.relation, delta)
        if changed_out is not None:
            changed_out.update(applied)
        return delta
    if isinstance(query, Union):
        delta = operators.union(
            _propagate(node.children[0], deltas), _propagate(node.children[1], deltas)
        )
    elif isinstance(query, Project):
        delta = project_relation(_propagate(node.children[0], deltas), query.attributes)
    elif isinstance(query, Select):
        delta = operators.select(_propagate(node.children[0], deltas), query.predicate)
    elif isinstance(query, Rename):
        delta = operators.rename(_propagate(node.children[0], deltas), query.mapping)
    elif isinstance(query, Join):
        left, right = node.children
        # Two-term bilinear rule: the left child advances first, so the
        # first term joins ΔL with R's *old* relation and the second joins
        # L's *new* relation with ΔR (absorbing the ΔL ⋈ ΔR cross term).
        left_delta = _propagate(left, deltas)
        delta = join_relations(left_delta, right.relation)
        right_delta = _propagate(right, deltas)
        delta = operators.union(delta, join_relations(left.relation, right_delta))
    else:  # pragma: no cover - _build already rejected exotic nodes
        raise QueryError(f"no delta rule for {type(query).__name__}")
    applied = apply_delta(node.relation, delta)
    if changed_out is not None:
        changed_out.update(applied)
    return delta


def _refresh_value(relation: KRelation, tup: Tup, value: Any, semiring) -> bool:
    """Store ``value`` for ``tup`` (``None``/zero = remove); report a change."""
    annotations = relation._annotations
    current = annotations.get(tup)
    if value is None or semiring.is_zero(value):
        if current is None:
            return False
        del annotations[tup]
        return True
    if current is not None and current == value:
        return False
    annotations[tup] = value
    return True


def _delete_rederive(node: _Node, removed: Mapping[str, set], semiring) -> set:
    """Propagate base-relation deletions by recomputing only affected keys.

    ``removed`` maps base relation names to the sets of tuples deleted from
    them (already applied to the database).  Every operator recomputes just
    the keys a changed child tuple can reach: unions, selections and renames
    re-read the one child annotation, projections re-aggregate only the
    groups a changed child tuple collapses into (one scan of the child
    materialization), and joins probe the maintained children for the output
    keys reachable from a changed child tuple, recomputing each in O(1) as
    the product of the two child annotations.  No negation is needed --
    deletion works in every semiring because affected values are recomputed,
    not subtracted.  Returns the node tuples whose materialized annotation
    changed (removed or revalued).
    """
    if not (node.base_names & removed.keys()):
        return set()
    query = node.query
    relation = node.relation
    if isinstance(query, RelationRef):
        affected = set()
        annotations = relation._annotations
        for tup in removed.get(query.name, ()):
            if tup in annotations:
                del annotations[tup]
                affected.add(tup)
        return affected
    if isinstance(query, Union):
        left, right = node.children
        affected = _delete_rederive(left, removed, semiring) | _delete_rederive(
            right, removed, semiring
        )
        changed = set()
        for tup in affected:
            left_value = left.relation._annotations.get(tup)
            right_value = right.relation._annotations.get(tup)
            if left_value is None:
                value = right_value
            elif right_value is None:
                value = left_value
            else:
                value = semiring.add(left_value, right_value)
            if _refresh_value(relation, tup, value, semiring):
                changed.add(tup)
        return changed
    if isinstance(query, Project):
        child = node.children[0]
        child_changed = _delete_rederive(child, removed, semiring)
        if not child_changed:
            return set()
        attributes = tuple(query.attributes)
        keys = {tup.restrict(attributes) for tup in child_changed}
        totals: Dict[Tup, Any] = {}
        for tup, value in child.relation.items():
            key = tup.restrict(attributes)
            if key in keys:
                current = totals.get(key)
                totals[key] = value if current is None else semiring.add(current, value)
        return {
            key
            for key in keys
            if _refresh_value(relation, key, totals.get(key), semiring)
        }
    if isinstance(query, Select):
        child = node.children[0]
        changed = set()
        for tup in _delete_rederive(child, removed, semiring):
            value = child.relation._annotations.get(tup)
            if value is not None:
                value = semiring.mul(
                    value, operators.predicate_factor(semiring, query.predicate(tup))
                )
            if _refresh_value(relation, tup, value, semiring):
                changed.add(tup)
        return changed
    if isinstance(query, Rename):
        child = node.children[0]
        mapping = dict(query.mapping)
        changed = set()
        for tup in _delete_rederive(child, removed, semiring):
            image = tup.rename(mapping)
            value = child.relation._annotations.get(tup)
            if _refresh_value(relation, image, value, semiring):
                changed.add(image)
        return changed
    if isinstance(query, Join):
        left, right = node.children
        left_changed = _delete_rederive(left, removed, semiring)
        right_changed = _delete_rederive(right, removed, semiring)
        # Every output key whose value may have changed joins a changed
        # child tuple with the other side's old state.  Old supports are
        # covered by (new support) ∪ (changed keys) on each side, so three
        # probe joins against the *maintained* children find them all; the
        # probes carry annotation 1 so they only enumerate keys.
        one = semiring.one()
        probes: List[KRelation] = []
        temp_left = temp_right = None
        if left_changed:
            temp_left = KRelation(
                semiring,
                left.relation.schema,
                ((tup, one) for tup in left_changed),
            )
            probes.append(join_relations(temp_left, right.relation))
        if right_changed:
            temp_right = KRelation(
                semiring,
                right.relation.schema,
                ((tup, one) for tup in right_changed),
            )
            probes.append(join_relations(left.relation, temp_right))
        if temp_left is not None and temp_right is not None:
            probes.append(join_relations(temp_left, temp_right))
        affected = set()
        for probe in probes:
            affected.update(probe._annotations)
        left_attributes = left.relation.schema.attributes
        right_attributes = right.relation.schema.attributes
        left_annotations = left.relation._annotations
        right_annotations = right.relation._annotations
        changed = set()
        for tup in affected:
            left_value = left_annotations.get(tup.restrict(left_attributes))
            right_value = right_annotations.get(tup.restrict(right_attributes))
            value = (
                semiring.mul(left_value, right_value)
                if left_value is not None and right_value is not None
                else None
            )
            if _refresh_value(relation, tup, value, semiring):
                changed.add(tup)
        return changed
    raise QueryError(f"no deletion rule for {type(query).__name__}")


def _rebuild(
    node: _Node, database: Database, touched: frozenset[str], storage: str = "row"
) -> None:
    """Bounded recomputation: re-evaluate only subtrees reading ``touched``."""
    if not (node.base_names & touched):
        return
    if isinstance(node.query, RelationRef):
        node.relation = database.relation(node.query.name).with_storage(storage)
        return
    for child in node.children:
        _rebuild(child, database, touched, storage)
    node.relation = _evaluate_node(node.query, node.children, storage)


class MaterializedView:
    """A query result kept up to date under base-relation update streams.

    Parameters
    ----------
    query:
        Any positive-algebra :class:`~repro.algebra.ast.Query`.
    database:
        The database the view reads; :meth:`apply` keeps its base relations
        and the view in sync.
    name:
        Optional label used in ``repr``.
    storage:
        Physical backend for every materialized relation in the node tree
        (``"row"`` or ``"columnar"``; ``None`` defers to ``REPRO_STORAGE``,
        then to the database's own backend).  A columnar view routes its
        join and projection nodes through the whole-column vectorized
        kernels on every delta propagation.  The maintained annotations are
        identical on either backend.

    Usage::

        view = MaterializedView(Q.relation("R").join(Q.relation("S")), db)
        changed = view.apply(UpdateBatch(insertions={"R": [((1, 2), 1)]}))
        view.relation          # the maintained K-relation

    ``apply`` returns the view tuples whose annotation changed, mapped to
    their new annotations (the semiring zero for tuples that left the
    support).
    """

    def __init__(
        self,
        query: Query,
        database: Database,
        *,
        name: str = "view",
        storage: Any = None,
    ):
        self.query = query
        self.database = database
        self.name = name
        from repro.engine.compile import resolve_execution_storage

        #: The resolved physical backend of every materialized node.
        self.storage = resolve_execution_storage(storage, database)
        with _trace.span("view.build", view=name) as sp:
            self._root = _build(query, database, self.storage)
            sp.set(rows=len(self._root.relation))
        #: ``"incremental"``, ``"delete_rederive"`` or ``"recompute"`` -- how
        #: the last :meth:`apply` ran (``None`` before the first apply).
        self.last_apply_mode: str | None = None

    # -- state ------------------------------------------------------------------
    @property
    def relation(self) -> KRelation:
        """The maintained view contents (do not mutate in place)."""
        return self._root.relation

    @property
    def semiring(self):
        """The annotation semiring of the view."""
        return self.database.semiring

    @property
    def supports_deletions(self) -> bool:
        """Whether deletions propagate incrementally (ring annotations)."""
        return self.database.semiring.has_negation

    # -- maintenance -------------------------------------------------------------
    def apply(
        self, batch: UpdateBatch | Mapping[str, Any]
    ) -> Dict[Tup, Any]:
        """Apply an update batch to the base relations and the view.

        Insertions always propagate incrementally.  Batches containing
        deletions propagate as negated deltas when the semiring has negation,
        and through the targeted delete/rederive pass otherwise (bounded
        recomputation remains only as the last-resort fallback).  Returns the
        changed view tuples mapped to their new annotations (zero = removed).
        """
        batch = UpdateBatch.of(batch)
        if batch.is_empty():
            self.last_apply_mode = "incremental"
            return {}
        if batch.has_deletions and not self.supports_deletions:
            with _trace.span(
                "view.apply", view=self.name, mode="delete_rederive"
            ) as sp:
                changed = self._apply_by_delete_rederive(batch)
                sp.set(changed=len(changed), mode=self.last_apply_mode)
                return changed
        with _trace.span("view.apply", view=self.name, mode="incremental") as sp:
            deltas = batch_deltas(self.database, batch)
            apply_batch_to_database(self.database, batch)
            changed: Dict[Tup, Any] = {}
            _propagate(self._root, deltas, changed)
            self.last_apply_mode = "incremental"
            sp.set(changed=len(changed))
            return changed

    def _apply_by_delete_rederive(self, batch: UpdateBatch) -> Dict[Tup, Any]:
        """Targeted deletion pass for semirings without negation.

        Deletions apply first and propagate through :func:`_delete_rederive`
        (affected keys only); insertions then follow the ordinary
        delta-propagation path.  Falls back to bounded recomputation only if
        the targeted pass fails.
        """
        changed: Dict[Tup, Any] = {}
        zero = self.semiring.zero()
        removed: Dict[str, set] = {}
        for name, rows in batch.deletions.items():
            base = self.database.relation(name)
            tups = {
                tup
                for tup in (base._coerce_tuple(row) for row in rows)
                if tup in base._annotations
            }
            if tups:
                removed[name] = tups
        mode = "delete_rederive"
        if removed:
            apply_batch_to_database(
                self.database, UpdateBatch(deletions=batch.deletions)
            )
            old = dict(self._root.relation._annotations)
            try:
                affected = _delete_rederive(self._root, removed, self.semiring)
            except QueryError:
                # Last resort: the database already holds the post-delete
                # state, so bounded recomputation from it is always sound.
                touched = frozenset(removed)
                _rebuild(self._root, self.database, touched, self.storage)
                new = self._root.relation._annotations
                affected = {
                    tup
                    for tup in set(old) | set(new)
                    if old.get(tup) != new.get(tup)
                }
                mode = "recompute"
            annotations = self._root.relation._annotations
            for tup in affected:
                changed[tup] = annotations.get(tup, zero)
        if any(batch.insertions.values()):
            insertions = UpdateBatch(insertions=batch.insertions)
            deltas = batch_deltas(self.database, insertions)
            apply_batch_to_database(self.database, insertions)
            _propagate(self._root, deltas, changed)
        self.last_apply_mode = mode
        return changed

    def _apply_by_recompute(self, batch: UpdateBatch) -> Dict[Tup, Any]:
        touched = batch.touched_relations
        apply_batch_to_database(self.database, batch)
        old = dict(self._root.relation._annotations)
        _rebuild(self._root, self.database, touched, self.storage)
        self.last_apply_mode = "recompute"
        new = self._root.relation._annotations
        zero = self.semiring.zero()
        changed = {tup: value for tup, value in new.items() if old.get(tup) != value}
        changed.update({tup: zero for tup in old if tup not in new})
        return changed

    def refresh(self) -> KRelation:
        """Rebuild the whole view from the database (full recomputation)."""
        self._root = _build(self.query, self.database, self.storage)
        return self._root.relation

    def __repr__(self) -> str:
        return (
            f"MaterializedView({self.name!r}, {self.semiring.name}, "
            f"{len(self._root.relation)} tuples)"
        )
