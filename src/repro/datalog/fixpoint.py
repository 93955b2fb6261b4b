"""Fixpoint evaluation of datalog on K-relations (Section 5).

Definition 5.1 gives the proof-theoretic semantics -- the annotation of an
output tuple is the (possibly infinite) sum, over all its derivation trees,
of the product of the leaf annotations -- and Theorem 5.6 shows it coincides
with the least solution of the algebraic system ``Q-bar = T_q(R, Q-bar)``.
So every strategy that reaches the least fixpoint computes the same
annotations, and :func:`evaluate_program` has one: the delta-driven engine
of :mod:`repro.datalog.seminaive`.

This module holds what that engine shares with the definitional reference:
the result type, the immediate-consequence operator ``T_q``, the divergence
policy, and :func:`solve_ground` -- Kleene iteration of ``T_q`` over a
grounded program, exactly Definition 5.5.  ``solve_ground(ground_program(p,
db), db.semiring)`` is the oracle the differential tests compare the engine
against.

Termination strategy
--------------------
* For semirings with **idempotent addition** (all the lattices, tropical,
  fuzzy, Viterbi, why-provenance) the iteration is monotone in the natural
  order and reaches the fixpoint after finitely many rounds; a configurable
  ``max_iterations`` guards against pathological cases.
* For semirings with **non-idempotent addition** (``N``, ``N-inf``,
  ``N[X]``, power series) the annotation of a tuple converges iff the tuple
  has finitely many derivation trees.  The atoms with infinitely many
  derivations are those reachable from a cycle of the grounded dependency
  graph (the same analysis All-Trees relies on); the remaining atoms form an
  acyclic sub-program whose values converge within one round per atom.
  Atoms with infinitely many derivations get the semiring's top element
  (``infinity`` in ``N-inf``, reproducing Figure 7(b)); if the semiring has
  no top the evaluation raises :class:`DivergenceError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Mapping

from repro.errors import DivergenceError
from repro.datalog.grounding import GroundAtom, GroundProgram
from repro.datalog.syntax import Program
from repro.relations.database import Database
from repro.relations.krelation import KRelation
from repro.relations.schema import Schema
from repro.relations.tuples import Tup
from repro.semirings.base import Semiring

__all__ = [
    "DatalogResult",
    "evaluate_program",
    "evaluate",
    "immediate_consequence",
    "solve_ground",
]

#: Hard ceiling on Kleene rounds for idempotent semirings (safety net only).
DEFAULT_MAX_ITERATIONS = 10_000


@dataclass
class DatalogResult:
    """Result of a datalog evaluation.

    Attributes
    ----------
    annotations:
        Final annotation of every derivable IDB ground atom.
    iterations:
        Number of Kleene rounds performed.
    divergent_atoms:
        Atoms whose annotation was set to the semiring's top element because
        they have infinitely many derivation trees (empty for idempotent
        semirings).
    ground:
        The grounded program the evaluation ran on (useful for inspecting the
        instantiation, e.g. in tests of Theorem 6.5).  Caveat: for idempotent
        semirings :func:`evaluate_program` never materializes the
        instantiation (that is where its speed comes from), so its result's
        ``ground`` carries the derivable atoms and EDB annotations but an
        **empty rule list**; call
        :func:`~repro.datalog.grounding.ground_program` when the ground rules
        themselves are needed.
    """

    annotations: Dict[GroundAtom, Any]
    iterations: int
    divergent_atoms: frozenset[GroundAtom]
    ground: GroundProgram
    _relations: Dict[str, KRelation] = field(default_factory=dict, repr=False)

    def relation(self, predicate: str, database: Database) -> KRelation:
        """Materialize the annotations of ``predicate`` as a K-relation."""
        if predicate in self._relations:
            return self._relations[predicate]
        semiring = database.semiring
        arity = self.ground.program.arity(predicate)
        if predicate in database:
            schema = database.relation(predicate).schema
        else:
            head_names = self.ground.program.head_attributes(predicate)
            schema = Schema(head_names or [f"c{i + 1}" for i in range(arity)])
        relation = KRelation(semiring, schema)
        for atom, annotation in self.annotations.items():
            if atom.relation != predicate or semiring.is_zero(annotation):
                continue
            relation.set(Tup.from_values(schema.attributes, atom.values), annotation)
        self._relations[predicate] = relation
        return relation

    def output_relation(self, database: Database) -> KRelation:
        """The K-relation of the program's output predicate."""
        return self.relation(self.ground.program.output, database)


def immediate_consequence(
    ground: GroundProgram,
    semiring: Semiring,
    current: Mapping[GroundAtom, Any],
    *,
    atoms: Iterable[GroundAtom] | None = None,
) -> Dict[GroundAtom, Any]:
    """One application of the annotated immediate-consequence operator ``T_q``.

    For every (selected) derivable IDB atom, the new annotation is the sum
    over its grounded rules of the product of the body annotations, where EDB
    atoms contribute their database annotation and IDB atoms contribute their
    ``current`` value.  This is exactly how the paper turns ``T_q`` into the
    right-hand sides of the algebraic system (Definition 5.5).
    """
    zero = semiring.zero()
    selected = ground.idb_atoms if atoms is None else atoms
    updated: Dict[GroundAtom, Any] = {}
    for atom in selected:
        total = zero
        for rule in ground.rules_with_head(atom):
            product = semiring.one()
            for body_atom in rule.body:
                if ground.is_edb(body_atom):
                    value = ground.edb_annotations.get(body_atom, zero)
                else:
                    value = current.get(body_atom, zero)
                product = semiring.mul(product, value)
                if semiring.is_zero(product):
                    break
            total = semiring.add(total, product)
        updated[atom] = total
    return updated


def evaluate_program(
    program: Program | str,
    database: Database,
    *,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    on_divergence: str = "top",
    storage: Any = None,
) -> DatalogResult:
    """Evaluate ``program`` over ``database`` in the database's semiring.

    ``on_divergence`` controls what happens to atoms with infinitely many
    derivation trees when the semiring's addition is not idempotent:

    * ``"top"`` (default) -- assign the semiring's top element (requires one);
    * ``"error"`` -- raise :class:`DivergenceError`;
    * ``"skip"`` -- drop the divergent atoms from the result, keeping the
      (exact) annotations of the acyclic remainder.  Useful for provenance
      representations such as ``N[X]`` polynomials or circuits that have no
      top element: a finite atom never depends on a divergent one (any
      derivation of it through a divergent atom would itself be one of
      infinitely many), so the kept annotations are unaffected.  The skipped
      atoms are reported in ``DatalogResult.divergent_atoms``.

    The program runs on the delta-driven engine of
    :mod:`repro.datalog.seminaive`; its annotations equal those of the
    Definition 5.5 Kleene iteration (:func:`solve_ground` over
    :func:`~repro.datalog.grounding.ground_program`).  For idempotent
    semirings the result's ``ground`` carries no rule instantiations (see
    :attr:`DatalogResult.ground`).

    ``storage`` selects the physical backend of the engine's per-predicate
    stores (``"row"`` or ``"columnar"``; ``None`` defers to
    ``REPRO_STORAGE``, then to the database's own backend).  A columnar
    backend additionally engages whole-column round batching for linear
    recursions over vectorizable semirings.
    """
    from repro.datalog.seminaive import start_engine

    check_on_divergence(on_divergence)
    if isinstance(program, str):
        program = Program.parse(program)
    engine, rounds = start_engine(
        program, database, max_iterations=max_iterations, storage=storage
    )
    return engine.result(
        rounds, max_iterations=max_iterations, on_divergence=on_divergence
    )


def check_on_divergence(on_divergence: str) -> None:
    """Reject an unknown ``on_divergence`` policy before any work is done."""
    if on_divergence not in ("top", "error", "skip"):
        raise ValueError(
            f"on_divergence must be 'top', 'error' or 'skip', got {on_divergence!r}"
        )


def classify_divergence(
    ground: GroundProgram, semiring: Semiring, on_divergence: str
) -> tuple[frozenset[GroundAtom], set[GroundAtom]]:
    """Split the derivable IDB atoms into ``(divergent, finite)`` sets.

    The single place both ground solvers apply the divergence policy:
    validates ``on_divergence``, classifies nothing as divergent under
    idempotent addition, and otherwise raises :class:`DivergenceError` when
    divergent atoms exist but the policy (or the semiring's lack of a top
    element) cannot absorb them.
    """
    check_on_divergence(on_divergence)
    idb_atoms = ground.idb_atoms
    if semiring.idempotent_add:
        return frozenset(), set(idb_atoms)
    divergent = ground.atoms_with_infinite_derivations() & idb_atoms
    finite = set(idb_atoms) - divergent
    if divergent:
        if on_divergence == "error" or (
            on_divergence == "top" and not semiring.has_top
        ):
            raise DivergenceError(
                f"{len(divergent)} tuple(s) have infinitely many derivations and "
                f"{semiring.name} cannot represent the infinite sum "
                "(use an ω-continuous semiring with a top element, e.g. N∞, "
                "or on_divergence='skip' to keep only the convergent atoms)"
            )
    return divergent, finite


def solve_ground(
    ground: GroundProgram,
    semiring: Semiring,
    *,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    on_divergence: str = "top",
) -> DatalogResult:
    """Kleene-solve an already-grounded program in ``semiring`` (Definition 5.5).

    Round after round applies :func:`immediate_consequence` to every
    convergent atom until nothing changes -- the definitional reference.
    ``solve_ground(ground_program(program, database), database.semiring)``
    is the oracle for :func:`evaluate_program`, and
    :func:`~repro.datalog.seminaive.solve_ground_seminaive` is its fast
    counterpart for callers that already hold a grounding.
    ``ground.edb_annotations`` must already be elements of ``semiring``.
    """
    divergent, finite_atoms = classify_divergence(ground, semiring, on_divergence)

    values: Dict[GroundAtom, Any] = {atom: semiring.zero() for atom in finite_atoms}
    # Under "top", divergent atoms are pinned to top from the start so that
    # finite atoms depending on them (impossible by construction, but
    # harmless) see the correct value; under "skip" they are absent and read
    # as zero, which finite atoms never observe for the same reason.
    if divergent and on_divergence == "top":
        top = semiring.top()
        for atom in divergent:
            values[atom] = top

    iterations = 0
    # For non-idempotent semirings the finite sub-program is acyclic, so
    # |finite atoms| + 1 rounds always suffice; idempotent semirings iterate
    # until stability.
    if not semiring.idempotent_add:
        max_iterations = min(max_iterations, len(finite_atoms) + 1)

    while iterations < max_iterations:
        iterations += 1
        updated = immediate_consequence(ground, semiring, values, atoms=finite_atoms)
        changed = False
        for atom, value in updated.items():
            if value != values[atom]:
                values[atom] = value
                changed = True
        if not changed:
            break
    else:
        if semiring.idempotent_add:
            raise DivergenceError(
                f"datalog evaluation over {semiring.name} did not converge within "
                f"{max_iterations} iterations"
            )

    return DatalogResult(
        annotations=values,
        iterations=iterations,
        divergent_atoms=divergent,
        ground=ground,
    )


def evaluate(
    program: Program | str,
    database: Database,
    *,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    on_divergence: str = "top",
) -> KRelation:
    """Convenience wrapper: evaluate and return the output predicate's K-relation."""
    if isinstance(program, str):
        program = Program.parse(program)
    result = evaluate_program(
        program,
        database,
        max_iterations=max_iterations,
        on_divergence=on_divergence,
    )
    return result.output_relation(database)
