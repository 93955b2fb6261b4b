"""Grounding (instantiation) of datalog programs over a database.

The *instantiation* of a datalog query (the paper uses the term in
Theorem 6.5) is the set of ground rules obtained by substituting constants
for variables in all ways that make every body atom derivable.  The grounded
program is the common substrate for all the evaluation algorithms in this
package: the fixpoint engine, the algebraic-system construction
(Definition 5.5), derivation-tree enumeration, All-Trees (Figure 8),
Monomial-Coefficient (Figure 9), and the finiteness analysis (Theorem 6.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Set, Tuple

from repro.errors import GroundingError
from repro.datalog.syntax import Program, Rule
from repro.logic import Atom, Constant, Variable, unify_ground
from repro.relations.database import Database
from repro.relations.tuples import Tup

__all__ = [
    "GroundAtom",
    "GroundRule",
    "GroundProgram",
    "ground_program",
    "collect_edb_annotations",
]


@dataclass(frozen=True)
class GroundAtom:
    """A ground relational atom: a relation name and a tuple of constant values."""

    relation: str
    values: Tuple[Any, ...]

    def __str__(self) -> str:
        return f"{self.relation}({', '.join(map(str, self.values))})"


@dataclass(frozen=True)
class GroundRule:
    """A fully instantiated rule: ground head, ground body, originating rule index.

    The body is an ordered tuple (the same atom may appear twice, e.g. when
    ``Q(x,y) :- Q(x,z), Q(z,y)`` is instantiated with ``x = z = y``), which is
    essential for counting derivations correctly under bag semantics.
    """

    head: GroundAtom
    body: Tuple[GroundAtom, ...]
    rule_index: int

    def is_unit(self, idb_predicates: FrozenSet[str]) -> bool:
        """Whether this is a grounded *unit rule*: single IDB body atom."""
        return len(self.body) == 1 and self.body[0].relation in idb_predicates

    def __str__(self) -> str:
        return f"{self.head} :- {', '.join(str(a) for a in self.body)}"


class GroundProgram:
    """The instantiation of a program over a database, plus analysis helpers."""

    def __init__(
        self,
        program: Program,
        database: Database,
        ground_rules: List[GroundRule],
        edb_annotations: Dict[GroundAtom, Any],
        derivable: Set[GroundAtom],
    ):
        self.program = program
        self.database = database
        self.ground_rules = tuple(ground_rules)
        self.edb_annotations = dict(edb_annotations)
        self.derivable = frozenset(derivable)
        self._rules_by_head: Dict[GroundAtom, list[GroundRule]] = {}
        for rule in self.ground_rules:
            self._rules_by_head.setdefault(rule.head, []).append(rule)

    # -- basic accessors --------------------------------------------------------
    @property
    def idb_atoms(self) -> frozenset[GroundAtom]:
        """Derivable ground atoms of IDB predicates."""
        idb = self.program.idb_predicates
        return frozenset(a for a in self.derivable if a.relation in idb)

    @property
    def edb_atoms(self) -> frozenset[GroundAtom]:
        """Ground atoms backed by database facts (non-zero annotation)."""
        return frozenset(self.edb_annotations)

    def rules_with_head(self, atom: GroundAtom) -> list[GroundRule]:
        """Grounded rules whose head is ``atom``."""
        return self._rules_by_head.get(atom, [])

    def output_atoms(self) -> frozenset[GroundAtom]:
        """Derivable atoms of the program's output predicate."""
        return frozenset(
            a for a in self.derivable if a.relation == self.program.output
        )

    def is_edb(self, atom: GroundAtom) -> bool:
        """Whether the atom belongs to an extensional predicate."""
        return atom.relation in self.program.edb_predicates

    def edb_annotation(self, atom: GroundAtom) -> Any:
        """The database annotation of an EDB ground atom."""
        try:
            return self.edb_annotations[atom]
        except KeyError:
            raise GroundingError(f"{atom} is not a known EDB fact") from None

    # -- dependency analysis -------------------------------------------------------
    def dependency_edges(self) -> Iterator[tuple[GroundAtom, GroundAtom]]:
        """Edges ``body atom -> head atom`` of the grounded dependency graph."""
        for rule in self.ground_rules:
            for body_atom in rule.body:
                yield body_atom, rule.head

    def atoms_on_cycles(self, *, unit_rules_only: bool = False) -> frozenset[GroundAtom]:
        """IDB atoms lying on a cycle of the grounded dependency graph.

        With ``unit_rules_only`` the graph is restricted to grounded unit
        rules (single IDB body atom), which is the analysis of Theorem 6.5;
        otherwise all grounded rules contribute edges, which characterizes the
        atoms with infinitely many derivation trees.
        """
        idb = self.program.idb_predicates
        edges: Dict[GroundAtom, set[GroundAtom]] = {}
        for rule in self.ground_rules:
            if unit_rules_only and not rule.is_unit(idb):
                continue
            for body_atom in rule.body:
                if body_atom.relation in idb:
                    edges.setdefault(body_atom, set()).add(rule.head)
        components = _strongly_connected_components(edges)
        cyclic: set[GroundAtom] = set()
        for component in components:
            if len(component) > 1:
                cyclic.update(component)
            else:
                (atom,) = component
                if atom in edges.get(atom, ()):
                    cyclic.add(atom)
        return frozenset(cyclic)

    def atoms_with_infinite_derivations(self) -> frozenset[GroundAtom]:
        """Derivable atoms possessing infinitely many derivation trees.

        An atom has infinitely many derivation trees exactly when it is
        (transitively) derivable *from* an atom that lies on a cycle of the
        grounded dependency graph (all of whose rules only use derivable
        atoms).  This is the structural fact behind the termination argument
        of All-Trees and behind the ∞ entries in Figure 7(b).
        """
        cyclic = self.atoms_on_cycles()
        if not cyclic:
            return frozenset()
        forward: Dict[GroundAtom, set[GroundAtom]] = {}
        for source, target in self.dependency_edges():
            forward.setdefault(source, set()).add(target)
        reachable: set[GroundAtom] = set()
        frontier = list(cyclic)
        while frontier:
            current = frontier.pop()
            if current in reachable:
                continue
            reachable.add(current)
            frontier.extend(forward.get(current, ()))
        return frozenset(reachable & self.derivable)

    def reannotate(self, edb_annotations: Mapping[GroundAtom, Any]) -> "GroundProgram":
        """A copy of this grounding with the EDB facts annotated differently.

        The provenance paths use this to re-run the same instantiation under
        an abstract tagging (circuit variables, polynomial variables, ...)
        without grounding a second time.  ``edb_annotations`` must cover every
        EDB fact of this grounding.
        """
        missing = self.edb_atoms - set(edb_annotations)
        if missing:
            raise GroundingError(
                f"reannotation is missing values for {len(missing)} EDB fact(s)"
            )
        return GroundProgram(
            self.program,
            self.database,
            list(self.ground_rules),
            {atom: edb_annotations[atom] for atom in self.edb_atoms},
            set(self.derivable),
        )

    def atoms_with_unit_rule_cycles(self) -> frozenset[GroundAtom]:
        """Atoms involved in (or reachable from) a cycle of grounded unit rules.

        Theorem 6.5: the provenance series of an output tuple stays in
        ``N[[X]]`` (all coefficients finite) iff the tuple is not part of such
        a cycle's downstream.
        """
        cyclic = self.atoms_on_cycles(unit_rules_only=True)
        if not cyclic:
            return frozenset()
        forward: Dict[GroundAtom, set[GroundAtom]] = {}
        for source, target in self.dependency_edges():
            forward.setdefault(source, set()).add(target)
        reachable: set[GroundAtom] = set()
        frontier = list(cyclic)
        while frontier:
            current = frontier.pop()
            if current in reachable:
                continue
            reachable.add(current)
            frontier.extend(forward.get(current, ()))
        return frozenset(reachable & self.derivable)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"GroundProgram({len(self.ground_rules)} ground rules, "
            f"{len(self.derivable)} derivable atoms)"
        )


def ground_program(program: Program, database: Database) -> GroundProgram:
    """Instantiate ``program`` over ``database``.

    The EDB facts are the support tuples of the database relations named by
    the program's EDB predicates.  Derivable IDB atoms are computed by a
    Boolean bottom-up fixpoint (Proposition 5.4 guarantees this is the right
    support for every omega-continuous semiring); the ground rules are then
    all rule instantiations whose body atoms are derivable.
    """
    edb_annotations = collect_edb_annotations(program, database)

    # Boolean bottom-up fixpoint for the derivable atoms.
    known: Set[GroundAtom] = set(edb_annotations)
    by_relation: Dict[str, set[Tuple[Any, ...]]] = {}
    for atom in known:
        by_relation.setdefault(atom.relation, set()).add(atom.values)

    changed = True
    while changed:
        changed = False
        new_atoms: Set[GroundAtom] = set()
        for rule in program.rules:
            for assignment in _match_body(rule, by_relation):
                head_values = _instantiate(rule.head, assignment)
                head_atom = GroundAtom(rule.head.relation, head_values)
                if head_atom not in known and head_atom not in new_atoms:
                    new_atoms.add(head_atom)
        if new_atoms:
            changed = True
            for head_atom in new_atoms:
                known.add(head_atom)
                by_relation.setdefault(head_atom.relation, set()).add(head_atom.values)

    # Final pass: collect every grounded rule over the derivable atoms.
    ground_rules: List[GroundRule] = []
    seen: Set[tuple] = set()
    for index, rule in enumerate(program.rules):
        for assignment in _match_body(rule, by_relation):
            head_atom = GroundAtom(rule.head.relation, _instantiate(rule.head, assignment))
            body_atoms = tuple(
                GroundAtom(atom.relation, _instantiate(atom, assignment))
                for atom in rule.body
            )
            key = (index, head_atom, body_atoms)
            if key in seen:
                continue
            seen.add(key)
            ground_rules.append(GroundRule(head_atom, body_atoms, index))

    return GroundProgram(program, database, ground_rules, edb_annotations, known)


def collect_edb_annotations(program: Program, database: Database) -> Dict[GroundAtom, Any]:
    """Read the program's EDB facts out of ``database`` as annotated ground atoms.

    Validates that every EDB predicate names a database relation of the right
    arity -- the shared input contract of the semi-naive engine and the
    reference solver.
    """
    edb_annotations: Dict[GroundAtom, Any] = {}
    for predicate in program.edb_predicates:
        if predicate not in database:
            raise GroundingError(
                f"program uses EDB predicate {predicate!r} but the database has no such relation"
            )
        relation = database.relation(predicate)
        if len(relation.schema) != program.arity(predicate):
            raise GroundingError(
                f"relation {predicate!r} has arity {len(relation.schema)}, "
                f"program expects {program.arity(predicate)}"
            )
        attributes = relation.schema.attributes
        for tup, annotation in relation.items():
            atom = GroundAtom(predicate, tup.values_for(attributes))
            edb_annotations[atom] = annotation
    return edb_annotations


def _instantiate(atom: Atom, assignment: Mapping[Variable, Any]) -> Tuple[Any, ...]:
    values = []
    for term in atom.terms:
        if isinstance(term, Constant):
            values.append(term.value)
        else:
            values.append(assignment[term])
    return tuple(values)


def _match_body(
    rule: Rule, by_relation: Mapping[str, set[Tuple[Any, ...]]]
) -> Iterator[Dict[Variable, Any]]:
    """Enumerate variable assignments matching every body atom against known facts."""

    def extend(assignment: Dict[Variable, Any], index: int) -> Iterator[Dict[Variable, Any]]:
        if index == len(rule.body):
            yield assignment
            return
        atom = rule.body[index]
        for values in by_relation.get(atom.relation, ()):
            extended = unify_ground(atom, values, assignment)
            if extended is not None:
                yield from extend(extended, index + 1)

    yield from extend({}, 0)


def _strongly_connected_components(
    edges: Mapping[GroundAtom, set[GroundAtom]]
) -> list[set[GroundAtom]]:
    """Iterative Tarjan SCC over the (small) grounded dependency graph."""
    index_counter = 0
    indices: Dict[GroundAtom, int] = {}
    lowlink: Dict[GroundAtom, int] = {}
    on_stack: Set[GroundAtom] = set()
    stack: List[GroundAtom] = []
    components: list[set[GroundAtom]] = []
    nodes = set(edges)
    for targets in edges.values():
        nodes |= targets

    for root in nodes:
        if root in indices:
            continue
        work: List[tuple[GroundAtom, Iterator[GroundAtom]]] = [
            (root, iter(edges.get(root, ())))
        ]
        indices[root] = lowlink[root] = index_counter
        index_counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for successor in successors:
                if successor not in indices:
                    indices[successor] = lowlink[successor] = index_counter
                    index_counter += 1
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(edges.get(successor, ()))))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], indices[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == indices[node]:
                component: set[GroundAtom] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(component)
    return components
