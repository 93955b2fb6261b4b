"""Algebraic systems of polynomial fixpoint equations (Definition 5.5).

For a datalog program ``q`` and an EDB K-relation ``R``, the paper associates
to every derivable output tuple a variable and equates it with the polynomial
computed by the immediate-consequence operator ``T_q`` on the abstractly
tagged output ``Q-bar``:  ``Q-bar = T_q(R, Q-bar)``.  The least solution of
this system, taken in any commutative omega-continuous semiring, equals the
proof-theoretic annotation of Definition 5.1 (Theorem 5.6).

This module builds that system explicitly.  Every derivable IDB ground atom
gets a variable, every EDB fact gets a variable too (its tuple id), and each
equation is a plain ``N``-polynomial over both variable kinds -- exactly the
shape of Figure 7(f)::

    x = m + y·z        u = r + u·v
    y = n              v = s + v^2
    z = p              w = x·u + w·v

Solving the system in a semiring ``K`` amounts to Kleene iteration of the
polynomial functions under a valuation of the EDB variables into ``K``
(Definition 5.5's least fixpoint), done as chaotic iteration that
re-evaluates only the equations whose right-hand side mentions a changed
variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Mapping

from repro.errors import DatalogError, DivergenceError
from repro.datalog.fixpoint import DEFAULT_MAX_ITERATIONS, check_on_divergence
from repro.datalog.grounding import GroundAtom, GroundProgram, ground_program
from repro.datalog.syntax import Program
from repro.relations.database import Database
from repro.semirings.base import Semiring
from repro.semirings.polynomial import Polynomial

__all__ = ["AlgebraicSystem", "build_algebraic_system"]

@dataclass
class AlgebraicSystem:
    """A system ``x_i = P_i(x_1, ..., x_n)`` of polynomial equations over variables.

    Attributes
    ----------
    ground:
        The grounded program the system was built from.
    idb_variables:
        Maps each derivable IDB ground atom to its equation variable.
    edb_variables:
        Maps each EDB fact to its tuple-id variable.
    equations:
        Maps each IDB variable to its right-hand-side polynomial (an element
        of ``N[edb variables ∪ idb variables]``).
    edb_valuation:
        Maps each EDB variable to the fact's original annotation in the
        source database's semiring.
    """

    ground: GroundProgram
    idb_variables: Dict[GroundAtom, str]
    edb_variables: Dict[GroundAtom, str]
    equations: Dict[str, Polynomial]
    edb_valuation: Dict[str, Any]

    # -- inspection ------------------------------------------------------------
    @property
    def variables(self) -> list[str]:
        """The IDB equation variables, in deterministic order."""
        return [self.idb_variables[atom] for atom in self._ordered_idb_atoms()]

    def _ordered_idb_atoms(self) -> list[GroundAtom]:
        return sorted(self.idb_variables, key=lambda a: (a.relation, tuple(map(str, a.values))))

    def variable_for(self, atom: GroundAtom) -> str:
        """The equation variable of a derivable IDB ground atom."""
        try:
            return self.idb_variables[atom]
        except KeyError:
            raise DatalogError(f"{atom} is not a derivable IDB atom of the system") from None

    def atom_for(self, variable: str) -> GroundAtom:
        """The ground atom an equation variable stands for."""
        for atom, name in self.idb_variables.items():
            if name == variable:
                return atom
        for atom, name in self.edb_variables.items():
            if name == variable:
                return atom
        raise DatalogError(f"unknown system variable {variable!r}")

    def equation(self, variable: str) -> Polynomial:
        """The right-hand-side polynomial of ``variable``."""
        try:
            return self.equations[variable]
        except KeyError:
            raise DatalogError(f"no equation for variable {variable!r}") from None

    def __str__(self) -> str:
        lines = []
        for atom in self._ordered_idb_atoms():
            variable = self.idb_variables[atom]
            lines.append(f"{variable} = {self.equations[variable]}")
        return "\n".join(lines)

    # -- solving -----------------------------------------------------------------
    def solve(
        self,
        semiring: Semiring,
        valuation: Mapping[str, Any] | None = None,
        *,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
        on_divergence: str = "top",
    ) -> Dict[GroundAtom, Any]:
        """Least solution of the system in ``semiring`` (Definition 5.5).

        ``valuation`` maps EDB variables into the target semiring; it defaults
        to coercing the original EDB annotations.  Divergent components (atoms
        with infinitely many derivations) are handled as in
        :mod:`repro.datalog.fixpoint`: ``"top"`` assigns the semiring's top
        element (an error when the semiring has none), ``"error"`` always
        raises, and ``"skip"`` drops the divergent components from the
        solution while keeping the exact values of the convergent ones.

        Each round re-evaluates only the equations whose right-hand side
        mentions a variable that changed in the previous round -- chaotic
        iteration of the monotone operator, which reaches the same least
        solution as round-robin Kleene iteration.
        """
        check_on_divergence(on_divergence)
        if valuation is None:
            valuation = {
                variable: semiring.coerce(value)
                for variable, value in self.edb_valuation.items()
            }
        else:
            valuation = {v: semiring.coerce(x) for v, x in valuation.items()}

        idb_atoms = list(self.idb_variables)
        if semiring.idempotent_add:
            divergent: frozenset[GroundAtom] = frozenset()
        else:
            # The structural divergence analysis must respect the valuation: an
            # EDB fact evaluated to 0 disables every ground rule that uses it,
            # which can break cycles (e.g. setting r = 0 in Figure 7 makes u
            # finite again).
            zero_edb = {
                atom
                for atom, variable in self.edb_variables.items()
                if semiring.is_zero(valuation.get(variable, semiring.zero()))
            }
            divergent = self._divergent_atoms(zero_edb) & set(idb_atoms)
            if divergent and (
                on_divergence == "error"
                or (on_divergence == "top" and not semiring.has_top)
            ):
                raise DivergenceError(
                    f"{len(divergent)} equation(s) diverge in {semiring.name}"
                )

        values: Dict[str, Any] = {
            self.idb_variables[atom]: semiring.zero() for atom in idb_atoms
        }
        # Under "skip" the divergent variables stay at zero during iteration:
        # every rule of a *convergent* head that mentions a divergent atom is
        # necessarily killed by a zero-valued EDB factor (otherwise the head
        # would inherit infinitely many derivations), so the value substituted
        # for the divergent variable never reaches a kept result.
        if on_divergence == "top":
            for atom in divergent:
                values[self.idb_variables[atom]] = semiring.top()
        finite = {
            self.idb_variables[atom] for atom in idb_atoms if atom not in divergent
        }

        rounds = max_iterations
        if not semiring.idempotent_add:
            rounds = min(rounds, len(finite) + 1)

        # Chaotic iteration: each round re-evaluates only the equations that
        # mention a variable changed in the previous round.
        dependents: Dict[str, set[str]] = {}
        for variable in finite:
            for dependency in self.equations[variable].variables & finite:
                dependents.setdefault(dependency, set()).add(variable)
        dirty = finite
        performed = 0
        while dirty:
            if performed >= rounds:
                if semiring.idempotent_add:
                    raise DivergenceError(
                        f"algebraic system did not converge within {rounds} iterations"
                    )
                break
            performed += 1
            assignment = {**valuation, **values}
            next_dirty: set[str] = set()
            for variable in dirty:
                new_value = self.equations[variable].evaluate(semiring, assignment)
                if new_value != values[variable]:
                    values[variable] = new_value
                    next_dirty |= dependents.get(variable, set())
            dirty = next_dirty

        if on_divergence == "skip":
            return {
                atom: values[self.idb_variables[atom]]
                for atom in idb_atoms
                if atom not in divergent
            }
        return {atom: values[self.idb_variables[atom]] for atom in idb_atoms}

    def _divergent_atoms(self, zero_edb: set[GroundAtom]) -> frozenset[GroundAtom]:
        """Atoms with infinitely many derivations, ignoring rules killed by zero EDB facts."""
        if not zero_edb:
            return self.ground.atoms_with_infinite_derivations()
        active_rules = [
            rule
            for rule in self.ground.ground_rules
            if not any(body in zero_edb for body in rule.body)
        ]
        # Derivable atoms under the restricted rule set.
        derivable: set[GroundAtom] = set(self.ground.edb_atoms) - zero_edb
        changed = True
        while changed:
            changed = False
            for rule in active_rules:
                if rule.head in derivable:
                    continue
                if all(body in derivable for body in rule.body):
                    derivable.add(rule.head)
                    changed = True
        # Dependency edges among derivable atoms; cycle atoms and their forward closure.
        forward: Dict[GroundAtom, set[GroundAtom]] = {}
        for rule in active_rules:
            if rule.head not in derivable:
                continue
            if not all(body in derivable for body in rule.body):
                continue
            for body in rule.body:
                forward.setdefault(body, set()).add(rule.head)
        cyclic: set[GroundAtom] = set()
        for start in list(forward):
            # is `start` reachable from itself?
            frontier, seen = list(forward.get(start, ())), set()
            while frontier:
                node = frontier.pop()
                if node == start:
                    cyclic.add(start)
                    break
                if node in seen:
                    continue
                seen.add(node)
                frontier.extend(forward.get(node, ()))
        reachable: set[GroundAtom] = set()
        frontier = list(cyclic)
        while frontier:
            node = frontier.pop()
            if node in reachable:
                continue
            reachable.add(node)
            frontier.extend(forward.get(node, ()))
        return frozenset(reachable & derivable)

    def solve_output(
        self,
        semiring: Semiring,
        valuation: Mapping[str, Any] | None = None,
        **kwargs: Any,
    ) -> Dict[GroundAtom, Any]:
        """Solve and keep only the output predicate's components."""
        solution = self.solve(semiring, valuation, **kwargs)
        output = self.ground.program.output
        return {atom: value for atom, value in solution.items() if atom.relation == output}


def build_algebraic_system(
    program: Program | str,
    database: Database,
    *,
    idb_ids: Mapping[GroundAtom, str] | None = None,
    edb_ids: Mapping[GroundAtom, str] | None = None,
) -> AlgebraicSystem:
    """Construct the algebraic system ``Q-bar = T_q(R, Q-bar)`` (Theorem 5.6).

    ``idb_ids`` / ``edb_ids`` optionally pin variable names to specific ground
    atoms (as the paper does with ``x, y, z, u, v, w`` and ``m, n, p, r, s``
    in Figure 7); unnamed atoms get generated names.
    """
    if isinstance(program, str):
        program = Program.parse(program)
    ground = ground_program(program, database)

    edb_variables: Dict[GroundAtom, str] = {}
    edb_valuation: Dict[str, Any] = {}
    used_names: set[str] = set(dict(edb_ids or {}).values()) | set(dict(idb_ids or {}).values())
    counter = 1
    for atom in sorted(ground.edb_atoms, key=lambda a: (a.relation, tuple(map(str, a.values)))):
        name = (edb_ids or {}).get(atom)
        if name is None:
            name, counter = _fresh_name("t", counter, used_names)
        edb_variables[atom] = name
        edb_valuation[name] = ground.edb_annotation(atom)

    idb_variables: Dict[GroundAtom, str] = {}
    counter = 1
    for atom in sorted(ground.idb_atoms, key=lambda a: (a.relation, tuple(map(str, a.values)))):
        name = (idb_ids or {}).get(atom)
        if name is None:
            name, counter = _fresh_name("q", counter, used_names)
        idb_variables[atom] = name

    overlap = set(edb_variables.values()) & set(idb_variables.values())
    if overlap:
        raise DatalogError(f"variable names used for both EDB and IDB atoms: {sorted(overlap)}")

    equations: Dict[str, Polynomial] = {}
    for atom in ground.idb_atoms:
        total = Polynomial.zero()
        for rule in ground.rules_with_head(atom):
            product = Polynomial.one()
            for body_atom in rule.body:
                if ground.is_edb(body_atom):
                    product = product * Polynomial.var(edb_variables[body_atom])
                else:
                    product = product * Polynomial.var(idb_variables[body_atom])
            total = total + product
        equations[idb_variables[atom]] = total

    return AlgebraicSystem(
        ground=ground,
        idb_variables=idb_variables,
        edb_variables=edb_variables,
        equations=equations,
        edb_valuation=edb_valuation,
    )


def _fresh_name(prefix: str, counter: int, used: set[str]) -> tuple[str, int]:
    while f"{prefix}{counter}" in used:
        counter += 1
    name = f"{prefix}{counter}"
    used.add(name)
    return name, counter + 1
