"""Differential property tests: the semi-naive engine against the naive oracle.

The naive Kleene iteration over the grounded program
(:func:`strategies.naive_fixpoint`, the paper's Definition 5.5) is the
reference; the semi-naive engine behind ``evaluate_program`` must agree with
it annotation-for-annotation on every program, database and semiring.  This
suite drives both with randomized programs and EDB databases from
``tests/strategies.py`` over every registry semiring the engine supports,
including the non-idempotent provenance semirings where the semi-naive
engine takes its collect-then-topological path.  The provenance paths are
checked against their own oracles: All-Trees for the series, Kleene
iteration of the re-annotated grounding for circuits and the algebraic
system.

``on_divergence="skip"`` is used throughout so the same property holds for
semirings without a top element (``N``, ``N[X]``, circuits): both sides
must then also agree on *which* atoms they skipped.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from strategies import REGISTRY_SEMIRING_NAMES, naive_fixpoint, programs_with_databases

from repro.circuits import CircuitSemiring, to_polynomial
from repro.datalog import (
    Program,
    all_trees,
    build_algebraic_system,
    datalog_circuit_provenance,
    datalog_provenance,
    evaluate,
    evaluate_on_lattice,
    evaluate_program,
    ground_program,
    lattice_condition_provenance,
    solve_ground,
)
from repro.probabilistic import ProbabilisticDatabase
from repro.relations.database import Database
from repro.semirings import FormalPowerSeries, Polynomial, get_semiring

DIFFERENTIAL_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _comparable(semiring, value):
    """Map an annotation to a canonical comparable form.

    Circuits are compared by the polynomial they denote: the two engines may
    sum a head's rule contributions in different orders, which yields
    semantically equal but structurally distinct DAGs.
    """
    if semiring.name == "Circ[X]":
        return to_polynomial(value)
    return value


def _assert_engines_agree(semiring, naive, seminaive):
    assert naive.divergent_atoms == seminaive.divergent_atoms
    atoms = set(naive.annotations) | set(seminaive.annotations)
    zero = semiring.zero()
    for atom in atoms:
        left = naive.annotations.get(atom, zero)
        right = seminaive.annotations.get(atom, zero)
        assert _comparable(semiring, left) == _comparable(semiring, right), (
            f"{atom}: naive={semiring.format_value(left)} "
            f"seminaive={semiring.format_value(right)}"
        )


@pytest.mark.parametrize("semiring_name", REGISTRY_SEMIRING_NAMES)
@given(data=st.data())
@DIFFERENTIAL_SETTINGS
def test_engines_agree_on_random_programs(semiring_name, data):
    """Same annotations, same skipped atoms, on every registry semiring."""
    program, database = data.draw(programs_with_databases(semiring_name))
    naive = naive_fixpoint(program, database, on_divergence="skip")
    seminaive = evaluate_program(program, database, on_divergence="skip")
    _assert_engines_agree(database.semiring, naive, seminaive)


@given(data=st.data())
@DIFFERENTIAL_SETTINGS
def test_engines_agree_under_top_assignment(data):
    """Under ``on_divergence="top"`` both engines pin the same atoms to ∞."""
    program, database = data.draw(programs_with_databases("natinf"))
    naive = naive_fixpoint(program, database, on_divergence="top")
    seminaive = evaluate_program(program, database, on_divergence="top")
    _assert_engines_agree(database.semiring, naive, seminaive)


@given(data=st.data())
@settings(
    max_examples=15,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_provenance_series_agree(data):
    """The exact series are All-Trees' polynomials; the rest are proper series."""
    program, database = data.draw(programs_with_databases("bag"))
    provenance = datalog_provenance(program, database, truncation_degree=3)
    trees = all_trees(program, database, edb_ids=provenance.edb_ids)
    assert set(provenance.series) == set(trees.polynomials) | trees.infinite
    for atom, polynomial in trees.polynomials.items():
        assert provenance.series[atom] == FormalPowerSeries.from_polynomial(
            polynomial
        ), str(atom)
    for atom in trees.infinite:
        assert not provenance.series[atom].is_exact, str(atom)


@given(data=st.data())
@settings(
    max_examples=15,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_circuit_provenance_agrees(data):
    """Circuit provenance equals Kleene iteration of the circuit-tagged grounding."""
    program, database = data.draw(programs_with_databases("bag"))
    provenance = datalog_provenance(program, database, provenance="circuit")
    circ = CircuitSemiring()
    ground = ground_program(program, database)
    naive = solve_ground(
        ground.reannotate(
            {atom: circ.var(provenance.edb_ids[atom]) for atom in ground.edb_atoms}
        ),
        circ,
        on_divergence="skip",
    )
    assert naive.divergent_atoms == provenance.divergent
    expected = {
        atom: circuit
        for atom, circuit in naive.annotations.items()
        if not circ.is_zero(circuit)
    }
    assert set(expected) == set(provenance.circuits)
    for atom, circuit in expected.items():
        # Hash-consing makes structural equality an identity check.
        assert provenance.circuits[atom] is circuit, str(atom)


@pytest.mark.parametrize("semiring_name", ["bool", "natinf", "tropical"])
@given(data=st.data())
@settings(
    max_examples=15,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_algebraic_system_worklist_agrees(semiring_name, data):
    """AlgebraicSystem.solve's dependency-aware worklist matches the naive fixpoint."""
    program, database = data.draw(programs_with_databases(semiring_name))
    system = build_algebraic_system(program, database)
    solution = system.solve(database.semiring, on_divergence="skip")
    assert solution == naive_fixpoint(program, database, on_divergence="skip").annotations


_ENTRY_POINTS = {
    "evaluate_program": lambda p, db, pdb: evaluate_program(p, db, engine="naive"),
    "evaluate": lambda p, db, pdb: evaluate(p, db, engine="naive"),
    "datalog_provenance": lambda p, db, pdb: datalog_provenance(p, db, engine="naive"),
    "datalog_circuit_provenance": lambda p, db, pdb: datalog_circuit_provenance(
        p, db, engine="naive"
    ),
    "AlgebraicSystem.solve": lambda p, db, pdb: build_algebraic_system(p, db).solve(
        db.semiring, engine="naive"
    ),
    "lattice_condition_provenance": lambda p, db, pdb: lattice_condition_provenance(
        p, db, engine="naive"
    ),
    "evaluate_on_lattice": lambda p, db, pdb: evaluate_on_lattice(p, db, engine="naive"),
    "datalog_events": lambda p, db, pdb: pdb.datalog_events(p, engine="naive"),
    "datalog_probabilities": lambda p, db, pdb: pdb.datalog_probabilities(
        p, engine="naive"
    ),
    "datalog_top_k": lambda p, db, pdb: pdb.datalog_top_k(p, 1, engine="naive"),
}


@pytest.mark.parametrize("entry_point", sorted(_ENTRY_POINTS))
def test_no_entry_point_takes_an_engine_keyword(entry_point):
    """Every datalog entry point runs the semi-naive engine; none forks on
    ``engine=``.  The naive iteration is reachable only as the oracle
    ``solve_ground(ground_program(...))``."""
    database = Database(get_semiring("bool"))
    database.create("R", ["x", "y"], [("a", "b")])
    pdb = ProbabilisticDatabase()
    pdb.add_relation("R", ["x", "y"], [(("a", "b"), "e1", 0.5)])
    program = Program.parse("Q(x, y) :- R(x, y)")
    with pytest.raises(TypeError, match="unexpected keyword argument 'engine'"):
        _ENTRY_POINTS[entry_point](program, database, pdb)


def test_polynomial_annotations_match_all_trees_shape():
    """Spot check: N[X] fixpoint annotations are genuine polynomials."""
    database = Database(get_semiring("nx"))
    database.create(
        "R",
        ["x", "y"],
        [
            (("a", "b"), Polynomial.var("p")),
            (("b", "c"), Polynomial.var("r")),
        ],
    )
    program = Program.parse("Q(x, y) :- R(x, y)\nQ(x, y) :- R(x, z), Q(z, y)")
    result = evaluate_program(program, database)
    relation = result.output_relation(database)
    assert relation[("a", "c")] == Polynomial.var("p") * Polynomial.var("r")
