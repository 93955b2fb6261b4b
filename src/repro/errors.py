"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised intentionally by the library derive from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming errors such as :class:`TypeError`.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SemiringError",
    "InvalidAnnotationError",
    "SchemaError",
    "QueryError",
    "DatalogError",
    "GroundingError",
    "DivergenceError",
    "ContainmentError",
    "ParseError",
    "SerializationError",
]


class ReproError(Exception):
    """Base class for every error raised by the library."""


class SemiringError(ReproError):
    """A semiring was constructed or used incorrectly."""


class InvalidAnnotationError(SemiringError):
    """An annotation value does not belong to the semiring's carrier set."""


class SchemaError(ReproError):
    """Schemas of relations are incompatible with the requested operation."""


class QueryError(ReproError):
    """A relational-algebra query is malformed or cannot be evaluated."""


class DatalogError(ReproError):
    """A datalog program is malformed or cannot be evaluated."""


class GroundingError(DatalogError):
    """A datalog program could not be instantiated over the given database."""


class DivergenceError(DatalogError):
    """A fixpoint computation does not converge in the chosen semiring.

    Raised only when the caller requests strict behaviour; by default the
    engine represents divergent annotations with the semiring's infinity
    when one exists.
    """


class ContainmentError(ReproError):
    """A containment test was requested for unsupported query classes."""


class ParseError(ReproError):
    """Textual input (datalog rules, conjunctive queries) failed to parse."""


class SerializationError(ReproError):
    """A value cannot cross a process boundary (pickle round-trip).

    Raised instead of :class:`pickle.PicklingError` when the library can
    tell *why* the value does not serialize -- e.g. an
    :class:`~repro.algebra.predicates.OpaquePredicate` wrapping a lambda or
    local closure -- so the caller sees an actionable message naming the
    structured-predicate alternative.
    """
