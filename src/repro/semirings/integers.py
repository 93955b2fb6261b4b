"""The ring of integers ``Z`` and the provenance-polynomial ring ``Z[X]``.

The paper's semirings have no additive inverses, which is fine for one-shot
query evaluation but not for *maintenance*: a deletion from a base relation
must subtract its contributions from every view annotation.  The Z-relations
follow-on line (Green, Ives & Tannen) observes that moving from ``N`` to the
ring ``Z`` (and from ``N[X]`` to ``Z[X]``) makes every update -- insertion
or deletion -- expressible as a *delta relation* whose annotations may be
negative, so the classic bilinear delta rules maintain any positive-algebra
view incrementally (:mod:`repro.incremental`).

``Z`` annotations are plain Python ``int`` values (signed multiplicities);
``Z[X]`` annotations are :class:`ZPolynomial` -- polynomials over the tuple
identifiers with integer coefficients, i.e. formal differences of the
``N[X]`` provenance polynomials of Definition 4.1.  Both structures set
``has_negation`` and implement :meth:`~repro.semirings.base.Semiring.negate`,
the ring capability the incremental layer keys on.

Neither ring is naturally ordered (``a <= b`` always has a witness
``x = b - a``, so the preorder collapses), and neither is omega-continuous:
datalog over ``Z`` is defined only through the finite-derivation fragment.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, Mapping, Tuple

from repro.errors import InvalidAnnotationError, ParseError, SemiringError
from repro.semirings.base import Semiring
from repro.semirings.numeric import NatInf
from repro.semirings.polynomial import Monomial, Polynomial

__all__ = ["IntegerRing", "ZPolynomial", "IntegerPolynomialRing"]


class IntegerRing(Semiring):
    """``(Z, +, ., 0, 1)`` -- signed bag semantics (Z-relations).

    The universal example of a commutative semiring *with* negation: a
    tuple's annotation is a signed multiplicity, and a deletion is just an
    insertion with the negated annotation.
    """

    name = "Z"
    idempotent_add = False
    is_omega_continuous = False
    has_negation = True
    naturally_ordered = False
    vector_carrier = ("int64", "add", "multiply")

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def add(self, a: int, b: int) -> int:
        return a + b

    def mul(self, a: int, b: int) -> int:
        return a * b

    def negate(self, value: int) -> int:
        return -value

    def contains(self, value: Any) -> bool:
        return isinstance(value, int) and not isinstance(value, bool)

    def coerce(self, value: Any) -> int:
        if isinstance(value, bool):
            return 1 if value else 0
        if isinstance(value, NatInf):
            return value.finite_value()
        return self.check(value)

    def from_int(self, n: int) -> int:
        return n


class ZPolynomial:
    """A polynomial over tuple-id variables with integer coefficients.

    The ``Z[X]`` counterpart of :class:`~repro.semirings.polynomial.Polynomial`
    (which carries ``N``/``N-inf`` coefficients and therefore cannot express
    the *differences* deletion propagation needs).  Instances are immutable,
    hashable, and reuse :class:`~repro.semirings.polynomial.Monomial` for the
    variable parts, so conversions to and from ``N[X]`` are term-wise.
    """

    __slots__ = ("_terms",)

    def __init__(
        self, terms: Mapping[Monomial, int] | Iterable[tuple[Monomial, int]] = ()
    ):
        collected: Dict[Monomial, int] = {}
        pairs = terms.items() if isinstance(terms, Mapping) else terms
        for monomial, coefficient in pairs:
            if not isinstance(monomial, Monomial):
                raise InvalidAnnotationError(f"{monomial!r} is not a Monomial")
            if isinstance(coefficient, bool) or not isinstance(coefficient, int):
                raise InvalidAnnotationError(
                    f"{coefficient!r} is not a valid Z[X] coefficient (need int)"
                )
            if coefficient:
                updated = collected.get(monomial, 0) + coefficient
                if updated:
                    collected[monomial] = updated
                else:
                    collected.pop(monomial, None)
        object.__setattr__(
            self, "_terms", tuple(sorted(collected.items(), key=lambda kv: kv[0]))
        )

    # -- constructors ---------------------------------------------------------
    @classmethod
    def zero(cls) -> "ZPolynomial":
        """The zero polynomial."""
        return cls(())

    @classmethod
    def one(cls) -> "ZPolynomial":
        """The unit polynomial ``1``."""
        return cls({Monomial.unit(): 1})

    @classmethod
    def var(cls, name: str) -> "ZPolynomial":
        """The polynomial consisting of the single variable ``name``."""
        return cls({Monomial.var(name): 1})

    @classmethod
    def constant(cls, value: int) -> "ZPolynomial":
        """A constant polynomial."""
        return cls({Monomial.unit(): value})

    @classmethod
    def monomial(cls, monomial: Monomial, coefficient: int = 1) -> "ZPolynomial":
        """A single-term polynomial ``coefficient . monomial``."""
        return cls({monomial: coefficient})

    @classmethod
    def of(cls, value: "ZPolynomial | Polynomial | Monomial | str | int") -> "ZPolynomial":
        """Coerce a variable name, integer, monomial or (N[X]) polynomial."""
        if isinstance(value, ZPolynomial):
            return value
        if isinstance(value, Polynomial):
            terms: Dict[Monomial, int] = {}
            for monomial, coefficient in value.terms:
                if isinstance(coefficient, NatInf):
                    coefficient = coefficient.finite_value()
                terms[monomial] = coefficient
            return cls(terms)
        if isinstance(value, Monomial):
            return cls.monomial(value)
        if isinstance(value, str):
            return cls.of(Polynomial.parse(value))
        if isinstance(value, bool):
            return cls.one() if value else cls.zero()
        if isinstance(value, int):
            return cls.constant(value)
        raise InvalidAnnotationError(f"{value!r} cannot be read as a Z[X] polynomial")

    # -- structure ------------------------------------------------------------
    @property
    def terms(self) -> Tuple[tuple[Monomial, int], ...]:
        """Sorted (monomial, coefficient) pairs with non-zero coefficients."""
        return self._terms

    @property
    def monomials(self) -> tuple[Monomial, ...]:
        """The monomials with non-zero coefficient, in canonical order."""
        return tuple(m for m, _ in self._terms)

    @property
    def variables(self) -> frozenset[str]:
        """All variables occurring in the polynomial."""
        result: set[str] = set()
        for monomial, _ in self._terms:
            result |= monomial.variables
        return frozenset(result)

    @property
    def degree(self) -> int:
        """Total degree (0 for the zero polynomial)."""
        return max((m.degree for m, _ in self._terms), default=0)

    def coefficient(self, monomial: Monomial) -> int:
        """Coefficient of ``monomial`` (0 when absent)."""
        for m, c in self._terms:
            if m == monomial:
                return c
        return 0

    def is_zero(self) -> bool:
        """Whether this is the zero polynomial."""
        return not self._terms

    def to_polynomial(self) -> Polynomial:
        """The ``N[X]`` image, defined only when no coefficient is negative."""
        if any(c < 0 for _, c in self._terms):
            raise SemiringError(
                f"{self} has negative coefficients and is not an N[X] polynomial"
            )
        return Polynomial(dict(self._terms))

    def drop_variables(self, variables: "frozenset[str] | set[str]") -> "ZPolynomial":
        """Specialize ``variables`` to zero: drop every term mentioning one.

        The ring twin of :meth:`Polynomial.drop_variables`, used by the
        provenance-assisted deletion path over ``Z[X]`` annotations.
        """
        return ZPolynomial(
            {m: c for m, c in self._terms if not (m.variables & variables)}
        )

    # -- algebra ---------------------------------------------------------------
    def __add__(self, other: "ZPolynomial | str | int") -> "ZPolynomial":
        other = ZPolynomial.of(other)
        terms: Dict[Monomial, int] = dict(self._terms)
        for monomial, coefficient in other._terms:
            terms[monomial] = terms.get(monomial, 0) + coefficient
        return ZPolynomial(terms)

    __radd__ = __add__

    def __neg__(self) -> "ZPolynomial":
        return ZPolynomial({m: -c for m, c in self._terms})

    def __sub__(self, other: "ZPolynomial | str | int") -> "ZPolynomial":
        return self + (-ZPolynomial.of(other))

    def __rsub__(self, other: "ZPolynomial | str | int") -> "ZPolynomial":
        return ZPolynomial.of(other) + (-self)

    def __mul__(self, other: "ZPolynomial | str | int") -> "ZPolynomial":
        other = ZPolynomial.of(other)
        terms: Dict[Monomial, int] = {}
        for m1, c1 in self._terms:
            for m2, c2 in other._terms:
                monomial = m1 * m2
                terms[monomial] = terms.get(monomial, 0) + c1 * c2
        return ZPolynomial(terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "ZPolynomial":
        if exponent < 0:
            raise SemiringError("polynomials cannot be raised to negative powers")
        result = ZPolynomial.one()
        for _ in range(exponent):
            result = result * self
        return result

    def evaluate(self, semiring: Semiring, valuation: Mapping[str, Any]) -> Any:
        """Evaluate in ``semiring`` under ``valuation``.

        The ``Eval_v`` homomorphism extends from ``N[X]`` to ``Z[X]`` exactly
        when the target has negation, since negative coefficients become
        negated scaled sums; non-negative polynomials evaluate anywhere.
        """
        result = semiring.zero()
        for monomial, coefficient in self._terms:
            value = monomial.evaluate(semiring, valuation)
            result = semiring.add(result, semiring.scale(coefficient, value))
        return result

    # -- protocol --------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, str, Monomial, Polynomial)):
            try:
                other = ZPolynomial.of(other)
            except (InvalidAnnotationError, ParseError, SemiringError):
                return NotImplemented
        if not isinstance(other, ZPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(("ZPolynomial", self._terms))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __iter__(self) -> Iterator[tuple[Monomial, int]]:
        return iter(self._terms)

    def __repr__(self) -> str:
        return f"ZPolynomial({self})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        rendered = ""
        for monomial, coefficient in self._terms:
            sign = "-" if coefficient < 0 else "+"
            magnitude = abs(coefficient)
            if monomial.is_unit():
                part = str(magnitude)
            elif magnitude == 1:
                part = str(monomial)
            else:
                part = f"{magnitude}·{monomial}"
            if not rendered:
                rendered = f"-{part}" if sign == "-" else part
            else:
                rendered += f" {sign} {part}"
        return rendered


class IntegerPolynomialRing(Semiring):
    """``(Z[X], +, ., 0, 1)`` -- provenance polynomials with integer coefficients.

    The most general commutative *ring* generated by the tuple ids: every
    annotation computation in a ring factors through ``Z[X]`` the way every
    semiring computation factors through ``N[X]`` (Proposition 4.2).  This is
    the provenance structure under which deletion propagation is itself an
    annotation computation.
    """

    name = "Z[X]"
    idempotent_add = False
    is_omega_continuous = False
    has_negation = True
    naturally_ordered = False

    def zero(self) -> ZPolynomial:
        return ZPolynomial.zero()

    def one(self) -> ZPolynomial:
        return ZPolynomial.one()

    def add(self, a: ZPolynomial, b: ZPolynomial) -> ZPolynomial:
        return ZPolynomial.of(a) + ZPolynomial.of(b)

    def mul(self, a: ZPolynomial, b: ZPolynomial) -> ZPolynomial:
        return ZPolynomial.of(a) * ZPolynomial.of(b)

    def negate(self, value: ZPolynomial) -> ZPolynomial:
        return -ZPolynomial.of(value)

    def contains(self, value: Any) -> bool:
        return isinstance(value, ZPolynomial)

    def coerce(self, value: Any) -> ZPolynomial:
        return ZPolynomial.of(value)

    def var(self, name: str) -> ZPolynomial:
        """Convenience: the polynomial for a single tuple id / variable."""
        return ZPolynomial.var(name)

    def from_int(self, n: int) -> ZPolynomial:
        return ZPolynomial.constant(n)

    def format_value(self, value: Any) -> str:
        return str(ZPolynomial.of(value))
