"""Exact-rational evaluation of fixed-point-ratio bound tables.

Each table row carries exact values u <= v (counts of a class inside the
point stabilizer, and a lower bound on the class size); the certified sum
is sum of multiplicity * v * (u/v)^c, compared against 1 with no floating
point anywhere.  Fractional powers q^(a/b) appearing in the source
estimates are evaluated exactly when integral, and otherwise rounded in
the only safe direction: numerator-side powers round up, class-size
bounds round down, so the total can only grow.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import CertificationError
from .fq import factor_prime_power


class Term(NamedTuple):
    label: str
    u: Fraction
    v: Fraction
    multiplicity: int = 1


class BoundTermTable(NamedTuple):
    family: str
    q: int
    terms: tuple
    gamma: int = 0


class QhatValue(NamedTuple):
    value: Fraction
    certified: bool  # value < 1


class EmptyTable(ValueError):
    pass


def evaluate_qhat(table: BoundTermTable, c: int) -> QhatValue:
    """Exact sum of multiplicity * v * (u/v)^c = mult * u^c / v^(c-1)."""
    if c < 1:
        raise ValueError("c must be a positive integer")
    active = [t for t in table.terms if t.multiplicity > 0]
    if not active:
        raise EmptyTable("no active terms")
    total = Fraction(0)
    for t in active:
        total += t.multiplicity * Fraction(t.u) ** c / Fraction(t.v) ** (c - 1)
    return QhatValue(total, total < 1)


def _iroot(x: int, k: int) -> int:
    """Floor of the k-th root of a nonnegative integer."""
    if x < 0:
        raise ValueError("negative radicand")
    if x in (0, 1) or k == 1:
        return x
    hi = 1
    while hi**k <= x:
        hi *= 2
    lo = hi // 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if mid**k <= x:
            lo = mid
        else:
            hi = mid
    return lo

def pow_floor(q: int, a: int, b: int) -> int:
    """Largest integer <= q^(a/b)."""
    return _iroot(q**a, b)


def pow_ceil(q: int, a: int, b: int) -> int:
    """Smallest integer >= q^(a/b)."""
    r = _iroot(q**a, b)
    return r if r**b == q**a else r + 1


def ceil_log2(q: int) -> int:
    return (q - 1).bit_length()


def _check_terms(terms):
    for t in terms:
        if not 0 < t.u <= t.v:
            raise CertificationError(f"entries of {t.label} not in 0 < u <= v")
    return terms


def g2_subfield_terms(q: int) -> BoundTermTable:
    """Index-two subfield stabilizer table for the rank-2 exceptional
    family: 8 always-on rows (the long-root row doubled) plus 3 rows
    switched on at q >= 64 for field automorphisms of odd prime order."""
    p, f = factor_prime_power(q)
    if f % 2 or q < 9:
        raise ValueError("q must be a square prime power, at least 9")
    gamma = 1 if q >= 2**6 else 0
    r = pow_ceil(q, 1, 2)  # exact: q is a square
    if r * r != q:
        raise CertificationError(f"square root of {q} is not exact")
    terms = [
        Term("invol_inner", q**2 * (q**2 + q + 1), q**4 * (q**4 + q**2 + 1)),
        Term("long_root", q**3 - 1, q**6 - 1, multiplicity=2),
        Term("short_root", q * (q**3 - 1), q**2 * (q**6 - 1)),
        Term("unipotent_rest", q**6, Fraction(q**10, 7)),
        Term("ss_rank2_centralizer", r**3 * (r**3 + 1), q**3 * (q**3 - 1)),
        Term(
            "ss_rank1_centralizer",
            2 * q**3 * (r + 1) * (q**2 + q + 1),
            q**5 * (q - 1) * (q**4 + q**2 + 1),
        ),
        Term(
            "ss_regular",
            q**3 * (q - 1) * (q**3 - 1),
            q**6 * (q - 1) * (q**3 - 1) * (q**2 - q + 1),
        ),
        Term("field_invol", 2 * (r + 1) * r**7, q**3 * (q**3 + 1) * (q + 1)),
        Term(
            "field_ord3",
            4 * pow_ceil(q, 14, 3),
            Fraction(pow_floor(q, 28, 3), 2),
            multiplicity=gamma,
        ),
        Term(
            "field_ord5",
            8 * pow_ceil(q, 28, 5),
            Fraction(pow_floor(q, 56, 5), 2),
            multiplicity=gamma,
        ),
        Term(
            "field_ord7plus",
            2 * ceil_log2(q) * q**7,
            Fraction(q**12, 2),
            multiplicity=gamma,
        ),
    ]
    _check_terms([t for t in terms if t.multiplicity])
    return BoundTermTable("g2_subfield_k2", q, tuple(terms), gamma)


def sp4_subfield_terms(q: int) -> BoundTermTable:
    """Index-two subfield stabilizer table for the 4-dimensional
    symplectic family in even characteristic, q >= 64 (7 rows, first
    doubled)."""
    p, f = factor_prime_power(q)
    if p != 2 or q < 2**6:
        raise ValueError("q must be an even prime power, at least 64")
    e = f  # log2 q, exact
    terms = [
        Term("invol_b1_a2", q**2 - 1, q**4 - 1, multiplicity=2),
        Term("invol_c2", (q - 1) * (q**2 - 1), (q**2 - 1) * (q**4 - 1)),
        Term(
            "ss_regular",
            q**2 * (q - 1) * (q**2 - 1),
            q**4 * (q - 1) ** 2 * (q**2 + 1),
        ),
        Term(
            "ss_nonregular",
            e * q**2 * (q + 1) * (pow_ceil(q, 1, 2) + 1),
            q**3 * (q**2 + 1) * (q - 1),
        ),
        Term("field_invol", q * (q**2 + q - 1), q**2 * (q + 1) * (q**2 + 1)),
        Term(
            "field_odd_order",
            2 * e * pow_ceil(q, 10, 3),
            Fraction(pow_floor(q, 20, 3), 2),
        ),
    ]
    _check_terms(terms)
    return BoundTermTable("sp4_even_subfield", q, tuple(terms))


def o10_plus_imprimitive_terms(q: int) -> BoundTermTable:
    """Two-row table for the 10-dimensional plus-type orthogonal family
    acting on a sum of five plus-type 2-spaces, q >= 8."""
    factor_prime_power(q)
    if q < 8:
        raise ValueError("q must be at least 8")
    terms = [
        Term(
            "bulk_small_classes",
            ceil_log2(q) * 2**5 * (q - 1) ** 5 * 120,
            q**14,
        ),
        Term("reflection_like", 5 * (q - 1), Fraction(q**9, 4)),
    ]
    _check_terms(terms)
    return BoundTermTable("o10plus_c2", q, tuple(terms))


FAMILY_BUILDERS = {
    "g2": g2_subfield_terms,
    "sp4": sp4_subfield_terms,
    "o10": o10_plus_imprimitive_terms,
}

