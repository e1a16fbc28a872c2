import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minbase.fq import (
    Field,
    Fq,
    _digits,
    _poly_mulmod,
    all_vectors,
    bilinear,
    factor_prime_power,
    frobenius_subspace,
    mat_vec,
    nullspace,
    subspace_canonical,
)
from oracles import gram_matrix, prime_powers


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 25, 27, 49])
def test_field_axioms_sampled(q):
    F = Fq(q)
    rng = random.Random(q)
    for _ in range(300):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert F.add[a][b] == F.add[b][a]
        assert F.mul[a][b] == F.mul[b][a]
        assert F.mul[a][F.add[b][c]] == F.add[F.mul[a][b]][F.mul[a][c]]
        assert F.add[F.add[a][b]][c] == F.add[a][F.add[b][c]]
        assert F.mul[F.mul[a][b]][c] == F.mul[a][F.mul[b][c]]
    for a in range(1, q):
        assert F.mul[a][F.inv[a]] == 1


@pytest.mark.parametrize("q", [4, 8, 9, 25, 27, 243, 256])
def test_frobenius_automorphism(q):
    F = Fq(q)
    for a in range(q):
        for b in range(q):
            assert F.frob[F.add[a][b]] == F.add[F.frob[a]][F.frob[b]]
            assert F.frob[F.mul[a][b]] == F.mul[F.frob[a]][F.frob[b]]
    # order of frobenius = extension degree
    x = F.mu
    k = 1
    y = F.frob[x]
    while y != x:
        y = F.frob[y]
        k += 1
    assert k == F.f


def element_order(F, x):
    """Multiplicative order of a nonzero field code."""
    k, acc = 1, x
    while acc != 1:
        acc = F.mul[acc][x]
        k += 1
    return k


@pytest.mark.parametrize("q", [3, 5, 9, 25, 27, 49])
def test_generator_order(q):
    F = Fq(q)
    assert element_order(F, F.mu) == q - 1


def _encode(coeffs, p):
    return sum(c * p**i for i, c in enumerate(coeffs))


def _oracle_power(mul, x, k):
    """x^k by square and multiply, for any product mul(x, y) of codes."""
    result = 1
    while k:
        if k & 1:
            result = mul(result, x)
        x = mul(x, x)
        k >>= 1
    return result


def _oracle_generator(q, mul):
    """The smallest x with x^((q-1)/r) != 1 for every prime r | q-1."""
    primes = [r for r in range(2, q) if (q - 1) % r == 0
              and all(r % d for d in range(2, r))]
    return next(x for x in range(1, q)
                if all(_oracle_power(mul, x, (q - 1) // r) != 1 for r in primes))


def _poly_product(q, modulus):
    """The field product of two codes by one polynomial product each,
    modulo the field's modulus (its search is pinned by
    test_modulus_deterministic)."""
    p, f = factor_prime_power(q)
    modulus = list(modulus)
    return lambda x, y: _encode(_poly_mulmod(_digits(x, p, f), _digits(y, p, f),
                                             modulus, p), p)


def _digit_sum(q):
    p, f = factor_prime_power(q)
    return lambda x, y: _encode([(a + b) % p for a, b in
                                 zip(_digits(x, p, f), _digits(y, p, f))], p)


def oracle_field(q, modulus):
    """The q^2 construction over the given modulus: every sum digit by
    digit and every product by one polynomial product, with mu found by
    prime-divisor tests."""
    p, _ = factor_prime_power(q)
    add_of, mul_of = _digit_sum(q), _poly_product(q, modulus)
    add = [[add_of(x, y) for y in range(q)] for x in range(q)]
    mul = [[mul_of(x, y) for y in range(q)] for x in range(q)]

    def table_mul(x, y):
        return mul[x][y]

    return {
        "mu": _oracle_generator(q, table_mul),
        "add": add,
        "mul": mul,
        "neg": [row.index(0) for row in add],
        "inv": [0] + [mul[x].index(1) for x in range(1, q)],
        "frob": [_oracle_power(table_mul, x, p) for x in range(q)],
    }


@pytest.mark.parametrize("q", prime_powers(1, 128))
def test_field_tables_match_the_quadratic_oracle(q):
    F = Field(q)
    for name, value in oracle_field(q, F.modulus).items():
        assert getattr(F, name) == value, name


@pytest.mark.parametrize("q", prime_powers(128, 512))
def test_large_field_tables_match_products_and_digit_sums(q):
    F, p = Field(q), factor_prime_power(q)[0]
    mul_of, add_of = _poly_product(q, F.modulus), _digit_sum(q)
    assert F.mu == _oracle_generator(q, mul_of)
    rng = random.Random(q)
    for _ in range(2000):
        x, y = rng.randrange(q), rng.randrange(q)
        assert F.mul[x][y] == mul_of(x, y)
        assert F.add[x][y] == add_of(x, y)
    assert F.inv[0] == 0
    assert all(mul_of(x, F.inv[x]) == 1 for x in range(1, q))
    assert all(add_of(x, F.neg[x]) == 0 for x in range(q))
    assert F.frob == [_oracle_power(mul_of, x, p) for x in range(q)]


def test_modulus_deterministic():
    assert Fq(9).modulus == (1, 0, 1)  # x^2 + 1, smallest irreducible mod 3
    assert Fq(4).modulus == (1, 1, 1)  # x^2 + x + 1


def test_factor_prime_power():
    assert factor_prime_power(27) == (3, 3)
    assert factor_prime_power(7) == (7, 1)
    with pytest.raises(ValueError):
        factor_prime_power(12)


def _oracle_factor_prime_power(q):
    """Oracle: trial division by every p up to q itself."""
    for p in range(2, q + 1):
        if q % p == 0:
            f = 0
            while q % p == 0:
                q //= p
                f += 1
            if q != 1:
                raise ValueError("not a prime power")
            return p, f
    raise ValueError("not a prime power")


def _factor_or_none(factor, q):
    try:
        return factor(q)
    except ValueError:
        return None


def test_factor_prime_power_matches_trial_division_to_q():
    for q in range(5001):
        assert (_factor_or_none(factor_prime_power, q)
                == _factor_or_none(_oracle_factor_prime_power, q)), q


def test_rref_canonical_under_row_ops():
    F = Fq(5)
    rng = random.Random(3)
    base = [(1, 2, 0, 4), (0, 1, 1, 1)]
    canon = subspace_canonical(F, base)
    for _ in range(40):
        # random invertible combinations spanning the same plane
        a, b, c, d = (rng.randrange(5) for _ in range(4))
        if (a * d - b * c) % 5 == 0:
            continue
        v1 = tuple(F.add[F.mul[a][x]][F.mul[b][y]] for x, y in zip(*base))
        v2 = tuple(F.add[F.mul[c][x]][F.mul[d][y]] for x, y in zip(*base))
        assert subspace_canonical(F, [v1, v2]) == canon


def test_gram_and_bilinear():
    F = Fq(3)
    form = ((0, 1), (1, 0))
    assert bilinear(F, form, (1, 0), (0, 1)) == 1
    assert bilinear(F, form, (1, 0), (1, 0)) == 0
    g = gram_matrix(F, form, [(1, 0), (0, 1)])
    assert g == form


def test_frobenius_subspace_fixes_prime_field_spans():
    F = Fq(9)
    W = subspace_canonical(F, [(1, 0, 1, 0), (0, 1, 0, 2)])
    assert frobenius_subspace(F, W) == W
    # but moves a span with a non-prime-field coordinate
    mu = F.mu
    W2 = subspace_canonical(F, [(1, mu, 0, 0), (0, 0, 1, 0)])
    assert frobenius_subspace(F, W2) != W2


@st.composite
def _linear_systems(draw):
    """(q, ncols, rows): up to 4 rows over F_q with q^ncols <= 3000."""
    q = draw(st.sampled_from([2, 3, 4, 5, 9]))
    ncols = draw(st.integers(1, max(n for n in range(1, 12) if q**n <= 3000)))
    row = st.lists(st.integers(0, q - 1), min_size=ncols, max_size=ncols)
    return q, ncols, draw(st.lists(row, max_size=4))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_linear_systems())
def test_nullspace_matches_enumerated_kernel(system):
    q, ncols, rows = system
    F = Fq(q)
    zero = (0,) * len(rows)
    kernel = [v for v in all_vectors(F, ncols) if mat_vec(F, rows, v) == zero]
    basis = nullspace(F, rows, ncols)
    assert all(mat_vec(F, rows, v) == zero for v in basis)
    assert len(subspace_canonical(F, basis)) == len(basis)  # independent
    # independent vectors inside the kernel span q^k of its elements
    assert q ** len(basis) == len(kernel)
