import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minbase.fq import (
    Fq,
    all_vectors,
    bilinear,
    factor_prime_power,
    frobenius_subspace,
    mat_vec,
    nullspace,
    subspace_canonical,
)


def gram_matrix(F, form, vectors):
    """The matrix of the form's values on every pair of the vectors."""
    return tuple(tuple(bilinear(F, form, u, v) for v in vectors) for u in vectors)


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


@pytest.mark.parametrize("q", [4, 8, 9, 25, 27])
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


def test_modulus_deterministic():
    assert Fq(9).modulus == (1, 0, 1)  # x^2 + 1, smallest irreducible mod 3
    assert Fq(4).modulus == (1, 1, 1)  # x^2 + x + 1


def test_factor_prime_power():
    assert factor_prime_power(27) == (3, 3)
    assert factor_prime_power(7) == (7, 1)
    with pytest.raises(ValueError):
        factor_prime_power(12)


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
