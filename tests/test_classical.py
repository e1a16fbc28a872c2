import itertools
import random

import pytest

from minbase import classical
from minbase.classical import (
    BudgetError,
    OrthPairReport,
    Sp4PairReport,
    _line_points,
    _matrix_perm,
    _orth_factor,
    _orth_pair_join,
    _reflections,
    _sp4_pair_systems,
    _sp4_point,
    isometry_group_elements,
    orth_odd_construct,
    orth_odd_pair_check,
    perm_matrix,
    sp4_pair_stabilizer,
    sp4_similitude_check,
    sp4_triple_base_check,
)
from minbase.errors import CertificationError
from minbase.fq import (
    Fq,
    all_vectors,
    bilinear,
    frobenius_subspace,
    mat_det,
    mat_identity,
    mat_transpose,
    mat_vec,
    nullspace,
    subspace_canonical,
    vector_code,
)
from oracles import (
    gram_matrix,
    mat_mul,
    oracle_sp4_pair_systems,
    oracle_sp4_similitude_check,
    prime_powers,
    sp4_form,
)


_U_PRIME = ((1, 0, 0, 0), (0, 1, 0, 1))
_W_PRIME = ((1, 0, 0, 1), (0, 1, 1, 0))


def _in_uprime(v):
    # U' = <e1, e2+f2> = {(s, t, 0, t)}
    return v[2] == 0 and v[3] == v[1]


def _in_wprime(v):
    # W' = <e1+f2, e2+f1> = {(s, t, t, s)}
    return v[2] == v[1] and v[3] == v[0]


def _fixes_pair(F, g):
    iu = [mat_vec(F, g, v) for v in _U_PRIME]
    iw = [mat_vec(F, g, v) for v in _W_PRIME]
    same = all(_in_uprime(v) for v in iu) and all(_in_wprime(v) for v in iw)
    swap = all(_in_wprime(v) for v in iu) and all(_in_uprime(v) for v in iw)
    return same or swap


def _sp4_block(F, A, lam, shape):
    """diag(A, lam*A^-T) (shape 0) or the swapped shape [[0, lam*A^-T], [A, 0]]."""
    (a, b), (c, d) = A
    di = F.inv[F.sub(F.mul[a][d], F.mul[b][c])]
    # A^-T = (1/det) [[d, -c], [-b, a]]
    L = tuple(
        tuple(F.mul[lam][F.mul[x][di]] for x in row)
        for row in ((d, F.neg[c]), (F.neg[b], a))
    )
    z = ((0, 0), (0, 0))
    tl, tr, bl, br = (A, z, z, L) if shape == 0 else (z, L, A, z)
    return tuple(tl[i] + tr[i] for i in range(2)) + tuple(bl[i] + br[i] for i in range(2))


def sp4_pair_enumeration(q):
    """Oracle: every similitude diag(A, t*A^-T) or of the swapped shape,
    A in GL2(q), t nonzero, kept when it fixes {U', W'} setwise; returns
    (candidates enumerated, survivors in enumeration order)."""
    F = Fq(q)
    candidates, survivors = 0, []
    for a, b, c, d in itertools.product(range(q), repeat=4):
        if F.sub(F.mul[a][d], F.mul[b][c]) == 0:
            continue
        for shape in (0, 1):
            candidates += q - 1
            # the image of e1 does not depend on lambda: cut early
            img_e1 = (a, c, 0, 0) if shape == 0 else (0, 0, a, c)
            if not (_in_uprime(img_e1) or _in_wprime(img_e1)):
                continue
            for lam in range(1, q):
                g = _sp4_block(F, ((a, b), (c, d)), lam, shape)
                if _fixes_pair(F, g):
                    survivors.append(g)
    return candidates, survivors


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13])
def test_sp4_pair_solve_matches_enumeration(q):
    candidates, survivors = sp4_pair_enumeration(q)
    rep = sp4_pair_stabilizer(q)
    assert rep.candidates == candidates
    assert rep.survivors == sorted(survivors)


def sp4_pair_all_points(q):
    """Oracle: the similitude check on every point of each of the four
    nullspaces, not one point per line."""
    F = Fq(q)
    survivors = set()
    for basis in _sp4_pair_systems(F):
        for coeffs in all_vectors(F, len(basis)):
            g = _sp4_point(F, coeffs, basis)
            if sp4_similitude_check(F, g):
                survivors.add(g)
    scalars = {tuple(tuple(lam if i == j else 0 for j in range(4)) for i in range(4))
               for lam in range(1, q)}
    gl2 = (q * q - 1) * (q * q - q)
    return Sp4PairReport(2 * gl2 * (q - 1), sorted(survivors), survivors == scalars)


@pytest.mark.parametrize("q", [5, 7, 9, 13, 25, 27])
def test_sp4_pair_one_point_per_line_matches_all_points(q):
    assert sp4_pair_stabilizer(q) == sp4_pair_all_points(q)


def test_sp4_pair_rechecks_every_multiple(monkeypatch):
    # a check that holds on no multiple but the line's point itself
    monkeypatch.setattr(classical, "sp4_similitude_check",
                        lambda F, g: sp4_similitude_check(F, g) and g[0][0] == 1)
    with pytest.raises(CertificationError):
        sp4_pair_stabilizer(5)


def _sp4_block_similitude(F, rng, anti):
    """A random similitude of block shape diag(A, lam A^-T), or that
    times J when anti: J is a similitude with multiplier 1."""
    while True:
        a, b, c, d = (rng.randrange(F.q) for _ in range(4))
        det = F.sub(F.mul[a][d], F.mul[b][c])
        if det:
            break
    lam = rng.randrange(1, F.q)
    s = F.mul[lam][F.inv[det]]  # lam A^-T = s [[d, -c], [-b, a]]
    g = ((a, b, 0, 0), (c, d, 0, 0),
         (0, 0, F.mul[s][d], F.mul[s][F.neg[c]]), (0, 0, F.mul[s][F.neg[b]], F.mul[s][a]))
    return mat_mul(F, sp4_form(F), g) if anti else g


@pytest.mark.parametrize("q", [5, 7, 9, 13, 25, 27])
def test_sp4_similitude_check_matches_the_matrix_products(q):
    F = Fq(q)
    rng = random.Random(q)
    scalars = [tuple(tuple(lam if i == j else 0 for j in range(4)) for i in range(4))
               for lam in range(q)]
    similitudes = [_sp4_block_similitude(F, rng, anti) for anti in (False, True)
                   for _ in range(20)]
    assert all(sp4_similitude_check(F, g) for g in similitudes)
    singular = [((0,) * 4,) * 4]
    for _ in range(40):  # a repeated or a zero row
        g = [tuple(rng.randrange(q) for _ in range(4)) for _ in range(3)]
        g.insert(rng.randrange(4), rng.choice(g + [(0,) * 4]))
        singular.append(tuple(g))
    perturbed = []
    for g in scalars + similitudes:
        i, j = rng.randrange(4), rng.randrange(4)
        m = [list(r) for r in g]
        m[i][j] = F.add[m[i][j]][rng.randrange(1, q)]
        perturbed.append(tuple(map(tuple, m)))
    rand = [tuple(tuple(rng.randrange(q) for _ in range(4)) for _ in range(4))
            for _ in range(200)]
    for g in scalars + similitudes + singular + perturbed + rand:
        assert sp4_similitude_check(F, g) == oracle_sp4_similitude_check(F, g), g


@pytest.mark.parametrize("q", [q for q in prime_powers(4, 243) if q % 2])
def test_sp4_pair_systems_match_the_16_unknown_solve(q):
    F = Fq(q)
    assert list(_sp4_pair_systems(F)) == list(oracle_sp4_pair_systems(F))


@pytest.mark.parametrize("q, k", [(3, 1), (5, 2), (9, 3)])
def test_line_points_meet_every_line_once(q, k):
    F = Fq(q)
    points = list(_line_points(F, k))
    assert len(points) == (q**k - 1) // (q - 1)
    lines = {frozenset(tuple(F.mul[lam][x] for x in p) for lam in range(1, q))
             for p in points}
    assert len(lines) == len(points)
    assert set().union(*lines) == {v for v in all_vectors(F, k) if any(v)}


@pytest.mark.parametrize("q", [5, 7, 9])
def test_sp4_pair_stabilizer_is_scalars(q):
    rep = sp4_pair_stabilizer(q)
    assert rep.scalars_only
    assert len(rep.survivors) == q - 1
    F = Fq(q)
    assert mat_identity(4) in rep.survivors
    # survivors preserve the form up to a scalar and close under product
    for g in rep.survivors:
        assert sp4_similitude_check(F, g)
    surv = set(rep.survivors)
    for g in surv:
        for h in surv:
            assert mat_mul(F, g, h) in surv


def test_sp4_pair_candidate_count():
    # 2 * |GL2(q)| * (q-1) candidates
    q = 5
    rep = sp4_pair_stabilizer(q)
    gl2 = (q**2 - 1) * (q**2 - q)
    assert rep.candidates == 2 * gl2 * (q - 1)


def test_sp4_rejects_bad_q():
    with pytest.raises(BudgetError):
        sp4_pair_stabilizer(4)
    with pytest.raises(BudgetError):
        sp4_pair_stabilizer(3)
    with pytest.raises(BudgetError):
        sp4_triple_base_check(7)  # prime field: nothing to check


def test_sp4_triple_q9():
    rep = sp4_triple_base_check(9)
    assert rep.verdict
    assert rep.phi_fixes_alpha and rep.phi_fixes_beta
    assert rep.phi_moves_gamma == [True]


def test_sp4_triple_q27():
    rep = sp4_triple_base_check(27)
    assert rep.verdict
    assert rep.phi_moves_gamma == [True, True]


def witt_index(F, form, basis):
    """Witt index of the restriction of the form to span(basis), by
    iterated hyperbolic splitting (exhaustive isotropic search)."""
    basis = list(subspace_canonical(F, basis))
    if len(basis) == 0:
        return 0
    if F.q ** len(basis) > 10**6:
        raise BudgetError("Witt-index search budget exceeded")
    # coordinates relative to the basis; work with the restricted Gram
    gram = gram_matrix(F, form, basis)
    return _witt_index_gram(F, gram)


def _witt_index_gram(F, gram):
    d = len(gram)
    if d == 0:
        return 0
    iso = None
    for v in all_vectors(F, d):
        if any(v) and bilinear(F, gram, v, v) == 0:
            iso = v
            break
    if iso is None:
        return 0
    partner = None
    for w in all_vectors(F, d):
        if bilinear(F, gram, iso, w) != 0:
            partner = w
            break
    if partner is None:
        raise CertificationError("degenerate restriction")
    c = bilinear(F, gram, iso, partner)
    partner = tuple(F.mul[F.inv[c]][x] for x in partner)
    ww = bilinear(F, gram, partner, partner)
    half = F.mul[ww][F.inv[2 % F.q]]
    partner = tuple(
        F.sub(a, F.mul[half][b]) for a, b in zip(partner, iso)
    )
    # complement: vectors orthogonal to both, inside the span (the form is
    # symmetric, so v's constraint row is gram * v)
    rows = nullspace(F, [mat_vec(F, gram, v) for v in (iso, partner)], d)
    sub_gram = tuple(
        tuple(bilinear(F, gram, u, v) for v in rows) for u in rows
    )
    return 1 + _witt_index_gram(F, sub_gram)


def is_nondegenerate(F, form, basis):
    return mat_det(F, gram_matrix(F, form, basis)) != 0


def is_plus_type(F, form, basis):
    """A nondegenerate 2k-space is plus-type iff its Witt index is k."""
    k2 = len(basis)
    if k2 % 2:
        raise ValueError("type is defined for even-dimensional spaces")
    return witt_index(F, form, list(basis)) == k2 // 2


def test_orth_construct_7_3_shapes():
    cons = orth_odd_construct(7, 3)
    F = Fq(3)
    assert len(cons.U) == 4 and len(cons.W) == 4 and len(cons.W_prime) == 4
    for space in (cons.U, cons.W, cons.W_prime):
        assert is_nondegenerate(F, cons.form, list(space))
        assert is_plus_type(F, cons.form, list(space))
    # U and W are not complements: they share a line
    both = subspace_canonical(F, list(cons.U) + list(cons.W))
    assert len(both) < 8


def test_orth_construct_9_3_shapes():
    cons = orth_odd_construct(9, 3)
    F = Fq(3)
    assert len(cons.U) == 4 and len(cons.W) == 4
    for space in (cons.U, cons.W, cons.W_prime):
        assert is_nondegenerate(F, cons.form, list(space))
        assert is_plus_type(F, cons.form, list(space))


def test_w_prime_differs_by_mu_scaling_only():
    cons = orth_odd_construct(7, 3)
    assert cons.W != cons.W_prime
    cons91 = orth_odd_construct(9, 3)
    assert cons91.W != cons91.W_prime


def test_phi_fixes_u_w_and_moves_w_prime():
    cons = orth_odd_construct(7, 9)
    F = Fq(9)
    assert frobenius_subspace(F, cons.U) == cons.U
    assert frobenius_subspace(F, cons.W) == cons.W
    assert frobenius_subspace(F, cons.W_prime) != cons.W_prime


def test_orth_pair_check_7_3():
    rep = orth_odd_pair_check(7, 3)
    assert rep.verdict
    assert rep.survivors == 1
    assert rep.stabilizer_size == 27648  # |O4+(3)| * |O3(3)| / 2


def orth_pair_enumeration(F, form, U, W):
    """Oracle: every pair (gU, gP) of isometries of U and of its
    complement coordinates with det gU * det gP = 1, built as one n x n
    matrix and kept when it maps W onto W."""
    n = len(form)
    u_coords = tuple(sorted({next(i for i, x in enumerate(v) if x) for v in U}))
    p_coords = tuple(i for i in range(n) if i not in u_coords)
    gram_u = tuple(tuple(form[i][j] for j in u_coords) for i in u_coords)
    gram_p = tuple(tuple(form[i][j] for j in p_coords) for i in p_coords)
    GU = isometry_matrix_closure(F, gram_u)
    GP = isometry_matrix_closure(F, gram_p)
    survivors = 0
    ident = mat_identity(n)
    identity_seen = False
    counterexample = None
    total = 0
    for gU in GU:
        dU = mat_det(F, gU)
        for gP in GP:
            if F.mul[dU][mat_det(F, gP)] != 1:
                continue
            total += 1
            g = [[0] * n for _ in range(n)]
            for a, i in enumerate(u_coords):
                for b, j in enumerate(u_coords):
                    g[i][j] = gU[a][b]
            for a, i in enumerate(p_coords):
                for b, j in enumerate(p_coords):
                    g[i][j] = gP[a][b]
            g = tuple(tuple(r) for r in g)
            if subspace_canonical(F, [mat_vec(F, g, w) for w in W]) == W:
                survivors += 1
                if g == ident:
                    identity_seen = True
                elif counterexample is None:
                    counterexample = g
    assert identity_seen
    return OrthPairReport(total, survivors, survivors == 1, counterexample)


def _coordinate_span(F, n, *supports):
    return subspace_canonical(
        F, [tuple(1 if i in s else 0 for i in range(n)) for s in supports])


@pytest.mark.parametrize("W, survivors", [
    (None, 1),  # the construction's W: a base
    # U's complement coordinates e1, f1, x: every pair fixes it
    (((0,), (1,), (6,)), 27648),
    # <e1 + e*1, x>: W's annihilator has rows on both factors
    (((0, 2), (6,)), 72),
])
def test_orth_pair_join_matches_enumeration(W, survivors):
    F = Fq(3)
    cons = orth_odd_construct(7, 3)
    W = cons.W if W is None else _coordinate_span(F, 7, *W)
    rep = _orth_pair_join(F, cons.form, cons.U, W)
    assert rep == orth_pair_enumeration(F, cons.form, cons.U, W)
    assert rep.stabilizer_size == 27648 and rep.survivors == survivors
    assert rep.verdict == (survivors == 1)
    assert (rep.counterexample is None) == (survivors == 1)


def test_orth_pair_check_budget():
    with pytest.raises(BudgetError):
        orth_odd_pair_check(11, 3)
    with pytest.raises(BudgetError):
        orth_odd_pair_check(7, 5)


def isometry_matrix_closure(F, gram):
    """Oracle: the group the sorted reflections generate, closed by
    Dimino's method over matrices, in the order that
    isometry_group_elements lists it."""
    ident = mat_identity(len(gram))
    elems = [ident]
    seen = {ident}
    gens = []
    for r in sorted(_reflections(F, gram)):
        if r in seen:
            continue
        gens.append(r)
        H = list(elems)
        reps = [ident]
        for rep in reps:
            for s in gens:
                w = mat_mul(F, rep, s)
                if w not in seen:
                    reps.append(w)
                    coset = [mat_mul(F, h, w) for h in H]
                    elems.extend(coset)
                    seen.update(coset)
    return elems


def isometry_closure_bfs(F, gram):
    """Oracle: the closure of the identity under right multiplication by
    every reflection of the form, breadth first."""
    gens = _reflections(F, gram)
    ident = mat_identity(len(gram))
    elems = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = mat_mul(F, a, g)
                if c not in elems:
                    elems.add(c)
                    nxt.append(c)
        frontier = nxt
    return elems


def orthogonal_group_order(n, q, eps):
    """|O^eps_n(q)| for q odd: eps is +1 or -1 when n is even, 0 when odd."""
    m = n // 2
    order = 2 * q ** (m * (m - 1) if n % 2 == 0 else m * m)
    for i in range(1, m + (n % 2)):
        order *= q ** (2 * i) - 1
    return order * (q**m - eps if n % 2 == 0 else 1)


_HYPERBOLIC = ((0, 1), (1, 0))
_ANISOTROPIC_3 = ((1, 0), (0, 1))  # x^2 + y^2 over F_3: -1 is a non-square


def _block_sum(*blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(row)] = row
        at += len(b)
    return tuple(tuple(r) for r in out)


@pytest.mark.parametrize("q, eps, gram", [
    (3, 1, _HYPERBOLIC),
    (3, -1, _ANISOTROPIC_3),
    (3, 0, _block_sum(_HYPERBOLIC, ((1,),))),
    (5, 0, _block_sum(_HYPERBOLIC, ((1,),))),
    (3, 1, _block_sum(_HYPERBOLIC, _HYPERBOLIC)),
    (3, -1, _block_sum(_HYPERBOLIC, _ANISOTROPIC_3)),
])
def test_isometry_cosets_match_reflection_bfs(q, eps, gram):
    """The permutations read back as the matrix closure's matrices, in
    its order, each with its determinant, and those are the closure
    under all reflections."""
    F = Fq(q)
    d = len(gram)
    pairs = isometry_group_elements(F, gram)
    elems = [perm_matrix(F, g, d) for g, _ in pairs]
    assert elems == isometry_matrix_closure(F, gram)
    assert [det for _, det in pairs] == [mat_det(F, g) for g in elems]
    assert len(elems) == len(set(elems))
    assert set(elems) == isometry_closure_bfs(F, gram)
    assert len(elems) == orthogonal_group_order(d, q, eps)
    for (perm, _), g in zip(pairs, elems):
        assert mat_mul(F, mat_transpose(g), mat_mul(F, gram, g)) == gram
        assert [vector_code(F, mat_vec(F, g, v)) for v in all_vectors(F, d)] == \
            list(perm[:q**d])
        assert perm[q**d:] == bytes(range(q**d, 256))


class CountingBytes(bytes):
    """A byte permutation that counts the products it takes part in as
    the permutation applied first, and passes that on to its products."""

    calls = 0

    def translate(self, table):
        CountingBytes.calls += 1
        return CountingBytes(bytes.translate(self, table))


def test_isometry_cosets_skip_most_products(monkeypatch):
    """O4+(3) has 1152 elements and 24 reflections: the coset closure
    composes far fewer than the 27,648 products of each element with each
    reflection, as many as the matrix closure's products.  Each of the
    1,151 non-identity elements is composed once, as a member of a new
    coset, and the steps from coset representatives by generators take
    148 more; each non-identity element's form check is one more
    translate."""
    F = Fq(3)
    gram = _block_sum(_HYPERBOLIC, _HYPERBOLIC)
    monkeypatch.setattr(CountingBytes, "calls", 0)
    monkeypatch.setattr(classical, "_matrix_perm",
                        lambda *args: CountingBytes(_matrix_perm(*args)))
    elems = isometry_group_elements(F, gram)
    assert len(_reflections(F, gram)) == 24 and len(elems) == 1152
    compositions = CountingBytes.calls - (len(elems) - 1)
    assert compositions == 1151 + 148 < 27648 // 20


def test_isometry_closure_checks_every_element_against_the_form(monkeypatch):
    F = Fq(3)
    gram = _block_sum(_HYPERBOLIC, ((1,),))
    # a transvection: not an isometry, so its closure holds non-isometries
    shear = ((1, 1, 0), (0, 1, 0), (0, 0, 1))
    monkeypatch.setattr(classical, "_reflections",
                        lambda F, gram: _reflections(F, gram) | {shear})
    with pytest.raises(CertificationError):
        isometry_group_elements(F, gram)


@pytest.mark.parametrize("q, gram", [
    (3, mat_identity(6)),  # 729 vectors
    (5, mat_identity(4)),  # 625 vectors
    (9, mat_identity(3)),  # 729 vectors
    (3, ((0, 1), (2, 0))),  # not symmetric
    (4, _HYPERBOLIC),  # even q: polarization needs 2 invertible
])
def test_isometry_closure_refuses_what_its_check_cannot_prove(q, gram):
    with pytest.raises(ValueError):
        isometry_group_elements(Fq(q), gram)


@pytest.mark.parametrize("coords", [(0, 1, 6), (2, 3, 4, 5)])
def test_orth_factor_values_match_matrix_products(coords):
    """Each factor element's looked-up values are the a_C . (g w_C) of
    its matrix, and its carried determinant is mat_det's."""
    F = Fq(3)
    cons = orth_odd_construct(7, 3)
    ann = nullspace(F, cons.W, 7)
    ann_c = [tuple(a[i] for i in coords) for a in ann]
    w_c = [tuple(w[i] for i in coords) for w in cons.W]
    factor = list(_orth_factor(F, cons.form, coords, ann, cons.W))
    assert len(factor) == {3: 48, 4: 1152}[len(coords)]
    for g, det, values in factor:
        m = perm_matrix(F, g, len(coords))
        assert det == mat_det(F, m)
        assert values == tuple(mat_vec(F, ann_c, mat_vec(F, m, w)) for w in w_c)


def test_isometry_group_sizes():
    F = Fq(3)
    cons = orth_odd_construct(7, 3)
    u_coords = (2, 3, 4, 5)
    gram_u = tuple(tuple(cons.form[i][j] for j in u_coords) for i in u_coords)
    assert len(isometry_group_elements(F, gram_u)) == 1152  # O4+(3)
    p_coords = (0, 1, 6)
    gram_p = tuple(tuple(cons.form[i][j] for j in p_coords) for i in p_coords)
    assert len(isometry_group_elements(F, gram_p)) == 48  # O3(3)


def test_witt_index_values():
    F = Fq(3)
    hyper = ((0, 1), (1, 0))
    assert witt_index(F, hyper, [(1, 0), (0, 1)]) == 1
    # anisotropic plane x^2 + y^2 over F_3
    aniso = ((1, 0), (0, 1))
    assert witt_index(F, aniso, [(1, 0), (0, 1)]) == 0
