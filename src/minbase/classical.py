"""Verification of explicit base constructions in small classical
groups: totally-isotropic pair stabilizers in Sp4(q), solved as linear
systems, and nondegenerate-subspace pairs in odd orthogonal groups, by
counting every element of the stabilizer of U as a pair of isometry
factors joined on their share of the condition g W = W.

All verdicts are proofs by exhaustion, so enumeration budgets are hard
gates: a partial enumeration proves nothing.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import CertificationError
from .fq import (
    Fq,
    all_vectors,
    bilinear,
    code_vector,
    frobenius_subspace,
    mat_det,
    mat_identity,
    mat_transpose,
    mat_vec,
    nullspace,
    subspace_canonical,
    vector_code,
)


class BudgetError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Sp4: stabilizer of a pair of complementary totally isotropic 2-spaces


_U_PRIME = ((1, 0, 0, 0), (0, 1, 0, 1))  # <e1, e2+f2>
_W_PRIME = ((1, 0, 0, 1), (0, 1, 1, 0))  # <e1+f2, e2+f1>


class Sp4PairReport(NamedTuple):
    candidates: int
    survivors: list  # 4x4 matrices
    scalars_only: bool


def sp4_pair_stabilizer(q: int) -> Sp4PairReport:
    """The similitudes stabilizing the isotropic-pair decomposition
    <e1,e2> + <f1,f2> (block shape diag(A, D) or antidiag(B, C)) that fix
    the shifted pair {U', W'} setwise; the expected survivors are the q-1
    scalars.

    Each shape, with the pair kept or swapped, is linear in g's 16
    entries: g vanishes off its blocks, and every annihilator of a target
    space kills g times every basis vector of its source.  The points of
    each of the four nullspaces that pass the similitude check are the
    survivors.  Since (lambda g)^T J (lambda g) = lambda^2 g^T J g and
    lambda^2 is nonzero for lambda nonzero, whether g is a similitude
    depends only on the line through g, and 0 is not one: so the check
    runs on one point per line of each nullspace (coefficients whose
    first nonzero entry is 1), and each passing point brings its q-1
    nonzero multiples, every one of them re-checked.  `candidates` is the
    size of the similitude space searched, 2|GL2(q)|(q-1): a block-shaped
    g is a similitude exactly when its second block is +-lambda A^-T."""
    if q % 2 == 0 or q < 5:
        raise BudgetError("q must be odd and at least 5")
    F = Fq(q)
    survivors = set()
    for basis in _sp4_pair_systems(F):
        for coeffs in _line_points(F, len(basis)):
            g = _sp4_point(F, coeffs, basis)
            if not sp4_similitude_check(F, g):
                continue
            for lam in range(1, q):
                h = tuple(tuple(F.mul[lam][x] for x in row) for row in g)
                if not sp4_similitude_check(F, h):
                    raise CertificationError(
                        "a nonzero multiple of a similitude is not one")
                survivors.add(h)
    scalars = {
        tuple(tuple(lam if i == j else 0 for j in range(4)) for i in range(4))
        for lam in range(1, q)
    }
    return Sp4PairReport(
        2 * (q * q - 1) * (q * q - q) * (q - 1), sorted(survivors), survivors == scalars,
    )


def _sp4_pair_systems(F):
    """Nullspace bases of the four linear systems in g's 16 entries, one
    per block shape (diagonal or antidiagonal) and pair {U', W'} kept or
    swapped.

    Each system is solved in the 8 entries of its two blocks, and each
    basis vector is put back into 16 entries with 0 off the blocks.  This
    is the basis of the 16-unknown system that adds the unit row e_k for
    every off-block entry k.  Proof: that system's row space is the sum of
    the span of those e_k and of the block system's rows put back, whose
    supports are disjoint.  So the e_k beside the block system's reduced
    rows put back have distinct pivots, each pivot column zero in every
    other row: they are the unique reduced echelon form, every row with an
    off-block pivot is that unit vector, the free columns are the block
    system's, and each basis vector reads 0 off the blocks."""
    mul = F.mul
    annihilator = {s: nullspace(F, s, 4) for s in (_U_PRIME, _W_PRIME)}
    for anti in (False, True):
        block = [(i, j) for i in range(4) for j in range(4)
                 if ((i < 2) == (j < 2)) != anti]
        for targets in ((_U_PRIME, _W_PRIME), (_W_PRIME, _U_PRIME)):
            rows = [
                tuple(mul[a[i]][u[j]] for i, j in block)
                for src, dst in zip((_U_PRIME, _W_PRIME), targets)
                for a in annihilator[dst]
                for u in src
            ]
            basis = []
            for v in nullspace(F, rows, len(block)):
                flat = [0] * 16
                for (i, j), x in zip(block, v):
                    flat[4 * i + j] = x
                basis.append(tuple(flat))
            yield basis


def _sp4_point(F, coeffs, basis):
    """The 4x4 matrix sum of c v over the coefficients c and the basis
    vectors v of a system's nullspace."""
    add, mul = F.add, F.mul
    flat = [0] * 16
    for c, v in zip(coeffs, basis):
        flat = [add[x][mul[c][y]] for x, y in zip(flat, v)]
    return tuple(tuple(flat[4 * i:4 * i + 4]) for i in range(4))


def _line_points(F, k):
    """Coefficient vectors of length k whose first nonzero entry is 1: one
    point on each line through the origin of F^k."""
    for lead in range(k):
        for tail in all_vectors(F, k - lead - 1):
            yield (0,) * lead + (1,) + tail


def sp4_similitude_check(F, g):
    """g^T J g must be a nonzero multiple of J, the alternating form
    B(x, y) = x0 y2 + x1 y3 - x2 y0 - x3 y1 on basis e1, e2, f1, f2.
    Its (i, j) entry is B(c_i, c_j) on the columns c of g, so it is
    antisymmetric with zero diagonal, like J: it equals lambda J exactly
    when B(c0, c2) = B(c1, c3) = lambda != 0 and the other four pairings
    B(c0, c1), B(c0, c3), B(c1, c2), B(c2, c3) are 0."""
    add, mul, sub = F.add, F.mul, F.sub
    c0, c1, c2, c3 = zip(*g)

    def form(x, y):
        return sub(add[mul[x[0]][y[2]]][mul[x[1]][y[3]]],
                   add[mul[x[2]][y[0]]][mul[x[3]][y[1]]])

    lam = form(c0, c2)
    return (lam != 0 and form(c1, c3) == lam and form(c0, c1) == 0
            and form(c0, c3) == 0 and form(c1, c2) == 0 and form(c2, c3) == 0)


class Sp4TripleReport(NamedTuple):
    pair_scalars_only: bool
    phi_fixes_alpha: bool
    phi_fixes_beta: bool
    phi_moves_gamma: list  # per power 1..f-1
    verdict: bool


def sp4_triple_base_check(q: int) -> Sp4TripleReport:
    """For q = p^f (f >= 2, odd q >= 9): the pair stabilizer is scalar,
    the coordinate field power map fixes both pair points, and no proper
    power of it fixes the third point built from a field generator."""
    F = Fq(q)
    if F.f < 2:
        raise BudgetError("the triple check needs a proper extension field")
    if q % 2 == 0 or q < 9:
        raise BudgetError("q must be odd and at least 9")
    pair = sp4_pair_stabilizer(q)
    mu = F.mu
    alpha = frozenset(
        (
            subspace_canonical(F, [(1, 0, 0, 0), (0, 1, 0, 0)]),  # <e1,e2>
            subspace_canonical(F, [(0, 0, 1, 0), (0, 0, 0, 1)]),  # <f1,f2>
        )
    )
    beta = frozenset(
        (subspace_canonical(F, _U_PRIME), subspace_canonical(F, _W_PRIME))
    )
    gamma = frozenset(
        (
            subspace_canonical(F, [(1, 0, 0, 0), (0, mu, 0, 1)]),
            subspace_canonical(F, _W_PRIME),
        )
    )

    def phi_pow(point, k):
        out = point
        for _ in range(k):
            out = frozenset(frobenius_subspace(F, s) for s in out)
        return out

    fixes_alpha = phi_pow(alpha, 1) == alpha
    fixes_beta = phi_pow(beta, 1) == beta
    moves = [phi_pow(gamma, i) != gamma for i in range(1, F.f)]
    verdict = pair.scalars_only and fixes_alpha and fixes_beta and all(moves)
    return Sp4TripleReport(pair.scalars_only, fixes_alpha, fixes_beta, moves, verdict)


# ---------------------------------------------------------------------------
# odd orthogonal groups: the U / W / W' construction


class OrthConstruction(NamedTuple):
    form: tuple
    U: tuple
    W: tuple
    W_prime: tuple
    basis_names: list


def orth_odd_construct(n: int, q: int) -> OrthConstruction:
    """The two nondegenerate plus-type subspaces U, W and the scaled
    variant W' of the n-dimensional orthogonal space over F_q (q odd).

    The basis is e_1..e_m f_1..f_m e*_1..e*_m f*_1..f*_m, then e f when
    n = 4m+3, then x, with (e_i,f_i) = (e*_i,f*_i) = (e,f) = (x,x) = 1.
    n = 4m+1: U spans the unstarred hyperbolic pairs; W chains each
    unstarred vector to a starred one starting at e1+x: e1+x, f1+e*1,
    e2+f*1, f2+e*2, ..., e_m+f*_(m-1), f_m+e*_m.
    n = 4m+3: U spans the starred pairs plus (e,f); W is the graph chain
    e*1+x, e1+f*1, f1+e*2, ..., e_m+f*_m, f_m+e together with f.
    W' scales the first term of W's first vector by mu.
    """
    if n % 2 == 0 or n < 7:  # n = 4m+1 needs m >= 2, n = 4m+3 needs m >= 1
        raise ValueError(f"n must be odd and at least 7 (got {n})")
    if q % 2 == 0:
        raise ValueError("q must be odd")
    F = Fq(q)
    m = (n - 1) // 4
    ms = range(1, m + 1)
    names = [f"{v}{i}" for v in ("e", "f", "e*", "f*") for i in ms]
    if n % 4 == 1:
        u_names = [f"e{i}" for i in ms] + [f"f{i}" for i in ms]
        w_sums = [("e1", "x"), ("f1", "e*1")]
        for i in range(2, m + 1):
            w_sums += [(f"e{i}", f"f*{i - 1}"), (f"f{i}", f"e*{i}")]
    else:
        names += ["e", "f"]
        u_names = [f"e*{i}" for i in ms] + [f"f*{i}" for i in ms] + ["e", "f"]
        w_sums = [("e*1", "x")]
        for i in ms:
            w_sums += [(f"e{i}", f"f*{i}"), (f"f{i}", f"e*{i + 1}" if i < m else "e")]
        w_sums.append(("f",))
    names.append("x")
    pos = {name: k for k, name in enumerate(names)}
    partner = {"x": "x"}  # (u, v) = 1 exactly when v is u's partner
    for u in names:
        if u[0] == "e":  # e_i, e*_i and e pair with the f of the same suffix
            partner[u], partner["f" + u[1:]] = "f" + u[1:], u

    def vec(*terms, lead=1):
        """The sum of the named basis vectors, the first one scaled by lead."""
        v = [0] * n
        for name in terms:
            v[pos[name]] = 1
        v[pos[terms[0]]] = lead
        return tuple(v)

    W = [vec(*terms) for terms in w_sums]
    W_prime = [vec(*w_sums[0], lead=F.mu)] + W[1:]
    return OrthConstruction(
        tuple(tuple(int(partner[u] == v) for v in names) for u in names),
        *(subspace_canonical(F, gens) for gens in ([vec(u) for u in u_names], W, W_prime)),
        names,
    )


# ---------------------------------------------------------------------------
# exhaustive pair check for n = 7, q = 3


def _reflections(F, gram):
    """The reflections x -> x - c(x) v of the form, c(x) = 2 B(x, v) /
    B(v, v), over the v with B(v, v) nonzero, as matrices: entry (i, j)
    is delta_ij - c(e_j) v_i.  Scaling v changes neither c(x) v nor
    whether B(v, v) is zero, so one point per line gives them all."""
    d = len(gram)
    add, mul, sub = F.add, F.mul, F.sub
    transposed = mat_transpose(gram)  # B(u, v) = u . (gram^T v)
    out = set()
    for v in _line_points(F, d):
        b = mat_vec(F, transposed, v)  # b_j = B(e_j, v)
        vv = 0
        for x, y in zip(v, b):
            vv = add[vv][mul[x][y]]
        if vv == 0:
            continue
        scale = mul[2 % F.q][F.inv[vv]]
        c = [mul[scale][x] for x in b]
        out.add(tuple(
            tuple(sub(int(i == j), mul[c[j]][v[i]]) for j in range(d))
            for i in range(d)
        ))
    return out


_IDENTITY = bytes(range(256))  # the identity permutation of byte codes


def _shifts(F, d):
    """shifts[i][a]: the translation v -> v + a e_i of F_q^d as a byte
    permutation of the vector codes (see fq.vector_code), fixing the
    codes from q^d on."""
    q, size = F.q, F.q**d
    out = []
    for i in range(d):
        w = q**i
        out.append([
            bytes(c + (F.add[c // w % q][a] - c // w % q) * w for c in range(size))
            + _IDENTITY[size:]
            for a in range(q)
        ])
    return out


def _matrix_perm(F, g, shifts):
    """The action v -> g v of a d x d matrix on the codes of F_q^d, as a
    byte permutation fixing the codes from q^d on.

    images holds the images of the codes below q^k, from 0 -> 0 at k = 0.
    A code below q^(k+1) is that of v + t e_k, for v a code below q^k and
    t a digit, and g(v + t e_k) = g v + t g e_k: so block t of the next
    images is images translated by t g e_k, a product of shifts."""
    mul = F.mul
    images = bytes(1)
    for k in range(len(g)):
        blocks = [images]
        for t in range(1, F.q):
            move = _IDENTITY
            for i, row in enumerate(g):
                if row[k]:
                    move = move.translate(shifts[i][mul[t][row[k]]])
            blocks.append(images.translate(move))
        images = b"".join(blocks)
    return images + _IDENTITY[len(images):]


def perm_matrix(F, p, d):
    """The d x d matrix whose column j is the vector of code p[q^j], the
    image of e_j under the byte permutation p."""
    return tuple(zip(*(code_vector(F, p[F.q**j], d) for j in range(d))))


def isometry_group_elements(F, gram):
    """Full orthogonal group of a symmetric form over F_q, q odd,
    generated by its reflections, as (g, det g) pairs in a fixed order.
    g is the isometry's action on the q^d vector codes as a byte
    permutation, and perm_matrix reads its matrix back.  Every element is
    checked against the form.  Refuses (ValueError) an even q, a gram
    that is not symmetric, and q^d > 256.

    The group is closed by Dimino's method.  The reflections are taken in
    sorted order, and one becomes a generator only when the closure so far
    misses it.  Then the group H closed so far grows by whole right cosets
    H w: a representative w = reps[i] s, for a generator s, starts a new
    coset exactly when it is not yet seen, and the closure is done when
    every reps[i] s is seen.  Each reflection is a generator or already in
    the closure, so the result is the group all the reflections generate.

    A product h w of permutations is w.translate(h), which maps v to
    h(w(v)), and det(h w) = det h det w, from each generator's mat_det.
    Each permutation is the action of the matrix read from its images of
    the basis vectors: a generator's is by construction (_matrix_perm),
    and if P and P' are the actions of matrices h and w, then
    P'.translate(P) is the action of h w; so by induction each element is
    the action of some matrix M, whose column j, M e_j, is the vector of
    its entry at code q^j.  The form check compares Q o g with Q on all
    q^d codes, where Q(v) = B(v, v).  For linear M and symmetric B,
    Q(M v) = Q(v) for every v gives B(M u, M v) = B(u, v) for every u, v,
    by polarization, B(u, v) = (Q(u + v) - Q(u) - Q(v)) / 2 with 2
    invertible for odd q; that is M^T F M = F, and the converse is
    immediate."""
    d = len(gram)
    size = F.q**d
    if F.q % 2 == 0 or tuple(map(tuple, gram)) != mat_transpose(gram):
        raise ValueError("the isometry form check needs odd q and a symmetric gram")
    if size > 256:
        raise ValueError(f"the {size} vectors of F_{F.q}^{d} do not fit in byte codes")
    shifts = _shifts(F, d)
    mul = F.mul
    elems = [_IDENTITY]
    dets = [1]
    seen = {_IDENTITY}
    gens = []
    for r in sorted(_reflections(F, gram)):
        p = _matrix_perm(F, r, shifts)
        if p in seen:
            continue
        gens.append((p, mat_det(F, r)))
        H = list(zip(elems, dets))
        reps = [(_IDENTITY, 1)]
        for rep, d_rep in reps:  # reps grows while it is walked
            for s, d_s in gens:
                w = s.translate(rep)
                if w not in seen:
                    d_w = mul[d_rep][d_s]
                    reps.append((w, d_w))
                    coset = [w.translate(h) for h, _ in H]
                    elems.extend(coset)
                    dets.extend(mul[d_h][d_w] for _, d_h in H)
                    seen.update(coset)
    Q = bytes(bilinear(F, gram, v, v) for v in all_vectors(F, d)) + _IDENTITY[size:]
    for g in elems:
        if g.translate(Q) != Q:
            raise CertificationError("a generated element does not preserve the form")
    return list(zip(elems, dets))


class OrthPairReport(NamedTuple):
    stabilizer_size: int
    survivors: int
    verdict: bool
    counterexample: tuple = None  # a non-identity survivor, when one exists


def orth_odd_pair_check(n: int = 7, q: int = 3) -> OrthPairReport:
    """Enumerate the stabilizer of U inside SO_7(3) as isometry pairs on
    U and its complement (with the determinant condition) and count the
    elements fixing W setwise; the pair {U, W} is a base iff only the
    identity survives."""
    cons = orth_odd_construct(n, 3)  # refuses an n without the construction first
    if (n, q) != (7, 3):
        raise BudgetError("the exhaustive pair check is budgeted for (7,3) only")
    return _orth_pair_join(Fq(q), cons.form, cons.U, cons.W)


def _orth_factor(F, form, coords, ann, W):
    """(g, det g, values) for each isometry g of the form on the
    coordinates C, as isometry_group_elements lists them: values holds,
    for each basis vector w of W, the values a_C . (g w_C) over the rows a
    of W's annihilator ann.  g w_C is g's entry at the code of w_C, and a
    table over all codes holds the values."""
    gram = tuple(tuple(form[i][j] for j in coords) for i in coords)
    ann_c = [tuple(a[i] for i in coords) for a in ann]
    values_at = [mat_vec(F, ann_c, v) for v in all_vectors(F, len(coords))]
    w_codes = [vector_code(F, [w[i] for i in coords]) for w in W]
    for g, det in isometry_group_elements(F, gram):
        yield g, det, tuple(values_at[g[c]] for c in w_codes)


def _orth_pair_join(F, form, U, W) -> OrthPairReport:
    """Count the pairs (gU, gP) of isometries of U and of its complement
    whose block sum g has determinant 1, and those of them with g W = W
    (W a canonical basis, as `subspace_canonical` returns).

    U is spanned by coordinate vectors and the form is block diagonal on
    U and the remaining coordinates, so g ranges over the stabilizer of U.
    g fixes W exactly when a . (g w) = 0 for every row a of W's
    annihilator and every basis vector w of W, and a . (g w) splits as
    a_U . (gU w_U) + a_P . (gP w_P).  So each gP is bucketed by its
    determinant and its negated P-side values, and each gU meets the
    bucket of det(gU)^-1 and its U-side values: every pair is counted,
    and only the joined survivors are rebuilt and re-checked as n x n
    matrices.  Buckets keep GP's order, so the counterexample is the first
    non-identity survivor of the loop over GU x GP."""
    n = len(form)
    ann = nullspace(F, W, n)
    u_coords = tuple(sorted({next(i for i, x in enumerate(v) if x) for v in U}))
    p_coords = tuple(i for i in range(n) if i not in u_coords)

    buckets = {}
    det_count = {}
    for gP, d, values in _orth_factor(F, form, p_coords, ann, W):
        det_count[d] = det_count.get(d, 0) + 1
        negated = tuple(tuple(F.neg[x] for x in v) for v in values)
        buckets.setdefault((d, negated), []).append(gP)
    ident = mat_identity(n)
    total = survivors = 0
    identity_seen = False
    counterexample = None
    for gU, d, values in _orth_factor(F, form, u_coords, ann, W):
        d_p = F.inv[d]
        total += det_count.get(d_p, 0)
        for gP in buckets.get((d_p, values), ()):
            g = [[0] * n for _ in range(n)]
            for coords, perm in ((u_coords, gU), (p_coords, gP)):
                block = perm_matrix(F, perm, len(coords))
                for a, i in enumerate(coords):
                    for b, j in enumerate(coords):
                        g[i][j] = block[a][b]
            g = tuple(tuple(r) for r in g)
            if subspace_canonical(F, [mat_vec(F, g, w) for w in W]) != W:
                raise CertificationError("a joined pair does not fix W")
            survivors += 1
            if g == ident:
                identity_seen = True
            elif counterexample is None:
                counterexample = g
    if not identity_seen:
        raise CertificationError("the identity does not fix the pair")
    return OrthPairReport(total, survivors, survivors == 1, counterexample)
