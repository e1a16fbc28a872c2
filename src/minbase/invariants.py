"""Exact intersection number, base number and b(G,H) with witness
certificates, chief series with non-Frattini flags, and the chief-factor
upper bound on the intersection number.

Everything works on a GroupTable (full element table of the ambient
group), so subgroups are frozensets of element indices, and searches are
breadth-first over memoized intersection states held as int bitmasks.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .errors import CertificationError
from .fq import Fq, factor_prime_power, mat_det, nullspace
from .lattice import (
    Lattice,
    SubgroupRecord,
    commutator_subgroup,
    commutators,
    core,
    frattini,
    is_nilpotent,
    normal_subgroups,
)


class NotSoluble(ValueError):
    pass


# ---------------------------------------------------------------------------
# intersection number


class AlphaCertificate(NamedTuple):
    value: int
    witness: list
    frattini_order: int


@lru_cache(maxsize=1)
def alpha(lattice: Lattice) -> AlphaCertificate:
    """Minimal number of maximal subgroups intersecting to the Frattini
    subgroup, by breadth-first search over distinct intersection states.

    The first subgroup ranges over conjugacy-class representatives only
    (the quantity is conjugation-invariant); all later choices range over
    every maximal subgroup.

    A lattice does not change once built, so a one-entry memo keyed on
    the lattice object answers the emit-time check of the certificate
    just computed on it.  The certificate returned is the memo's own.
    """
    table = lattice.table
    if table.n == 1:
        raise ValueError("the trivial group has no maximal subgroups")
    maxs = lattice.maximal_subgroups()
    frat = frattini(lattice).elements
    reps = [cls[0] for cls in lattice.classes if cls[0] in maxs]
    depth, chain = _fewest_intersections(
        {_mask(rec.elements): [rec] for rec in reps},
        [(_mask(rec.elements), rec) for rec in maxs],
        _mask(frat),
    )
    return AlphaCertificate(depth, chain, len(frat))


def _mask(elems):
    """The set of element indices as an int bitmask, bit x for element x."""
    return sum(map((1).__lshift__, elems))


def _fewest_intersections(starts, pool, target):
    """Breadth-first search over distinct intersection states.

    starts maps each start state (an int bitmask of element indices, see
    _mask) to its list of labels; a step intersects a state with one
    (bitmask, label) pair of pool and appends the label.  Returns (depth,
    labels) for the first state equal to target, depth counting the start
    as 1; states that do not shrink, or were reached before, are not
    expanded again.
    """
    states = dict(starts)
    seen = set(states)
    depth = 1
    while True:
        for elems, labels in states.items():
            if elems == target:
                return depth, labels
        nxt = {}
        for elems, labels in states.items():
            for other, label in pool:
                inter = elems & other
                if inter == elems or inter in seen or inter in nxt:
                    continue
                nxt[inter] = labels + [label]
        if not nxt:
            raise RuntimeError("intersections never reached the target subgroup")
        seen.update(nxt)
        states = nxt
        depth += 1


# ---------------------------------------------------------------------------
# base size of a primitive action and the base number


class BaseSizeCertificate(NamedTuple):
    value: int
    subgroup: SubgroupRecord
    conjugators: list  # element indices; the witness conjugates are H^g
    core_order: int


def base_size_subgroup(lattice: Lattice, H: SubgroupRecord) -> BaseSizeCertificate:
    """Minimal number of conjugates of the maximal subgroup H whose
    intersection is the core of H, by BFS over intersection states."""
    table = lattice.table
    if H.elements not in {m.elements for m in lattice.maximal_subgroups()}:
        raise ValueError("H must be a maximal subgroup of the ambient group")
    conjugates = table.conjugates(H.elements)
    core_elems = frozenset.intersection(*conjugates)
    depth, gs = _fewest_intersections(
        {_mask(H.elements): []},
        [(_mask(conj), g) for conj, g in conjugates.items()],
        _mask(core_elems),
    )
    return BaseSizeCertificate(depth, H, gs, len(core_elems))


class BetaCertificate(NamedTuple):
    value: object  # int or math.inf
    chosen: object  # BaseSizeCertificate or None
    empty_star_evidence: list  # (maximal class rep, core order) when infinite
    frattini_order: int = 0


@lru_cache(maxsize=1)
def beta(lattice: Lattice) -> BetaCertificate:
    """Minimum of b(G,H) over maximal H whose core equals the Frattini
    subgroup; infinity (with per-class core evidence) if there is none.
    Memoized on the lattice object, as alpha is."""
    frat = frattini(lattice).elements
    maxs = lattice.maximal_subgroups()
    star_reps = []
    evidence = []
    for rec in (cls[0] for cls in lattice.classes if cls[0] in maxs):
        c = core(lattice, rec)
        if c.elements == frat:
            star_reps.append(rec)
        else:
            evidence.append((rec, c.order))
    if not star_reps:
        return BetaCertificate(math.inf, None, evidence, len(frat))
    best = None
    for rec in star_reps:
        cert = base_size_subgroup(lattice, rec)
        if best is None or cert.value < best.value:
            best = cert
    return BetaCertificate(best.value, best, [], len(frat))


# ---------------------------------------------------------------------------
# chief series, chief length, non-Frattini count


class ChiefFactor(NamedTuple):
    top: SubgroupRecord
    bottom: SubgroupRecord
    order: int
    abelian: bool
    non_frattini: bool
    composition_length: int


class ChiefSeriesReport(NamedTuple):
    series: list  # SubgroupRecords, descending from G to 1
    factors: list  # ChiefFactor, top-down
    chief_length: int
    non_frattini_count: int


def _series_down(top, bottom, normals):
    """Descending series from top to bottom through the given normal
    subgroups.  Each next term is a largest one (ties: greatest key())
    that lies properly inside the current term and contains bottom, so
    none lies strictly between two consecutive terms and every quotient
    is a chief factor."""
    series = [top]
    while series[-1].order > bottom.order:
        cur = series[-1].elements
        below = [r for r in normals if bottom.elements <= r.elements < cur]
        series.append(max(below, key=lambda r: (r.order, r.key())))
    return series


def chief_series(lattice: Lattice) -> ChiefSeriesReport:
    """A chief series of the ambient group with per-factor flags, all read
    from the ambient lattice.

    H/K lies in the Frattini subgroup of G/K exactly when H lies in every
    maximal subgroup of G containing K, since those are the preimages of
    the maximal subgroups of G/K.  A chief factor is T^k for a simple T.
    An abelian one has order p^d and composition length d.  A nonabelian
    one has |T| >= 60, and 60^2 exceeds GroupTable.HARD_CAP, so k = 1 and
    its composition length is 1.
    """
    table = lattice.table
    normals = normal_subgroups(lattice)
    maxs = lattice.maximal_subgroups()
    full = lattice.find(range(table.n))
    series = _series_down(full, lattice.find([table.identity]), normals)
    factors = []
    for top, bottom in zip(series, series[1:]):
        over_bottom = [m.elements for m in maxs if bottom.elements <= m.elements]
        frattini_mod_bottom = full.elements.intersection(*over_bottom)
        order = top.order // bottom.order
        # bottom is normal, so top/bottom is abelian exactly when the
        # images of top's generators commute
        abelian = commutators(table, top.generators, top.generators) <= bottom.elements
        factors.append(
            ChiefFactor(
                top,
                bottom,
                order,
                abelian,
                not top.elements <= frattini_mod_bottom,
                factor_prime_power(order)[1] if abelian else 1,
            )
        )
    return ChiefSeriesReport(
        series,
        factors,
        len(factors),
        sum(1 for f in factors if f.non_frattini),
    )


# ---------------------------------------------------------------------------
# chief-factor modules over the prime field and the general bound


def _gl_matrices_of_abelian_factor(table, top, bottom, p, d):
    """Conjugation matrices of the ambient generators on the section
    top/bottom, an elementary abelian p-group of rank d, over F_p."""
    mul, inv = table.mul, table.inv
    Kset = bottom.elements
    coset_of = {}
    reps = []
    for x in sorted(top.elements):
        if x in coset_of:
            continue
        cid = len(reps)
        reps.append(x)
        for k in Kset:
            coset_of[mul[k][x]] = cid
    ident_coset = coset_of[table.identity]
    # label cosets with F_p^d coordinates by greedy spanning
    vec_of = {ident_coset: (0,) * d}
    basis = []
    for cid in range(len(reps)):
        if cid in vec_of:
            continue
        j = len(basis)
        basis.append(cid)
        current = list(vec_of.items())
        for known_cid, v in current:
            acc = known_cid
            for i in range(1, p):
                acc = coset_of[mul[reps[acc]][reps[cid]]]
                vec = list(v)
                vec[j] = (vec[j] + i) % p
                vec_of[acc] = tuple(vec)
    if len(basis) != d or len(vec_of) != len(reps):
        raise CertificationError("the section is not elementary abelian of rank d")
    mats = []
    for g in table.gen_idx:
        cols = []
        for cid in basis:
            img = coset_of[mul[mul[inv[g]][reps[cid]]][g]]
            cols.append(vec_of[img])
        # matrix with columns = images of basis vectors
        mats.append(tuple(tuple(cols[j][i] for j in range(d)) for i in range(d)))
    return mats


def _solve_intertwiners(mats_a, mats_b, p, d):
    """Basis of {T : T A_g = B_g T for all g} over F_p, d x d matrices."""
    if d == 1:
        # T is a scalar, which intertwines iff the two modules agree; this
        # also keeps large primes off the table-based field
        return [(1,)] if mats_a == mats_b else []
    rows = []
    for A, B in zip(mats_a, mats_b):
        for i in range(d):
            for j in range(d):
                # entry (i,j) of T*A - B*T, linear in T's entries
                row = [0] * (d * d)
                for k in range(d):
                    row[i * d + k] = (row[i * d + k] + A[k][j]) % p
                for k in range(d):
                    row[k * d + j] = (row[k * d + j] - B[i][k]) % p
                rows.append(row)
    return nullspace(Fq(p), rows, d * d)


class ChiefBoundReport(NamedTuple):
    abelian_classes: list  # dicts: delta, dim_over_endo, p, dim
    nonabelian_classes: list  # dicts: delta, composition_length
    bound: int
    alpha: int
    soluble: bool
    soluble_bound: object  # sum of (delta + 3) over abelian classes, or None
    verdict: bool


def chief_factor_bound(lattice: Lattice) -> ChiefBoundReport:
    """Upper bound on the intersection number from the non-Frattini chief
    factors: abelian classes are grouped by module isomorphism over the
    prime field (exact); non-abelian ones by order and composition length
    (an approximation that can only split true classes)."""
    table = lattice.table
    report = chief_series(lattice)
    nf = [f for f in report.factors if f.non_frattini]
    ab = [f for f in nf if f.abelian]
    nonab = [f for f in nf if not f.abelian]
    # abelian: compute module matrices, then group by isomorphism
    mods = []
    for f in ab:
        p, d = factor_prime_power(f.order)
        mats = _gl_matrices_of_abelian_factor(table, f.top, f.bottom, p, d)
        mods.append((f, p, d, mats))
    classes = []
    for item in mods:
        placed = False
        for cls in classes:
            f0, p0, d0, mats0 = cls[0]
            if item[1] == p0 and item[2] == d0:
                sols = _solve_intertwiners(item[3], mats0, p0, d0)
                nonzero = [s for s in sols if any(s)]
                if nonzero:
                    T = [nonzero[0][i * d0 : (i + 1) * d0] for i in range(d0)]
                    # a nonzero scalar (d0 == 1) is invertible as it stands
                    if d0 > 1 and mat_det(Fq(p0), T) == 0:
                        raise CertificationError("module intertwiner is singular")
                    cls.append(item)
                    placed = True
                    break
        if not placed:
            classes.append([item])
    abelian_classes = []
    for cls in classes:
        f0, p, d, mats = cls[0]
        e = len(_solve_intertwiners(mats, mats, p, d))
        if e < 1 or d % e:
            raise CertificationError("endomorphism dimension does not divide d")
        abelian_classes.append({"delta": len(cls), "dim_over_endo": d // e, "p": p, "dim": d})
    nonab_groups = {}
    for f in nonab:
        key = (f.order, f.composition_length)
        nonab_groups.setdefault(key, []).append(f)
    nonabelian_classes = [
        {"delta": len(v), "composition_length": k[1]}
        for k, v in sorted(nonab_groups.items())
    ]
    bound = sum(c["delta"] + c["dim_over_endo"] for c in abelian_classes)
    bound += sum(
        max(4, c["delta"]) + (3 * c["composition_length"] - 1) // 2
        for c in nonabelian_classes
    )
    a = alpha(lattice)
    soluble = all(f.abelian for f in report.factors)
    soluble_bound = sum(c["delta"] + 3 for c in abelian_classes) if soluble else None
    return ChiefBoundReport(
        abelian_classes,
        nonabelian_classes,
        bound,
        a.value,
        soluble,
        soluble_bound,
        a.value <= bound,
    )


class SolubleReport(NamedTuple):
    alpha: int
    chief_length: int
    non_frattini_count: int
    derived_nilpotent: bool
    alpha_le_length: bool
    alpha_le_non_frattini: object  # bool, or None when not applicable


def soluble_bounds_report(lattice: Lattice) -> SolubleReport:
    """For a soluble group: intersection number against chief length, and
    against the non-Frattini count when the derived subgroup is nilpotent.

    G is soluble exactly when every chief factor is abelian: a chief
    factor is T^k for a simple T, abelian exactly when T has prime order,
    and refining the chief series gives a composition series with these
    T as its factors."""
    report = chief_series(lattice)
    if not all(f.abelian for f in report.factors):
        raise NotSoluble("the group is not soluble")
    a = alpha(lattice).value
    lam = report.chief_length
    delta = report.non_frattini_count
    full = report.series[0]
    dnil = is_nilpotent(lattice, commutator_subgroup(lattice, full, full))
    return SolubleReport(
        a,
        lam,
        delta,
        dnil,
        a <= lam,
        (a <= delta) if dnil else None,
    )
