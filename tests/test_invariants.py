import itertools
import math
from fractions import Fraction

import pytest

from minbase.catalog import BUILTIN_NAMES, SOLUBLE_CATALOG, group_from_spec
from minbase.invariants import (
    NotSoluble,
    alpha,
    base_size_subgroup,
    beta,
    chief_factor_bound,
    chief_series,
    soluble_bounds_report,
)
from minbase.lattice import (
    GroupTable,
    Lattice,
    commutator_subgroup,
    core,
    frattini,
    is_nilpotent,
    normal_subgroups,
)
from minbase.perm import CosetAction, PermGroup
from oracles import (
    chief_length_mod_frattini,
    merged_bound,
    oracle_commutator_subgroup,
    oracle_is_nilpotent_set,
    oracle_is_soluble,
    perm_order,
)


def lat_of(name, cap=1000):
    return Lattice(GroupTable(group_from_spec(name), cap))


@pytest.fixture(scope="module")
def s4():
    return lat_of("S4")


@pytest.fixture(scope="module")
def s5():
    return lat_of("S5")


def oracle_alpha_bruteforce(lattice, max_size=4):
    """Oracle: try all families of maximal subgroups up to max_size."""
    maxs = lattice.maximal_subgroups()
    target = frattini(lattice).elements
    for k in range(1, max_size + 1):
        for family in itertools.combinations(maxs, k):
            inter = frozenset.intersection(*(r.elements for r in family))
            if inter == target:
                return k
    return None


def _meets_in(records, target, count):
    """The count records intersect in exactly the target set."""
    return len(records) == count and frozenset.intersection(
        *(r.elements for r in records)) == target


def _conjugates_meet_in_core(table, cert):
    """H and its value - 1 listed conjugates intersect in the core order."""
    H = cert.subgroup.elements
    inter = H.intersection(*(table.conjugate_set(H, g) for g in cert.conjugators))
    return len(inter) == cert.core_order and len(cert.conjugators) == cert.value - 1


CATALOG = sorted(set(BUILTIN_NAMES) | set(SOLUBLE_CATALOG))


def oracle_fewest_intersections(starts, pool, target):
    """Oracle: the breadth-first search over intersection states held as
    frozensets, in the insertion order of invariants._fewest_intersections."""
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
        assert nxt, "intersections never reached the target subgroup"
        seen.update(nxt)
        states = nxt
        depth += 1


@pytest.mark.parametrize("name", CATALOG)
def test_bitmask_searches_match_the_frozenset_oracle(name):
    # the same depth and the same witness labels, for alpha and for every
    # maximal class's b(G, H)
    lat = lat_of(name)
    maxs = lat.maximal_subgroups()
    reps = [cls[0] for cls in lat.classes if cls[0] in maxs]
    cert = alpha(lat)
    assert (cert.value, cert.witness) == oracle_fewest_intersections(
        {rec.elements: [rec] for rec in reps},
        [(rec.elements, rec) for rec in maxs],
        frattini(lat).elements,
    )
    for rec in reps:
        conjugates = lat.table.conjugates(rec.elements)
        cert = base_size_subgroup(lat, rec)
        assert (cert.value, cert.conjugators) == oracle_fewest_intersections(
            {rec.elements: []},
            conjugates.items(),
            frozenset.intersection(*conjugates),
        )


@pytest.mark.parametrize("name", CATALOG)
def test_chief_abelian_flags_match_the_commutator_subgroup(name):
    # the flag is read from commutators of top's generators; the oracle
    # forms [top, top] from every pair of elements
    lat = lat_of(name)
    for f in chief_series(lat).factors:
        whole = oracle_commutator_subgroup(lat.table, f.top.elements, f.top.elements)
        assert f.abelian == (whole <= f.bottom.elements)


@pytest.mark.parametrize("name", CATALOG)
def test_lattice_reads_match_the_element_pair_oracles(name):
    # solubility read from the chief factors, [A, B] read from the normal
    # subgroups for every pair of them, [G, G] and its nilpotency, against
    # the oracles that close commutators of every pair of elements
    lat = lat_of(name)
    table = lat.table
    soluble = oracle_is_soluble(table)
    assert chief_factor_bound(lat).soluble == soluble
    normals = normal_subgroups(lat)
    for A in normals:
        for B in normals:
            assert commutator_subgroup(lat, A, B).elements == (
                oracle_commutator_subgroup(table, A.elements, B.elements)
            )
    full = lat.find(table.whole)
    derived = commutator_subgroup(lat, full, full)
    assert derived.elements == oracle_commutator_subgroup(table, table.whole, table.whole)
    nilpotent = oracle_is_nilpotent_set(table, derived.elements)
    assert is_nilpotent(lat, derived) == nilpotent
    if soluble:
        assert soluble_bounds_report(lat).derived_nilpotent == nilpotent
    else:
        with pytest.raises(NotSoluble):
            soluble_bounds_report(lat)


@pytest.mark.parametrize("name", ["SL23", "S4xC2", "S6"])
def test_soluble_reads_close_no_subgroup(name, monkeypatch):
    # with the lattice built, solubility, [G, G] and its lower central
    # series are read from the normal subgroups, with no closure
    lat = lat_of(name)
    calls = [0]
    original = GroupTable.closure

    def counted(self, gens, *rest):
        calls[0] += 1
        return original(self, gens, *rest)

    monkeypatch.setattr(GroupTable, "closure", counted)
    bound = chief_factor_bound(lat)
    if bound.soluble:
        soluble_bounds_report(lat)
    else:
        with pytest.raises(NotSoluble):
            soluble_bounds_report(lat)
    assert calls[0] == 0
    # the patch is live: a closure here is counted
    lat.table.closure(lat.table.gen_idx)
    assert calls[0] == 1


def test_catalog_has_41_lattices():
    assert len(CATALOG) == 41


def test_alpha_s4_with_oracle(s4):
    cert = alpha(s4)
    assert cert.value == 3
    assert _meets_in(cert.witness, frattini(s4).elements, cert.value)
    assert oracle_alpha_bruteforce(s4) == 3


def test_alpha_q8_with_oracle():
    lat = lat_of("Q8")
    cert = alpha(lat)
    assert cert.value == 2
    assert _meets_in(cert.witness, frattini(lat).elements, cert.value)
    # oracle: every pair of the three maximal C4s meets in the center
    maxs = lat.maximal_subgroups()
    fr = frattini(lat).elements
    for a, b in itertools.combinations(maxs, 2):
        assert a.elements & b.elements == fr


def test_alpha_klein_four():
    lat = lat_of("C2xC2")
    assert alpha(lat).value == 2


def test_alpha_cyclic_prime():
    assert alpha(lat_of("C3")).value == 1


def test_alpha_matches_oracle_on_catalog():
    for name in ["C6", "C12", "D8", "D12", "A4", "F20", "SL23", "C2xC2xC2"]:
        lat = lat_of(name)
        assert alpha(lat).value == oracle_alpha_bruteforce(lat), name


def test_base_size_point_stabilizer_s5(s5):
    # stabilizer of a point in the natural degree-5 action
    stab = next(
        r
        for r in s5.subgroups
        if r.order == 24
        and all(s5.table.elements[x][4] == 4 for x in r.elements)
    )
    cert = base_size_subgroup(s5, stab)
    assert cert.value == 4
    assert _conjugates_meet_in_core(s5.table, cert)


def test_base_size_a5_over_a4():
    lat = lat_of("A5")
    a4 = next(r for r in lat.subgroups if r.order == 12)
    cert = base_size_subgroup(lat, a4)
    assert cert.value == 3
    assert _conjugates_meet_in_core(lat.table, cert)
    # oracle: stabilizer chain of the natural action (A4 = point stabilizer):
    # two points leave C3, three points leave 1
    table = lat.table
    fix2 = [
        x
        for x in a4.elements
        if table.elements[x][3] == 3
    ]
    assert len(fix2) == 3  # C3
    fix3 = [x for x in fix2 if table.elements[x][2] == 2]
    assert len(fix3) == 1


def test_base_size_normal_subgroup_is_one(s4):
    a4 = next(r for r in s4.subgroups if r.order == 12)
    cert = base_size_subgroup(s4, a4)
    assert cert.value == 1


def test_beta_a5_exhaustive_oracle():
    lat = lat_of("A5")
    res = beta(lat)
    assert res.value == 2
    # oracle: over every maximal subgroup, try all conjugate pairs
    table = lat.table
    fr = frattini(lat).elements
    best = None
    for H in lat.maximal_subgroups():
        if core(lat, H).elements != fr:
            continue
        conjs = {H.elements}
        stack = [H.elements]
        while stack:
            cur = stack.pop()
            for g in table.gen_idx:
                c = table.conjugate_set(cur, g)
                if c not in conjs:
                    conjs.add(c)
                    stack.append(c)
        for other in conjs:
            if H.elements & other == fr:
                best = 2 if best is None else min(best, 2)
    assert best == res.value


def test_beta_q8_infinite():
    res = beta(lat_of("Q8"))
    assert res.value == math.inf
    assert res.chosen is None
    # evidence: each maximal class has core strictly above the Frattini
    assert all(order > res.frattini_order for _, order in res.empty_star_evidence)


def test_beta_c4_is_one():
    res = beta(lat_of("C4"))
    assert res.value == 1


def test_chief_series_s4(s4):
    rep = chief_series(s4)
    assert [f.order for f in rep.factors] == [2, 3, 4]
    assert rep.chief_length == 3
    assert rep.non_frattini_count == 3
    assert all(f.abelian for f in rep.factors)
    # oracle: the normal subgroups of S4 are 1, V4, A4, S4
    orders = [r.order for r in rep.series]
    assert orders == [24, 12, 4, 1]


def test_chief_series_c4():
    rep = chief_series(lat_of("C4"))
    assert rep.chief_length == 2
    assert rep.non_frattini_count == 1


def test_chief_series_klein():
    rep = chief_series(lat_of("C2xC2"))
    assert rep.chief_length == 2
    assert rep.non_frattini_count == 2


def test_chief_series_s5(s5):
    rep = chief_series(s5)
    assert [f.order for f in rep.factors] == [2, 60]
    assert [f.abelian for f in rep.factors] == [True, False]
    assert [f.composition_length for f in rep.factors] == [1, 1]
    assert rep.non_frattini_count == 2


def test_factor_orders_multiply(s4):
    for name in ["S4", "D12", "SL23", "C12", "F42"]:
        lat = lat_of(name)
        rep = chief_series(lat)
        prod = 1
        for f in rep.factors:
            prod *= f.order
        assert prod == lat.table.n
        assert rep.non_frattini_count <= rep.chief_length


def _sub_perm_group(table, gens):
    return PermGroup([table.elements[g] for g in gens], table.degree)


def _quotient(lat, K):
    """Reference quotient route: the lattice of G/K, built from the image
    of the coset action on K, and the map from G onto that image."""
    if K.order == 1:
        return lat, lambda perm: perm
    action = CosetAction(lat.table.group, _sub_perm_group(lat.table, K.generators))
    return Lattice(GroupTable(action.image, 2000)), action.perm_image


def oracle_composition_length(group):
    """Composition length by quotients: a least minimal normal subgroup
    N, then N and G/N in their own lattices."""
    if group.order == 1:
        return 0
    lat = Lattice(GroupTable(group, 2000))
    normals = [r for r in normal_subgroups(lat) if r.order > 1]
    minimal = min(normals, key=lambda r: (r.order, r.key()))
    if minimal.order == group.order:
        return 1
    qlat, _ = _quotient(lat, minimal)
    return (
        oracle_composition_length(_sub_perm_group(lat.table, minimal.generators))
        + oracle_composition_length(qlat.table.group)
    )


def oracle_chief_flags(lat):
    """(non-Frattini flag, composition length) per chief factor H/K, and
    the chief length mod Frattini, each read off a lattice of a quotient."""
    flags = []
    for f in chief_series(lat).factors:
        qlat, image = _quotient(lat, f.bottom)
        gens = [image(lat.table.elements[g]) for g in f.top.generators]
        img = qlat.table.closure([qlat.table.index[g] for g in gens])
        nf = not img <= frattini(qlat).elements
        flags.append((nf, oracle_composition_length(PermGroup(gens, qlat.table.degree))))
    qlat, _ = _quotient(lat, frattini(lat))
    return flags, chief_series(qlat).chief_length


@pytest.mark.parametrize("name", sorted(set(BUILTIN_NAMES) | set(SOLUBLE_CATALOG)))
def test_chief_flags_match_quotient_oracle(name):
    lat = lat_of(name)
    if lat.table.n > 720:
        pytest.skip("the oracle covers orders up to 720")
    flags, mod_frattini = oracle_chief_flags(lat)
    rep = chief_series(lat)
    assert [(f.non_frattini, f.composition_length) for f in rep.factors] == flags
    assert chief_length_mod_frattini(lat) == mod_frattini


def test_chief_series_sl23_by_hand():
    # 1 < C2 < Q8 < SL(2,3): the centre C2 is the Frattini subgroup, and
    # SL(2,3)/C2 = A4 has chief factors V4 and C3, neither Frattini
    lat = lat_of("SL23")
    rep = chief_series(lat)
    assert [r.order for r in rep.series] == [24, 8, 2, 1]
    assert [f.order for f in rep.factors] == [3, 4, 2]
    assert [f.non_frattini for f in rep.factors] == [True, True, False]
    assert [f.composition_length for f in rep.factors] == [1, 2, 1]
    assert chief_length_mod_frattini(lat) == 2


def test_soluble_report_sl23():
    lat = lat_of("SL23")
    rep = soluble_bounds_report(lat)
    assert rep.chief_length == 3
    assert rep.alpha == 2
    assert rep.alpha_le_length
    # oracle: chief series 1 < C2 < Q8 < SL(2,3); Frattini = C2; the two
    # maximal classes Q8 and C6 intersect in C2
    assert frattini(lat).order == 2


def test_soluble_report_d8():
    rep = soluble_bounds_report(lat_of("D8"))
    assert rep.alpha == 2
    assert rep.non_frattini_count == 2
    assert rep.derived_nilpotent
    assert rep.alpha_le_non_frattini


def test_soluble_report_c6():
    rep = soluble_bounds_report(lat_of("C6"))
    assert rep.alpha == 2
    assert rep.chief_length == 2
    assert rep.non_frattini_count == 2


def test_soluble_rejects_a5():
    with pytest.raises(NotSoluble):
        soluble_bounds_report(lat_of("A5"))


def test_nilpotent_alpha_equals_delta():
    for name in ["C4", "C8", "C12", "Q8", "C2xC2", "C2xC4", "D8"]:
        lat = lat_of(name)
        rep = chief_series(lat)
        a = alpha(lat).value
        assert a == rep.non_frattini_count, name
        assert a == chief_length_mod_frattini(lat), name


def test_chief_bound_s4(s4):
    rep = chief_factor_bound(s4)
    # V4 (dim 2 over F2) and two 1-dimensional classes: bound 3 + 4 = 7
    assert sorted((c["delta"], c["dim_over_endo"]) for c in rep.abelian_classes) == [
        (1, 1), (1, 1), (1, 2)]
    assert rep.nonabelian_classes == []
    assert rep.bound == 7
    assert rep.alpha == 3
    assert rep.verdict


def test_chief_bound_klein():
    rep = chief_factor_bound(lat_of("C2xC2"))
    # both factors are isomorphic trivial modules: one class, delta=2, dim 1
    assert rep.abelian_classes == [{"delta": 2, "dim_over_endo": 1, "p": 2, "dim": 1}]
    assert rep.bound == 3
    assert rep.alpha == 2
    assert rep.verdict
    assert rep.soluble_bound == 5


def test_chief_bound_s5(s5):
    rep = chief_factor_bound(s5)
    assert rep.nonabelian_classes == [{"delta": 1, "composition_length": 1}]
    assert rep.verdict


def test_chief_bound_endomorphism_field():
    # C5 x C5 with trivial action: one class, delta 2, dim 1 each
    rep = chief_factor_bound(lat_of("C5xC5"))
    assert rep.abelian_classes == [{"delta": 2, "dim_over_endo": 1, "p": 5, "dim": 1}]
    # F21: the C7 factor is 1-dim over F7; C3 factor 1-dim over F3
    rep21 = chief_factor_bound(lat_of("F21"))
    assert sorted((c["delta"], c["dim_over_endo"]) for c in rep21.abelian_classes) == [
        (1, 1), (1, 1)]


def qhat_empirical(table, H, c):
    """Exact sum over prime-order classes of |x^G| * fpr(x)^c, with
    fpr(x) = |x^G ∩ H| / |x^G|, for the action on cosets of H."""
    if c < 1:
        raise ValueError("c must be at least 1")
    if H.order == table.n:
        raise ValueError("H must be a proper subgroup")
    seen = set()
    total = Fraction(0)
    for x in range(table.n):
        if x in seen or not _is_prime(perm_order(table.elements[x])):
            continue
        cls = set().union(*table.conjugates({x}))
        seen |= cls
        total += Fraction(len(cls & H.elements) ** c, len(cls) ** (c - 1))
    return total


def test_qhat_empirical_s5_point_stabilizer(s5):
    stab = next(
        r
        for r in s5.subgroups
        if r.order == 24
        and all(s5.table.elements[x][4] == 4 for x in r.elements)
    )
    q4 = qhat_empirical(s5.table, stab, 4)
    # with exact base size 4, the c=4 sum must not certify (it is >= 1);
    # oracle: direct class-by-class sum over the 120-element table
    assert q4 >= 1
    table = s5.table
    brute = Fraction(0)
    done = set()
    for x in range(table.n):
        if x in done or not _is_prime(perm_order(table.elements[x])):
            continue
        cls = set()
        stack = [x]
        cls.add(x)
        while stack:
            y = stack.pop()
            for g in range(table.n):
                z = table.mul[table.mul[table.inv[g]][y]][g]
                if z not in cls:
                    cls.add(z)
                    stack.append(z)
        done |= cls
        fpr = Fraction(len(cls & stab.elements), len(cls))
        brute += len(cls) * fpr**4
    assert q4 == brute


def _is_prime(n):
    return n >= 2 and all(n % p for p in range(2, int(n**0.5) + 1))


def test_qhat_implication_on_s6_wreath():
    lat = Lattice(GroupTable(group_from_spec("S6")))
    wreath = next(r for r in lat.maximal_subgroups() if r.order == 48)
    val = qhat_empirical(lat.table, wreath, 4)
    cert = base_size_subgroup(lat, wreath)
    assert cert.value == 4
    if val < 1:
        assert cert.value <= 4


def test_qhat_rejects_whole_group(s4):
    with pytest.raises(ValueError):
        qhat_empirical(s4.table, s4.find(frozenset(range(24))), 3)


def test_qhat_certification_implies_base_size(s5):
    # wherever the sum certifies (< 1), the exact base size must not exceed c
    for lat in (s5, lat_of("S4"), lat_of("A5")):
        maxs = lat.maximal_subgroups()
        for rec in maxs:
            for c in (2, 3, 4):
                val = qhat_empirical(lat.table, rec, c)
                if val < 1:
                    assert base_size_subgroup(lat, rec).value <= c


def test_class_collapse_dominates_empirical_sums(s5):
    # merging prime-order classes with summed stabilizer counts and the
    # least class size can only increase the certified sum
    from minbase.bounds import Term

    table = s5.table
    stab = next(r for r in s5.subgroups if r.order == 24)
    visited = set()
    terms = []
    for x in range(table.n):
        if x in visited or not _is_prime(perm_order(table.elements[x])):
            continue
        cls = {x}
        stack = [x]
        while stack:
            y = stack.pop()
            for g in table.gen_idx:
                z = table.mul[table.mul[table.inv[g]][y]][g]
                if z not in cls:
                    cls.add(z)
                    stack.append(z)
        visited |= cls
        in_h = len(cls & stab.elements)
        if in_h:
            terms.append(Term(f"cls{x}", in_h, len(cls)))
    for c in (1, 2, 3, 4):
        direct = sum(
            Fraction(t.u) ** c / Fraction(t.v) ** (c - 1) for t in terms
        )
        assert merged_bound(terms, c) >= direct
