import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minbase import lattice, perm
from minbase.catalog import BUILTIN_NAMES, SOLUBLE_CATALOG, group_from_spec
from minbase.lattice import (
    GroupTable,
    Lattice,
    OrderCapExceeded,
    commutator_subgroup,
    core,
    frattini,
    is_nilpotent,
    normal_subgroups,
)
from oracles import oracle_is_soluble


def oracle_subgroups_upto_3_generators(table):
    """Oracle: closures of all generator sets of size <= 3, deduplicated.

    Complete for groups whose subgroups are all 3-generated (true for
    every group of order <= 24 here)."""
    found = {frozenset([table.identity])}
    m = table.n
    singles = []
    for a in range(m):
        s = table.closure([a])
        if s not in found:
            found.add(s)
        singles.append(s)
    for a in range(m):
        for bb in range(a + 1, m):
            found.add(table.closure([a, bb]))
    for a in range(m):
        for bb in range(a + 1, m):
            for c in range(bb + 1, m):
                found.add(table.closure([a, bb, c]))
    return found


@pytest.fixture(scope="module")
def s4_lattice():
    return Lattice(GroupTable(group_from_spec("S4")))


def test_s3_subgroups():
    lat = Lattice(GroupTable(group_from_spec("S3")))
    assert len(lat.subgroups) == 6
    assert sorted(r.order for r in lat.subgroups) == [1, 2, 2, 2, 3, 6]


def test_q8_subgroups():
    lat = Lattice(GroupTable(group_from_spec("Q8")))
    assert len(lat.subgroups) == 6
    assert sorted(r.order for r in lat.subgroups) == [1, 2, 4, 4, 4, 8]
    maxs = lat.maximal_subgroups()
    assert len(maxs) == 3 and all(r.order == 4 for r in maxs)


def test_s4_subgroup_count_vs_oracle(s4_lattice):
    lat = s4_lattice
    assert len(lat.subgroups) == 30
    oracle = oracle_subgroups_upto_3_generators(lat.table)
    assert {r.elements for r in lat.subgroups} == oracle


def test_s4_maximals(s4_lattice):
    maxs = s4_lattice.maximal_subgroups()
    assert sorted(r.order for r in maxs) == [6, 6, 6, 6, 8, 8, 8, 12]
    # oracle: maximality by scanning the full lattice
    subs = s4_lattice.subgroups
    for rec in subs:
        if rec.order == 24:
            continue
        is_max = not any(
            rec.elements < other.elements and other.order < 24 for other in subs
        )
        assert is_max == (rec in maxs)


def test_non_maximals_lie_under_some_maximal():
    for name in ["S4", "Q8", "D12", "SL23"]:
        lat = Lattice(GroupTable(group_from_spec(name)))
        maxs = lat.maximal_subgroups()
        for rec in lat.subgroups:
            if rec.order == lat.table.n or rec in maxs:
                continue
            assert any(rec.elements <= m.elements for m in maxs)


def test_every_subgroup_is_closed(s4_lattice):
    mul = s4_lattice.table.mul
    for rec in s4_lattice.subgroups:
        assert all(mul[a][b] in rec.elements for a in rec.elements for b in rec.elements)
        assert rec.order == len(rec.elements)


def test_frattini_s4_trivial(s4_lattice):
    assert frattini(s4_lattice).order == 1


def test_frattini_q8_is_center():
    lat = Lattice(GroupTable(group_from_spec("Q8")))
    fr = frattini(lat)
    assert fr.order == 2
    # oracle: intersect the three maximal C4s directly
    maxs = lat.maximal_subgroups()
    inter = frozenset.intersection(*(r.elements for r in maxs))
    assert fr.elements == inter


def test_frattini_c4():
    lat = Lattice(GroupTable(group_from_spec("C4")))
    assert frattini(lat).order == 2


def test_frattini_contained_in_every_maximal():
    for name in ["S4", "Q8", "D12", "SL23", "C12"]:
        lat = Lattice(GroupTable(group_from_spec(name)))
        fr = frattini(lat)
        for rec in lat.maximal_subgroups():
            assert fr.elements <= rec.elements
        # normality
        for g in lat.table.gen_idx:
            assert lat.table.conjugate_set(fr.elements, g) == fr.elements


def _subgroup_by_order_containing(lat, order, element=None):
    for rec in lat.subgroups:
        if rec.order == order and (element is None or element in rec.elements):
            return rec
    raise AssertionError("no such subgroup")


def test_core_s4(s4_lattice):
    lat = s4_lattice
    table = lat.table

    def brute_core(rec):
        inter = set(rec.elements)
        for g in range(table.n):
            inter &= table.conjugate_set(rec.elements, g)
        return frozenset(inter)

    d8 = _subgroup_by_order_containing(lat, 8)
    assert core(lat, d8).order == 4
    assert core(lat, d8).elements == brute_core(d8)
    a4 = _subgroup_by_order_containing(lat, 12)
    assert core(lat, a4).elements == a4.elements
    s3 = _subgroup_by_order_containing(lat, 6)
    assert core(lat, s3).order == 1
    assert brute_core(s3) == core(lat, s3).elements


def test_conjugates_match_conjugation_by_every_element(s4_lattice):
    table = s4_lattice.table
    for rec in s4_lattice.subgroups:
        conj = table.conjugates(rec.elements)
        brute = {table.conjugate_set(rec.elements, g) for g in range(table.n)}
        assert set(conj) == brute
        assert conj[rec.elements] == table.identity
        for image, g in conj.items():
            assert table.conjugate_set(rec.elements, g) == image


def test_normal_subgroups_s4(s4_lattice):
    normals = normal_subgroups(s4_lattice)
    assert sorted(r.order for r in normals) == [1, 4, 12, 24]


def test_solubility_and_nilpotency():
    table_s4 = GroupTable(group_from_spec("S4"))
    assert oracle_is_soluble(table_s4)
    table_a5 = GroupTable(group_from_spec("A5"))
    assert not oracle_is_soluble(table_a5)
    q8 = Lattice(GroupTable(group_from_spec("Q8")))
    assert is_nilpotent(q8, q8.find(q8.table.whole))
    s4 = Lattice(table_s4)
    full = s4.find(table_s4.whole)
    assert not is_nilpotent(s4, full)
    # derived series: [S4,S4] = A4, [A4,A4] = V4, which is nilpotent
    derived = commutator_subgroup(s4, full, full)
    assert derived.order == 12
    assert commutator_subgroup(s4, derived, derived).order == 4
    assert not is_nilpotent(s4, derived)


def test_order_cap():
    with pytest.raises(OrderCapExceeded):
        GroupTable(group_from_spec("S6"), order_cap=100)


def test_closure_matches_brute(s4_lattice):
    table = s4_lattice.table
    for gens in [(1,), (2, 5), (3, 7, 11)]:
        got = table.closure(list(gens))
        # brute force closure by repeated multiplication
        elems = {table.identity, *gens}
        changed = True
        while changed:
            changed = False
            for a in list(elems):
                for b in list(elems):
                    c = table.mul[a][b]
                    if c not in elems:
                        elems.add(c)
                        changed = True
        assert got == frozenset(elems)


def oracle_closure(table, gens):
    """Oracle: the closure walked element by element, each seen element
    times each generator, with no coset and no early stop."""
    e, mul = table.identity, table.mul
    seen = {e}
    frontier = [e]
    while frontier:
        row = mul[frontier.pop()]
        for g in gens:
            y = row[g]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return frozenset(seen)


def oracle_double_coset_reps(table, elems, gens, normalizer=()):
    """Oracle: the least element of each double coset HgH outside H, each
    double coset walked element by element on both sides; with normalizer
    elements, the least element of each orbit of the group N they generate
    with H on those double cosets, by conjugating by every element of N."""
    mul, inv = table.mul, table.inv
    gens = list(gens) or [table.identity]
    visited = bytearray(table.n)
    for x in elems:
        visited[x] = 1
    double_coset = {}  # element outside H -> the least element of its HgH
    for g in range(table.n):
        if visited[g]:
            continue
        stack = [g]
        visited[g] = 1
        double_coset[g] = g
        while stack:
            x = stack.pop()
            for h in gens:
                for y in (mul[h][x], mul[x][h]):
                    if not visited[y]:
                        visited[y] = 1
                        double_coset[y] = g
                        stack.append(y)
    N = oracle_closure(table, gens + list(normalizer))
    reps, reached = [], set()
    for g in sorted(set(double_coset.values())):
        if g not in reached:
            reps.append(g)
            reached.update(double_coset[mul[mul[inv[n]][g]][n]] for n in N)
    return reps


# C7: prime order, so every nonidentity element generates the whole group;
# S1: order 1, where the trivial subgroup is the whole group
CLOSURE_SPECS = ["S4", "S5", "A6", "PGL27", "C7", "S1"]


@pytest.mark.parametrize("spec", CLOSURE_SPECS)
def test_coset_closure_and_double_cosets_match_the_oracles(spec):
    # The property runs inside this test so that its outcomes can be
    # counted: the drawn cases must reach the whole group, where the
    # Lagrange stop fires, and, beside it, a proper subgroup.
    table = GroupTable(group_from_spec(spec))
    sizes = set()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.integers(0, table.n - 1), min_size=1, max_size=4))
    def check(gens):
        want = oracle_closure(table, gens)
        base = table.closure(gens[:-1])
        assert base == oracle_closure(table, gens[:-1])
        assert table.closure(gens) == want
        assert table.closure(gens, base) == want
        for elems, sub_gens in ((base, gens[:-1]), (want, gens)):
            reps = table.double_cosets(elems, sub_gens)
            assert reps == oracle_double_coset_reps(table, elems, sub_gens)
            # one per orbit of the normalizer, from the class walk's
            # Schreier generators
            schreier = table.class_walk(elems)[1]
            reps = table.double_cosets(elems, sub_gens, schreier)
            assert reps == oracle_double_coset_reps(table, elems, sub_gens, schreier)
        sizes.add(len(want))

    check()
    assert table.n in sizes
    if table.n > 7:
        assert min(sizes) < table.n


@pytest.mark.parametrize("spec", CLOSURE_SPECS)
def test_coset_closure_edge_cases(spec):
    table = GroupTable(group_from_spec(spec))
    e, whole = table.identity, frozenset(range(table.n))
    trivial = frozenset([e])
    # a base that is already the whole group has no proper divisor to stop
    # at: it comes back at once, whatever the new generator
    for g in (e, table.n - 1):
        assert table.closure(table.gen_idx + [g], whole) == whole
    # the identity alone, or nothing, generates the trivial subgroup
    for gens in ([], [e], [e, e]):
        assert table.closure(gens) == trivial
        assert table.closure(gens, trivial) == trivial
    assert table.closure(table.gen_idx) == whole
    assert table.double_cosets(whole, table.gen_idx) == []
    # over the trivial subgroup each double coset is one element
    assert table.double_cosets(trivial, []) == [g for g in range(table.n) if g != e]


@pytest.mark.parametrize("spec", ["S4", "S5", "PGL27"])
def test_is_maximal_matches_the_lattice(spec):
    # oracle: a proper subgroup is maximal when no subgroup lies strictly
    # between it and the whole group
    lat = Lattice(GroupTable(group_from_spec(spec)))
    full = frozenset(range(lat.table.n))
    for rec in lat.subgroups:
        maximal = rec.elements < full and not any(
            rec.elements < other.elements < full for other in lat.subgroups
        )
        assert lat.table.is_maximal(rec.elements, rec.generators) == maximal


def full_walk(table):
    """Oracle: the walk that extends every subgroup, not one per class, by
    each double-coset representative.  Returns the element sets of all
    subgroups and of the maximal ones."""
    m = table.n
    trivial, full = frozenset([table.identity]), frozenset(range(m))
    gens_of = {trivial: (), full: tuple(table.gen_idx)}
    maximal = set()
    worklist = [trivial]
    for elems in worklist:
        gens = list(gens_of[elems])
        reached_only_full = True
        if 2 * len(elems) < m:
            for g in table.double_cosets(elems, gens):
                new_elems = table.closure(gens + [g])
                if len(new_elems) < m:
                    reached_only_full = False
                    if new_elems not in gens_of:
                        gens_of[new_elems] = tuple(gens) + (g,)
                        worklist.append(new_elems)
        if reached_only_full and len(elems) < m:
            maximal.add(elems)
    return set(gens_of), maximal


@pytest.mark.parametrize(
    "spec", sorted((set(BUILTIN_NAMES) | set(SOLUBLE_CATALOG)) - {"S6"})
)
def test_class_walk_matches_the_full_walk(spec):
    table = GroupTable(group_from_spec(spec))
    lat = Lattice(table)
    subgroups, maximal = full_walk(table)
    assert {r.elements for r in lat.subgroups} == subgroups
    assert len(lat.subgroups) == len(subgroups)
    assert {r.elements for r in lat.maximal_subgroups()} == maximal
    assert {r.elements for r in normal_subgroups(lat)} == {
        s for s in subgroups
        if all(table.conjugate_set(s, g) == s for g in table.gen_idx)
    }
    # each class is one conjugacy class, closed under every element
    for cls in lat.classes:
        members = {r.elements for r in cls}
        assert members == {
            table.conjugate_set(cls[0].elements, g) for g in range(table.n)
        }
        assert [r.key() for r in cls] == sorted(r.key() for r in cls)
    assert [cls[0].key() for cls in lat.classes] == sorted(
        cls[0].key() for cls in lat.classes
    )
    assert sum(len(cls) for cls in lat.classes) == len(lat.subgroups)
    # conjugated generators generate the member they are listed for
    for rec in lat.subgroups:
        assert table.closure(rec.generators) == rec.elements
    assert [(r.order, r.key()) for r in lat.subgroups] == sorted(
        (r.order, r.key()) for r in lat.subgroups
    )


def unpruned_class_walk(table):
    """Oracle: the class walk extending each class representative by the
    least element of every double coset outside it, with no normalizer
    pruning.  Returns the classes in the order met, each listing its
    records in conjugates-walk order, and the element sets of the maximal
    subgroups."""
    m, mul, inv = table.n, table.mul, table.inv
    found = {}
    classes = []
    maximal = set()

    def meet(elems, gens):
        if elems in found:
            return
        cls = []
        for conj, c in table.conjugates(elems).items():
            conj_gens = tuple(mul[mul[inv[c]][g]][c] for g in gens)
            found[conj] = lattice.SubgroupRecord(conj, len(conj), conj_gens)
            cls.append(found[conj])
        classes.append(cls)

    meet(frozenset([table.identity]), ())
    meet(table.whole, tuple(table.gen_idx))
    for cls in classes:
        rep = cls[0]
        if rep.order == m:
            continue
        reached_only_full = True
        if 2 * rep.order < m:
            gens = list(rep.generators)
            for g in oracle_double_coset_reps(table, rep.elements, gens):
                new_elems = table.closure(gens + [g], rep.elements)
                if len(new_elems) < m:
                    reached_only_full = False
                    meet(new_elems, tuple(gens) + (g,))
        if reached_only_full:
            maximal.update(r.elements for r in cls)
    return classes, maximal


@pytest.mark.parametrize("spec", sorted(set(BUILTIN_NAMES) | set(SOLUBLE_CATALOG)))
def test_pruned_class_walk_matches_the_unpruned_walk(spec):
    # record for record: elements, order and generator tuple of every
    # member, the class order and the maximal set
    table = GroupTable(group_from_spec(spec))
    lat = Lattice(table)
    classes, maximal = unpruned_class_walk(table)
    for cls in classes:
        cls.sort(key=lattice.SubgroupRecord.key)
    classes.sort(key=lambda cls: cls[0].key())
    assert lat.classes == classes
    assert lat.subgroups == sorted(
        (r for cls in classes for r in cls), key=lambda r: (r.order, r.key())
    )
    assert {r.elements for r in lat.maximal_subgroups()} == maximal


@pytest.mark.parametrize("spec", ["S4", "S5", "PGL27", "D24", "Q16"])
def test_class_walk_schreier_generators_generate_the_normalizer(spec):
    lat = Lattice(GroupTable(group_from_spec(spec)))
    table = lat.table
    for cls in lat.classes:
        H = cls[0].elements
        conjugates, schreier = table.class_walk(H)
        assert all(table.conjugate_set(H, n) == H for n in schreier)
        brute = frozenset(x for x in range(table.n) if table.conjugate_set(H, x) == H)
        assert table.closure(schreier) == brute
        assert len(conjugates) * len(brute) == table.n
        # the double cosets the build extends: one per normalizer orbit
        gens = cls[0].generators
        assert table.double_cosets(H, gens, schreier) == oracle_double_coset_reps(
            table, H, gens, schreier
        )


def test_s6_class_walk_counts(monkeypatch):
    # the full walk takes 47,403 closures here: one per double coset of
    # every subgroup, not of one subgroup per class
    table = GroupTable(group_from_spec("S6"))
    calls = [0]
    original = GroupTable.closure

    def counted(self, gens, *rest):
        calls[0] += 1
        return original(self, gens, *rest)

    monkeypatch.setattr(GroupTable, "closure", counted)
    lat = Lattice(table)
    assert len(lat.subgroups) == 1455
    assert len(lat.classes) == 56
    assert len(lat.maximal_subgroups()) == 53
    # one closure per extension, as perfbench/selftest.py prints: one per
    # normalizer orbit of double cosets of each class representative (the
    # class walk extending every double coset took 2,289)
    assert calls[0] == 586


def test_hard_cap_admits_no_nonabelian_chief_factor_t_squared():
    # chief_series gives a nonabelian chief factor T^k composition length
    # 1 because k = 1: |T| >= 60, so k >= 2 needs order >= 60 ** 2.  Raising
    # the cap past that needs the composition lengths computed another way.
    assert GroupTable.HARD_CAP < 60 ** 2


def base_key_table(group):
    """Oracle: the multiplication table and inverses built element by
    element, each product found by its images of the chain base."""
    elems = sorted(group.elements())
    index = {p: i for i, p in enumerate(elems)}
    base = group.base if group.base else [0]
    key_of = {tuple(p[b] for b in base): i for i, p in enumerate(elems)}
    mul = [[key_of[tuple(q[p[b]] for b in base)] for q in elems] for p in elems]
    return mul, [index[perm.inverse(p)] for p in elems]


@pytest.mark.parametrize(
    # S1: no generators, a table of one row
    "spec", sorted(set(BUILTIN_NAMES) | set(SOLUBLE_CATALOG) | {"S1"})
)
def test_row_walk_table_matches_the_base_key_table(spec):
    group = group_from_spec(spec)
    table = GroupTable(group)
    mul, inv = base_key_table(group)
    assert (table.mul, table.inv) == (mul, inv)
    # one conjugation row x -> g^-1 x g per generator
    assert table.conj_rows == [
        [mul[mul[inv[g]][x]][g] for x in range(table.n)] for g in table.gen_idx
    ]


def test_s6_table_compose_budget(monkeypatch):
    # the element list and every row are gathered at C level: products of
    # permutations in the element list, then each generator's row, then
    # each row read through a generator row; none calls compose
    group = group_from_spec("S6")
    calls = [0]
    original = perm.compose

    def counted(p, q):
        calls[0] += 1
        return original(p, q)

    for module in (perm, lattice):
        if hasattr(module, "compose"):
            monkeypatch.setattr(module, "compose", counted)
    assert GroupTable(group).n == 720
    assert calls[0] == 0
    # the patch is live: a compose in the build would have been counted
    perm.compose((1, 0), (1, 0))
    assert calls[0] == 1


def test_table_and_lattice_of_c2():
    # every coset, conjugate and double coset here has one element, so
    # every gather is over one index
    table = GroupTable(group_from_spec("C2"))
    e = table.identity
    x = 1 - e
    assert table.n == 2
    assert table.mul[e] == [0, 1] and table.mul[x][x] == e
    assert table.inv == [0, 1]
    assert table.conj_rows == [[0, 1]]
    trivial = frozenset([e])
    assert table.closure([x]) == table.whole
    assert table.closure([x], trivial) == table.whole
    # the generator's edge back to the trivial subgroup: a Schreier
    # generator of its normalizer, the whole group
    assert table.class_walk(trivial) == ({trivial: e}, [x])
    assert table.double_cosets(trivial, []) == [x]
    assert table.is_maximal(trivial, ())
    lat = Lattice(table)
    assert [r.order for r in lat.subgroups] == [1, 2]
    assert [r.elements for r in lat.maximal_subgroups()] == [trivial]
    assert frattini(lat).elements == trivial


def test_table_and_lattice_of_s1():
    # the trivial group: no generators, one row, one subgroup, which is the
    # whole group and so not maximal
    table = GroupTable(group_from_spec("S1"))
    assert (table.n, table.mul, table.inv, table.conj_rows) == (1, [[0]], [0], [[0]])
    assert table.class_walk(table.whole) == ({table.whole: 0}, [0])
    assert table.double_cosets(table.whole, []) == []
    assert not table.is_maximal(table.whole, ())
    lat = Lattice(table)
    assert [r.elements for r in lat.subgroups] == [table.whole]
    assert lat.maximal_subgroups() == []
    assert frattini(lat).elements == table.whole


@pytest.mark.parametrize("spec", ["C3", "C6", "Q8", "S4", "S5", "A6"])
def test_orbit_walk_from_the_trivial_subgroup(spec, monkeypatch):
    # Over the trivial subgroup H each double coset is one element and
    # N_G(H) = G, so the walk marks whole conjugacy classes of elements:
    # the trivial subgroup is extended by the least element of each class
    # outside the identity, in increasing order.  (In C2 the trivial
    # subgroup has index 2 and is not extended at all.)
    table = GroupTable(group_from_spec(spec))
    trivial = frozenset([table.identity])
    extended = []
    original = GroupTable.closure

    def recorded(self, gens, base=None):
        if base == trivial:
            extended.append(gens[-1])
        return original(self, gens, base)

    monkeypatch.setattr(GroupTable, "closure", recorded)
    Lattice(table)
    mul, inv = table.mul, table.inv
    classes = {
        frozenset(mul[mul[inv[g]][x]][g] for g in range(table.n))
        for x in range(table.n) if x != table.identity
    }
    assert extended == sorted(min(c) for c in classes)
