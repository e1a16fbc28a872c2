import itertools
import math
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from minbase import cli, partitions, perm
from minbase.partitions import (
    CertificationError,
    PreconditionError,
    SearchBudgetExceeded,
    SetPartition,
    _forced_symmetry,
    _is_least_base_size,
    _search_base,
    apply_to_canonical,
    base_size_partitions,
    construct_bcd_equal,
    construct_bcd_plus1,
    construct_bcd_plus2,
    format_partition,
    minimal_partition_base,
    parse_partition,
    partition_base_size_value,
    partition_stabilizer,
    uniform_partition,
    wreath_generators,
)
from minbase.perm import PermGroup, sign
from oracles import chain_of, lookup_products, random_uniform_partition


def brute_stabilizer_order(partitions, parity="all"):
    """Oracle: filter all n! permutations of the ground set."""
    n = partitions[0].ground_size
    keys = [p.canonical() for p in partitions]
    count = 0
    for images in itertools.permutations(range(n)):
        if parity == "even" and sign(images) < 0:
            continue
        if all(apply_to_canonical(images, k) == k for k in keys):
            count += 1
    return count


def test_partition_parse_format_roundtrip():
    p = parse_partition("{1,2,3}|{4,5,6}|{7,8,9}", 9)
    assert p.blocks == ((0, 1, 2), (3, 4, 5), (6, 7, 8))
    assert format_partition(p) == "{1,2,3}|{4,5,6}|{7,8,9}"


def test_partition_validation():
    with pytest.raises(ValueError):
        SetPartition.from_blocks(4, [[0, 1], [1, 2]])
    with pytest.raises(ValueError):
        SetPartition.from_blocks(4, [[0, 1]])


def test_partition_constructor_validates():
    # the constructor itself checks the blocks, not only from_blocks
    with pytest.raises(ValueError):
        SetPartition(4, ((0, 1), (1, 2)))
    with pytest.raises(ValueError):
        SetPartition(4, ((0, 1),))


def test_grid_domain_sizes():
    for a in range(4, 9):
        assert construct_bcd_plus2(a)[0].ground_size == a * (a - 2)
    for a in range(5, 9):
        assert construct_bcd_plus1(a)[0].ground_size == a * (a - 1)
    for a in range(6, 9):
        assert construct_bcd_equal(a)[0].ground_size == a * a


@pytest.mark.parametrize("a", [4, 5, 6, 10])
def test_plus2_shape(a):
    B, C, D = construct_bcd_plus2(a)
    for part in (B, C, D):
        assert len(part.blocks) == a
        assert all(len(b) == a - 2 for b in part.blocks)
    if a == 4:
        # beyond the swapped pair, the third partition repeats the rows
        assert D.blocks[2:] == B.blocks[2:]


@pytest.mark.parametrize("a", [5, 6, 7])
def test_plus1_shape(a):
    B, C, D = construct_bcd_plus1(a)
    for part in (B, C, D):
        assert len(part.blocks) == a
        assert all(len(b) == a - 1 for b in part.blocks)
    if a % 2 == 1:
        assert D.blocks[a - 1] == B.blocks[a - 1]


def cross_counts(P: SetPartition, Q: SetPartition):
    """Matrix of |P_r ∩ Q_s| block intersection sizes."""
    m = [[0] * len(Q.blocks) for _ in range(len(P.blocks))]
    for x, y in zip(P.block_of(), Q.block_of()):
        m[x][y] += 1
    return m


def signature_counts(C: SetPartition, D: SetPartition):
    """Tallies (c, d): c[r][i] = #{s : |C_r ∩ D_s| = i} and the transpose
    tally d[r][i] = #{s : |C_s ∩ D_r| = i}, for 1-based block indices r."""
    m = cross_counts(C, D)
    a = len(C.blocks)
    c = {r: {} for r in range(1, a + 1)}
    d = {r: {} for r in range(1, len(D.blocks) + 1)}
    for r in range(a):
        for s in range(len(D.blocks)):
            v = m[r][s]
            c[r + 1][v] = c[r + 1].get(v, 0) + 1
            d[s + 1][v] = d[s + 1].get(v, 0) + 1
    return c, d


def expected_signature_tables(a: int):
    """The paper's predicted c_r(i), d_r(i) values for the equal-case triple.

    Returns (c, d) as dicts r -> (count at i=0, i=1, i=2); defined for
    a >= 7 odd and a >= 6 even.
    """
    k = a // 2
    c = {}
    d = {}
    if a % 2 == 1:
        if a < 7:
            raise PreconditionError("odd tables start at a = 7")
        c[1] = (k - 1, 3, k - 1)
        c[2] = (k, 1, k)
        c[3] = (k - 2, 5, k - 2)
        c[4] = (k - 1, 3, k - 1)
        for i in range(2, k):
            c[2 * i + 1] = c[2 * i + 2] = (k - i, 2 * i + 1, k - i)
        c[a] = (0, a, 0)
        for i in range(k - 1):
            d[2 * i + 1] = d[2 * i + 2] = (i + 1, a - 2 * i - 2, i + 1)
        d[2 * k - 1] = d[2 * k] = (k - 1, 3, k - 1)
        d[a] = (0, a, 0)
    else:
        if a < 6:
            raise PreconditionError("even tables start at a = 6")
        c[1] = (k - 1, 2, k - 1)
        c[2] = (k, 0, k)
        for i in range(1, k - 1):
            c[2 * i + 1] = c[2 * i + 2] = (k - i, 2 * i, k - i)
        c[2 * k - 1] = (1, 2 * k - 2, 1)
        c[2 * k] = (0, 2 * k, 0)
        for i in range(k - 1):
            d[2 * i + 1] = d[2 * i + 2] = (i + 1, a - 2 * i - 2, i + 1)
        d[2 * k - 1] = d[2 * k] = (k - 1, 2, k - 1)
    return c, d


@pytest.mark.parametrize("a", [6, 7, 8, 9])
def test_equal_shape_and_signatures(a):
    B, C, D = construct_bcd_equal(a)
    for part in (B, C, D):
        assert len(part.blocks) == a
        assert all(len(b) == a for b in part.blocks)
    c, d = signature_counts(C, D)
    ce, de = expected_signature_tables(a)
    for r in range(1, a + 1):
        got_c = tuple(c[r].get(i, 0) for i in (0, 1, 2))
        got_d = tuple(d[r].get(i, 0) for i in (0, 1, 2))
        assert got_c == ce[r], f"c_{r} mismatch at a={a}"
        assert got_d == de[r], f"d_{r} mismatch at a={a}"
        assert all(i in (0, 1, 2) for i in c[r])
        assert sum(c[r].values()) == a and sum(d[r].values()) == a


def test_construction_preconditions():
    with pytest.raises(PreconditionError):
        construct_bcd_plus2(3)
    with pytest.raises(PreconditionError):
        construct_bcd_plus1(4)
    with pytest.raises(PreconditionError):
        construct_bcd_equal(5)


def test_stabilizer_rows_and_columns_small_grid():
    # 3x3 grid rows+columns: order (3!)^2 = 36, cross-checked by 9!-filter.
    B = SetPartition.from_blocks(9, [[3 * i + j for j in range(3)] for i in range(3)])
    C = SetPartition.from_blocks(9, [[3 * i + j for i in range(3)] for j in range(3)])
    G = partition_stabilizer([B, C])
    assert G.order == 36
    assert brute_stabilizer_order([B, C]) == 36


def test_stabilizer_single_partition_is_wreath():
    for a, b in [(2, 2), (3, 2), (2, 3)]:
        part = uniform_partition(a, b)
        G = partition_stabilizer([part])
        assert G.order == math.factorial(b) ** a * math.factorial(a)


def test_stabilizer_generators_stabilize():
    rng = random.Random(11)
    part1 = random_uniform_partition(3, 2, rng)
    part2 = random_uniform_partition(3, 2, rng)
    G = partition_stabilizer([part1, part2])
    for g in G.generators:
        for p in (part1, part2):
            assert apply_to_canonical(g, p.canonical()) == p.canonical()


def test_stabilizer_matches_brute_force_random_families():
    # Oracle equivalence on random partition families, n <= 8.
    rng = random.Random(99)
    for _ in range(50):
        a, b = rng.choice([(2, 2), (3, 2), (2, 3), (4, 2), (2, 4), (3, 1)])
        k = rng.randrange(1, 4)
        parts = [random_uniform_partition(a, b, rng) for _ in range(k)]
        assert partition_stabilizer(parts).order == brute_stabilizer_order(parts)


def test_stabilizer_even_matches_brute_force():
    rng = random.Random(5)
    for _ in range(10):
        parts = [random_uniform_partition(3, 2, rng) for _ in range(2)]
        got = partition_stabilizer(parts, parity="even").order
        assert got == brute_stabilizer_order(parts, parity="even")


def _random_partition(n, rng):
    """A partition of n points into blocks of random sizes, the blocks and
    their points listed in random order."""
    pts = rng.sample(range(n), n)
    bounds = [0, *sorted(rng.sample(range(1, n), rng.randint(0, n - 1))), n]
    return SetPartition(n, tuple(tuple(pts[i:j]) for i, j in zip(bounds, bounds[1:])))


def _reordered(part, rng):
    """The same partition, its blocks and each block's points listed in
    another random order."""
    blocks = [tuple(rng.sample(blk, len(blk))) for blk in part.blocks]
    rng.shuffle(blocks)
    return SetPartition(part.ground_size, tuple(blocks))


def test_stabilizer_memo_key_ignores_block_order():
    # The memo keys a family on its canonical forms, so the family listed
    # in another order gets the same order and generator list, as a memo
    # hit and computed again after cache_clear; the other parity is a miss.
    rng = random.Random(26)
    for _ in range(600):
        n = rng.randint(2, 12)
        parts = [_random_partition(n, rng) for _ in range(rng.randint(1, 3))]
        parity = rng.choice(["all", "even"])
        partition_stabilizer.cache_clear()
        G = partition_stabilizer(parts, parity)
        hit = partition_stabilizer([_reordered(p, rng) for p in parts], parity)
        assert partition_stabilizer.cache_info()[:2] == (1, 1)  # hits, misses
        partition_stabilizer.cache_clear()
        cold = partition_stabilizer([_reordered(p, rng) for p in parts], parity)
        for H in (hit, cold):
            assert (H.order, H.generators) == (G.order, G.generators)
        partition_stabilizer(parts, "even" if parity == "all" else "all")
        assert partition_stabilizer.cache_info()[:2] == (0, 2)


def oracle_fixpoint(ctx, colors, tally):
    """Oracle: refinement by tuple signatures, a point's color followed by
    the tally of its block's colors in each partition, ranked by sorting
    the tuples.  Returns the fixpoint and the number of rounds, the last
    being the one that splits no cell."""
    rounds = 0
    while True:
        rounds += 1
        profiles = [[tally([colors[x] for x in blk]) for blk in blocks]
                    for blocks in ctx.blocks]
        sigs = [
            (colors[x],) + tuple(prof[of[x]] for prof, of in zip(profiles, ctx.block_of))
            for x in range(ctx.n)
        ]
        ranked = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = tuple(ranked[s] for s in sigs)
        if len(set(new)) == len(set(colors)):
            return new, rounds
        colors = new


def oracle_refine(ctx, colors, trace=None):
    """Oracle: the fixpoint whose tally is the sorted tuple of a block's
    colors, as the engine's.  It ignores the trace and hands it back, so
    a backtrack patched to use it refines every target in full: the
    unpruned backtrack."""
    return oracle_fixpoint(ctx, colors, lambda cs: tuple(sorted(cs)))[0], trace


def oracle_refine_by_counts(ctx, colors):
    """Label-free oracle: the cells of the fixpoint whose tally is a
    block's sorted (color, count) pairs, another form of the same
    multiset, and its number of rounds."""
    new, rounds = oracle_fixpoint(ctx, colors, lambda cs: tuple(sorted(Counter(cs).items())))
    return cells_of(new), rounds


def cells_of(colors):
    """The points grouped by color, each cell sorted, in order of least
    point."""
    cells = {}
    for x, c in enumerate(colors):
        cells.setdefault(c, []).append(x)
    return sorted(cells.values())


def assert_refines_as_counts_oracle(ctx, colors):
    """The engine's refinement of colors has the cells and round count of
    the (color, count) tally's, and returns the refined coloring."""
    refined, trace = ctx.refine(colors)
    assert (cells_of(refined), len(trace)) == oracle_refine_by_counts(ctx, colors)
    return refined


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 7), st.integers(1, 5), st.integers(1, 3),
    st.sampled_from(["all", "even"]), st.randoms(use_true_random=False),
)
def test_refine_matches_tuple_signature_oracle(a, b, k, parity, rng):
    parts = [random_uniform_partition(a, b, rng) for _ in range(k)]
    ctx = partitions._StabContext([p.canonical() for p in parts])
    colors = ctx.seed_colors
    for x in rng.sample(range(a * b), min(a * b, 4)):
        refined = assert_refines_as_counts_oracle(ctx, colors)
        assert refined == oracle_refine(ctx, colors)[0]
        colors = tuple(max(refined) + 1 if y == x else c for y, c in enumerate(refined))
    assert assert_refines_as_counts_oracle(ctx, colors) == oracle_refine(ctx, colors)[0]
    # each call computes: an answer from the memo would compare the
    # backtrack with itself
    partition_stabilizer.cache_clear()
    with mock.patch.object(partitions._StabContext, "refine", oracle_refine):
        expected = partition_stabilizer(parts, parity).generators
    partition_stabilizer.cache_clear()
    assert partition_stabilizer(parts, parity).generators == expected


def test_trace_stops_only_targets_without_an_image():
    # The property runs inside this test so that its stops can be counted:
    # without a floor, an edit that changes the derandomized examples could
    # leave the pruning unexercised.
    stops = []

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(2, 10), st.integers(2, 5), st.integers(1, 3),
        st.sampled_from(["all", "even"]), st.randoms(use_true_random=True),
    )
    def check(a, b, k, parity, rng):
        # k partitions drawn as the search draws its candidates: the canonical
        # one, then random ones until the filter of that parity sees no forced
        # symmetry.  The source and each target individualize two points of
        # one cell, as the backtrack's do, and the source's first path is
        # matched against each target, pruned and unpruned.
        assume(a * b <= 40)
        for _ in range(200):
            parts = [uniform_partition(a, b)]
            parts += [random_uniform_partition(a, b, rng) for _ in range(k - 1)]
            if not _forced_symmetry([p.block_of() for p in parts], parity):
                break
        ctx = partitions._StabContext([p.canonical() for p in parts])
        colors, _ = ctx.refine(ctx.seed_colors)
        cells = {}
        for z, c in enumerate(colors):
            cells.setdefault(c, []).append(z)
        shared = [cell for cell in cells.values() if len(cell) > 1]
        assume(shared)
        x, *targets = rng.choice(shared)
        src, trace = ctx.refine(ctx.individualize(colors, x))
        path = ctx.first_path(src)
        for y in targets:
            pruned = ctx.refine(ctx.individualize(colors, y), trace)
            unpruned = assert_refines_as_counts_oracle(ctx, ctx.individualize(colors, y))
            assert unpruned == oracle_refine(ctx, ctx.individualize(colors, y))[0]
            with mock.patch.object(partitions._StabContext, "refine", oracle_refine):
                image = ctx.find_auto(path, 0, unpruned)
            if pruned is None:
                assert image is None
                stops.append(y)
            else:
                assert pruned[0] == unpruned
                assert ctx.find_auto(path, 0, pruned[0]) == image

    check()
    assert len(stops) >= 10


@pytest.mark.parametrize(
    "ctor,a",
    [
        (construct_bcd_plus2, 5),
        (construct_bcd_plus2, 7),
        (construct_bcd_plus1, 5),
        (construct_bcd_plus1, 6),
        (construct_bcd_equal, 6),
        (construct_bcd_equal, 7),
    ],
)
def test_triples_certify_trivial(ctor, a):
    B, C, D = ctor(a)
    assert partition_stabilizer([B, C, D]).order == 1


def test_plus2_triple_is_not_a_base_at_a4():
    # With blocks of size 2 the swapped-pair triple keeps a Klein 4-group
    # of symmetries; the (4,2) base of size 3 comes from search instead.
    B, C, D = construct_bcd_plus2(4)
    assert partition_stabilizer([B, C, D]).order == 4


def test_plus2_triple_has_sporadic_symmetry_at_a6():
    # Known exception: at (a,b)=(6,4) the swapped-pair triple is fixed by
    # an involution exchanging rows 2,4 and columns 1,5 of the cyclic
    # grid, so its stabilizer has order 2 and the certified base for
    # (6,4) comes from search instead.
    B, C, D = construct_bcd_plus2(6)
    G = partition_stabilizer([B, C, D])
    assert G.order == 2
    g = G.generators[0]
    for part in (B, C, D):
        assert apply_to_canonical(g, part.canonical()) == part.canonical()


def test_minimal_base_64_falls_back_to_search():
    parts = minimal_partition_base(6, 4, seed=1)
    assert len(parts) == 3
    assert partition_stabilizer(parts).order == 1


def test_value_dispatch():
    assert partition_base_size_value(3, 2) == 4
    assert partition_base_size_value(4, 2) == 3
    assert partition_base_size_value(8, 3) == 2
    assert partition_base_size_value(10, 3) == 2
    assert partition_base_size_value(7, 3) == 3
    assert partition_base_size_value(7, 4) == 3
    assert partition_base_size_value(6, 3) == 3
    assert partition_base_size_value(5, 5) == 3
    assert partition_base_size_value(3, 2, "alt") == 3
    assert partition_base_size_value(8, 3, "alt") == 2
    assert partition_base_size_value(7, 5, "alt") == 2
    assert partition_base_size_value(6, 3, "alt") == 2
    assert partition_base_size_value(5, 3, "alt") == 3
    with pytest.raises(PreconditionError):
        partition_base_size_value(2, 2)
    with pytest.raises(PreconditionError):
        partition_base_size_value(3, 4)


def test_exact_small():
    assert len(base_size_partitions(3, 2, mode="exact")) == 4
    assert len(base_size_partitions(4, 2, mode="exact")) == 3
    assert len(base_size_partitions(3, 3, mode="exact")) == 3


def test_exact_alternating_32():
    assert len(base_size_partitions(3, 2, mode="exact", ambient="alt")) == 3


def test_upper_pair_search():
    parts = base_size_partitions(8, 3, mode="upper", seed=1)
    assert len(parts) == 2
    assert partition_stabilizer(parts).order == 1


def test_minimal_base_small_search_cases():
    for a, b in [(3, 3), (4, 3), (4, 4)]:
        parts = minimal_partition_base(a, b, seed=1)
        assert len(parts) == partition_base_size_value(a, b)
        assert partition_stabilizer(parts).order == 1


def test_minimal_base_constructed_cases():
    for a, b in [(7, 5), (6, 5), (6, 6)]:
        parts = minimal_partition_base(a, b)
        assert len(parts) == 3
        assert partition_stabilizer(parts).order == 1


def test_minimality_witness_on_exact_range():
    # dropping the last partition of a minimal base leaves a nontrivial
    # stabilizer wherever the exact value is known by enumeration
    for a, b in [(3, 2), (4, 2), (3, 3), (4, 3)]:
        parts = minimal_partition_base(a, b, seed=1)
        assert partition_stabilizer(parts).order == 1
        assert partition_stabilizer(parts[:-1]).order > 1


def test_wreath_generators_stabilize_canonical():
    for a, b in [(3, 2), (4, 3), (2, 5), (1, 5), (5, 1), (6, 4), (8, 3), (4, 8), (8, 8)]:
        part = uniform_partition(a, b).canonical()
        for g in wreath_generators(a, b):
            assert apply_to_canonical(g, part) == part
        W = PermGroup(wreath_generators(a, b), a * b)
        assert W.order == math.factorial(b) ** a * math.factorial(a)


def _grid_rows_and_columns(a):
    rows = [range(r * a, (r + 1) * a) for r in range(a)]
    cols = [range(c, a * a, a) for c in range(a)]
    return [SetPartition.from_blocks(a * a, rows), SetPartition.from_blocks(a * a, cols)]


SYMMETRIC_FAMILIES = [
    ([uniform_partition(6, 4)], "even", math.factorial(4) ** 6 * math.factorial(6) // 2),
    ([uniform_partition(8, 3)], "all", math.factorial(3) ** 8 * math.factorial(8)),
    (_grid_rows_and_columns(8), "all", math.factorial(8) ** 2),
]


@pytest.mark.parametrize("parts, parity, order", SYMMETRIC_FAMILIES)
def test_symmetric_family_stabilizer_orders(parts, parity, order):
    assert partition_stabilizer(parts, parity).order == order


@pytest.mark.parametrize("parts, parity, order", SYMMETRIC_FAMILIES)
def test_symmetric_family_chain_matches_lookup_products(parts, parity, order):
    # the chain over the backtrack's generators, and for parity even the
    # kernel's Schreier generators and chain, are the same with every
    # product of perm computed by one Python-level lookup per point
    partition_stabilizer.cache_clear()
    G = partition_stabilizer(parts, parity)
    partition_stabilizer.cache_clear()
    with lookup_products():
        H = partition_stabilizer(parts, parity)
    partition_stabilizer.cache_clear()
    assert H.order == order
    assert H.generators == G.generators
    assert chain_of(H) == chain_of(G)


def test_grid_stabilizer_compose_budget(monkeypatch):
    # the stabilizer chain sifts each Schreier generator once; rebuilding
    # orbits and re-queueing Schreier generators took 337,575 products
    # here, and the chain now takes 2,600 gathers.  Walked top down, each
    # orbit grown from its level's own maps, the backtrack made 504
    # refinements; walked deepest first, 118.
    calls = [0]
    refinements = [0]
    original = perm.gather
    refine = partitions._StabContext.refine

    def counted(indices):
        calls[0] += 1
        return original(indices)

    def counted_refine(*args):
        refinements[0] += 1
        return refine(*args)

    # every product of perm, compose's included, is one of its gathers
    monkeypatch.setattr(perm, "gather", counted)
    monkeypatch.setattr(partitions._StabContext, "refine", counted_refine)
    partition_stabilizer.cache_clear()  # the test above leaves this family in the memo
    assert partition_stabilizer(_grid_rows_and_columns(8)).order == math.factorial(8) ** 2
    assert calls[0] < 5_000
    assert refinements[0] <= 150


def topdown_stabilizer(parts, parity="all"):
    """Oracle: the walk before levels were taken deepest first.  It walks
    the first path top down and grows each level's orbit from that level's
    own maps only, then builds the chain over a base of its own."""
    ctx = partitions._StabContext([p.canonical() for p in parts])
    path = ctx.first_path(ctx.refine(ctx.seed_colors)[0])
    gens = []
    order = 1
    for depth, (colors, cell, trace) in enumerate(path[:-1]):
        level_gens = []
        orb = {cell[0]}
        for q in cell[1:]:
            if q in orb:
                continue
            tgt = ctx.refine(ctx.individualize(colors, q), trace)
            found = None if tgt is None else ctx.find_auto(path, depth + 1, tgt[0])
            if found is not None:
                level_gens.append(found)
                orb = perm.orbit(cell[0], level_gens)
        gens += level_gens
        order *= len(orb)
    G = PermGroup(gens, ctx.n)
    assert G.order == order
    return partitions._even_subgroup(G) if parity == "even" else G


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 7), st.integers(1, 5), st.integers(1, 3),
    st.sampled_from(["all", "even"]), st.randoms(use_true_random=False),
)
def test_deepest_first_walk_matches_the_topdown_walk(a, b, k, parity, rng):
    # The families of the refinement property test above.  Both walks give
    # the same group: the same order, and each one's generators lie in the
    # other's.  The walk's own generators, those of parity all (parity even
    # lists the kernel's), are a strong generating set on the path's base:
    # those fixing the first j base points reach an orbit of base point j,
    # and the orbit lengths multiply to the order.
    parts = [random_uniform_partition(a, b, rng) for _ in range(k)]
    partition_stabilizer.cache_clear()
    G = partition_stabilizer(parts, parity)
    H = topdown_stabilizer(parts, parity)
    assert G.order == H.order
    assert all(H.contains(g) for g in G.generators)
    assert all(G.contains(h) for h in H.generators)
    walk = partition_stabilizer(parts, "all")
    ctx = partitions._StabContext([p.canonical() for p in parts])
    path = ctx.first_path(ctx.refine(ctx.seed_colors)[0])
    base = [cell[0] for _, cell, _ in path[:-1]]
    assert walk.base == base
    product = 1
    for j, point in enumerate(base):
        fixing = [g for g in walk.generators if all(g[x] == x for x in base[:j])]
        product *= len(perm.orbit(point, fixing))
    assert product == walk.order


def test_all_uniform_partitions_counts():
    # n! / (b!^a a!)
    for a, b in [(3, 2), (2, 3), (4, 2)]:
        n = a * b
        expect = math.factorial(n) // (
            math.factorial(b) ** a * math.factorial(a)
        )
        assert len(all_uniform_partitions(a, b)) == expect


def test_cross_counts_consistency():
    B, C, D = construct_bcd_equal(6)
    m = cross_counts(B, C)
    assert all(m[r][s] == 1 for r in range(6) for s in range(6))


def test_certify_raises_without_assert(monkeypatch):
    # a lone partition has a huge stabilizer, so verify's checker says no
    # and the command must raise rather than print; the check must survive -O
    monkeypatch.setattr(
        cli, "base_size_partitions", lambda *a, **k: [uniform_partition(4, 3)]
    )
    with pytest.raises(CertificationError):
        cli.main(["base-size", "-a", "4", "-b", "3", "--mode", "upper"])


def _forced(parts, parity):
    return _forced_symmetry([p.block_of() for p in parts], parity)


def test_forced_symmetry_parity():
    P = uniform_partition(3, 2)
    # one shared cell {1,2}: a transposition, odd
    Q = SetPartition.from_blocks(6, [[0, 1], [2, 4], [3, 5]])
    assert _forced([P, Q], "all")
    assert not _forced([P, Q], "even")
    # two shared cells {1,2}, {3,4}: a double transposition, even
    R = SetPartition.from_blocks(6, [[0, 1], [2, 3], [4, 5]])
    assert _forced([P, R], "even")
    # one shared cell of three points: a 3-cycle, even
    assert _forced([uniform_partition(2, 3)] * 2, "even")


_SMALL_AB = [(a, b) for a in range(2, 9) for b in range(2, 9) if a * b <= 16]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(_SMALL_AB),
    st.integers(2, 3),
    st.sampled_from(["all", "even"]),
    st.randoms(use_true_random=False),
)
def test_forced_symmetry_implies_nontrivial_stabilizer(ab, k, parity, rng):
    parts = [random_uniform_partition(*ab, rng) for _ in range(k)]
    if _forced(parts, parity):
        assert partition_stabilizer(parts, parity).order > 1


def _partner(M, data):
    """The Q whose intersection matrix with P1 = uniform_partition(a, b) is
    M: the points of block i of P1, in a drawn order, go M[i][j] to block j
    of Q."""
    a, b = len(M), sum(M[0])
    blocks = [[] for _ in range(a)]
    for i, row in enumerate(M):
        met = [j for j, k in enumerate(row) for _ in range(k)]
        for x, j in zip(data.draw(st.permutations(range(i * b, (i + 1) * b))), met):
            blocks[j].append(x)
    return SetPartition.from_blocks(a * b, blocks)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([(10, 2), (6, 6), (7, 6), (9, 7)]), st.data())
def test_no_pair_is_a_base_when_b_is_2_or_a_minus_b_at_most_2(ab, data):
    # verify takes 3 as the least sym base size here without enumerating.
    # A Q sharing a cell with P1 has a transposition (the test above), so
    # draw Q sharing none: the blocks of Q met by block i of P1 are the
    # values pi(i) of k disjoint permutations pi (b = 2, k = 2), or all
    # blocks but those (k = a - b).  Where the alt lemma holds too, b = 2
    # or a - b <= 1, the pair has a nontrivial even symmetry as well.
    a, b = ab
    k = 2 if b == 2 else a - b
    pis = [data.draw(st.permutations(range(a))) for _ in range(k)]
    assume(all(len({pi[i] for pi in pis}) == k for i in range(a)))
    M = [[int(j in {pi[i] for pi in pis}) for j in range(a)] for i in range(a)]
    if b != 2:
        M = [[1 - m for m in row] for row in M]
    P1, Q = uniform_partition(a, b), _partner(M, data)
    assert not _forced([P1, Q], "all")
    assert partition_stabilizer([P1, Q]).order > 1
    if b == 2 or a - b <= 1:
        assert partition_stabilizer([P1, Q], "even").order > 1


def _doubled_pair_cycles(a, data):
    """b = 2: the sum of two drawn permutation matrices, with at most one
    entry 2."""
    pi, rho = (data.draw(st.permutations(range(a))) for _ in range(2))
    assume(sum(pi[i] == rho[i] for i in range(a)) <= 1)
    return [[(pi[i] == j) + (rho[i] == j) for j in range(a)] for i in range(a)]


def _all_ones(a, data):
    """a = b: M = J."""
    return [[1] * a for _ in range(a)]


def _zeros_a_permutation(a, data):
    """a = b + 1: ones but for a drawn permutation matrix of zeros."""
    pi = data.draw(st.permutations(range(a)))
    return [[int(pi[i] != j) for j in range(a)] for i in range(a)]


def _one_two(a, data):
    """a = b + 1 with one entry 2, at (r, c): zeros at (r, j1), (r, j2),
    (i1, c), (i2, c) and a permutation matrix on the other rows and
    columns, all drawn."""
    rows, cols = (data.draw(st.permutations(range(a))) for _ in range(2))
    M = [[1] * a for _ in range(a)]
    (r, i1, i2), (c, j1, j2) = rows[:3], cols[:3]
    M[r][c] = 2
    for i, j in [(r, j1), (r, j2), (i1, c), (i2, c), *zip(rows[3:], cols[3:])]:
        M[i][j] = 0
    return M


@pytest.mark.parametrize("shape,a", [
    *((_doubled_pair_cycles, a) for a in (3, 6, 10)),
    *((_all_ones, a) for a in (3, 6, 9)),
    *((shape, a) for shape in (_zeros_a_permutation, _one_two) for a in (4, 6, 7, 9)),
], ids=lambda v: getattr(v, "__name__", None))
@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_no_pair_is_an_alt_base_in_the_lemma_cases(shape, a, data):
    # verify takes 3 as the least alt base size at b = 2, a = b and
    # a = b + 1 without enumerating.  A 3-point cell or two 2-point cells
    # give an even symmetry at once, so plant the matrices the lemma
    # treats case by case: entries at most 2, with at most one 2.  Random
    # draws at (6,6) or (7,6) almost never miss such cells.
    M = shape(a, data)
    b = sum(M[0])
    assert all(sum(row) == b for row in M) and all(sum(col) == b for col in zip(*M))
    assert max(map(max, M)) <= 2 and sum(row.count(2) for row in M) <= 1
    P1, Q = uniform_partition(a, b), _partner(M, data)
    assert not _forced([P1, Q], "even")
    assert partition_stabilizer([P1, Q], "even").order > 1


def _unfiltered_search(a, b, size, parity, seed):
    """Oracle: the search loop with every candidate's stabilizer built."""
    rng = random.Random(seed)
    P1 = uniform_partition(a, b)
    while True:
        cand = [P1] + [random_uniform_partition(a, b, rng) for _ in range(size - 1)]
        if partition_stabilizer(cand, parity).order == 1:
            return cand


@pytest.mark.parametrize(
    "a,b,size,parity,seed",
    [
        (8, 3, 2, "all", 1),
        (8, 3, 2, "all", 2),
        (9, 3, 2, "all", 1),
        (10, 4, 2, "all", 2),
        (8, 3, 2, "even", 1),
        (9, 4, 2, "even", 1),
        (5, 2, 3, "all", 1),
    ],
)
def test_search_matches_unfiltered_oracle(a, b, size, parity, seed):
    got = _search_base(a, b, size, parity, seed, budget=100000)
    want = _unfiltered_search(a, b, size, parity, seed)
    assert [p.canonical() for p in got] == [p.canonical() for p in want]


def test_exact_mode_budget_refusal_beyond_enumeration():
    # (8,4) lies in the 2-base range, where a 2-base is always least; the
    # seed-1 search needs far more than one trial, so exact mode refuses
    # on budget, not for want of a lemma
    with pytest.raises(SearchBudgetExceeded, match="1 trials drawn, 1 rejected"):
        base_size_partitions(8, 4, mode="exact", seed=1, budget=1)


def all_uniform_partitions(a, b):
    """Every partition of {0..ab-1} into a blocks of size b, canonical form."""
    out = []

    def rec(remaining, blocks):
        if not remaining:
            out.append(tuple(blocks))
            return
        anchor, pool = remaining[0], remaining[1:]
        for rest in itertools.combinations(pool, b - 1):
            block = (anchor,) + rest
            rec([x for x in pool if x not in block], blocks + [block])

    rec(list(range(a * b)), [])
    return out


def _element_filter_exact(a, b, ambient):
    """Oracle: the least base size, by iterative deepening over explicit
    element lists.  Every element of the block stabilizer W is listed, each
    pick keeps the elements that fix it, and orbit representatives are the
    first partition (in enumeration order) of each orbit of the kept
    elements."""
    n = a * b
    omega = all_uniform_partitions(a, b)
    P1 = uniform_partition(a, b).canonical()
    elems = PermGroup(wreath_generators(a, b), n).elements()
    if ambient == "alt":
        elems = [g for g in elems if sign(g) > 0]

    def reps(elems):
        seen, out = set(), []
        for P in omega:
            if P not in seen:
                out.append(P)
                seen.update(apply_to_canonical(g, P) for g in elems)
        return out

    def extend(prefix, elems, size_left):
        if size_left == 0:
            return len(elems) == 1
        return any(
            extend(prefix + [P], [g for g in elems if apply_to_canonical(g, P) == P],
                   size_left - 1)
            for P in reps(elems) if P != P1 and P not in prefix)

    return next(k for k in range(2, len(omega) + 2) if extend([], elems, k - 1))


@pytest.mark.parametrize(
    "a,b,ambient",
    [(3, 2, "sym"), (4, 2, "sym"), (3, 3, "sym"), (3, 2, "alt"), (4, 2, "alt"),
     (5, 2, "alt"), (3, 3, "alt"), (4, 3, "alt"), (5, 2, "sym")],
)
def test_exact_mode_matches_element_filter_oracle(a, b, ambient):
    # every case of the lemma, the duad case sym (3,2) among them, against
    # the oracle's least size k: the paper's value, proved least, and no
    # size above it is least
    k = _element_filter_exact(a, b, ambient)
    assert k == partition_base_size_value(a, b, ambient)
    assert _is_least_base_size(a, b, ambient, k)
    assert not _is_least_base_size(a, b, ambient, k + 1)


@pytest.mark.parametrize("a,b,ambient", [
    (a, b, ambient)
    for a, b in [(3, 2), (4, 2), (5, 2), (6, 2), (3, 3), (4, 3)]
    for ambient in ("sym", "alt")
])
def test_exact_mode_is_the_search_base_proved_least(a, b, ambient):
    # every pair with ab <= 12: exact mode returns the upper-mode base, of
    # the size the element-filter oracle finds least in the test above.  At
    # sym (4,3) and at (6,2) the oracle takes 6-13 s; the lemma's case
    # there is one that test checks at a smaller pair.
    parts = base_size_partitions(a, b, mode="exact", ambient=ambient, seed=1)
    assert [p.canonical() for p in parts] == [
        p.canonical() for p in minimal_partition_base(a, b, ambient=ambient, seed=1)]
    assert len(parts) == partition_base_size_value(a, b, ambient)
    assert _is_least_base_size(a, b, ambient, len(parts))


@pytest.mark.parametrize("a,b,ambient", [
    (6, 3, "sym"), (7, 3, "sym"), (7, 4, "sym"), (5, 3, "alt"), (6, 4, "alt"),
])
def test_exact_mode_refuses_beyond_its_proofs(a, b, ambient):
    # a claimed value of 3 and no lemma: refused before any search
    with pytest.raises(PreconditionError, match="exact mode has no lemma proving 3 least"):
        base_size_partitions(a, b, mode="exact", ambient=ambient, budget=0)
