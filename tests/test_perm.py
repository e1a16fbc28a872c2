import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minbase.perm import (
    CosetAction,
    DegreeMismatch,
    ParseError,
    PermGroup,
    compose,
    format_perm,
    gather,
    identity,
    orbit,
    orbits,
    parse_perm,
    sign,
)
from oracles import chain_of, lookup_products, oracle_compose, perm_order


def brute_elements(gens, degree):
    """Oracle: exhaustive closure of a generator set under composition."""
    elems = {identity(degree)}
    frontier = [identity(degree)]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = compose(p, g)
                if q not in elems:
                    elems.add(q)
                    nxt.append(q)
        frontier = nxt
    return elems


def test_parse_basic():
    assert parse_perm("(1,2)(3,4)", 4) == (1, 0, 3, 2)
    assert parse_perm("", 5) == identity(5)
    assert parse_perm("( )", 3) == identity(3)


def test_parse_three_cycle_order():
    p = parse_perm("(1,2,3)", 3)
    assert compose(compose(p, p), p) == identity(3)
    assert perm_order(p) == 3


def test_parse_right_to_left():
    # (1,2)(2,3) applies (2,3) first, giving the 3-cycle 1->2->3->1.
    assert parse_perm("(1,2)(2,3)", 3) == parse_perm("(1,2,3)", 3)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_perm("(1,5)", 4)
    with pytest.raises(ParseError):
        parse_perm("(1,2", 4)
    with pytest.raises(ParseError):
        parse_perm("(1,1)", 4)


def test_format_roundtrip():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(1, 10)
        images = list(range(n))
        rng.shuffle(images)
        p = tuple(images)
        assert parse_perm(format_perm(p), n) == p


def test_sign_and_order():
    assert sign(parse_perm("(1,2)", 4)) == -1
    assert sign(parse_perm("(1,2,3)", 4)) == 1
    assert perm_order(parse_perm("(1,2)(3,4,5)", 5)) == 6


def test_s4_order():
    G = PermGroup([parse_perm("(1,2)", 4), parse_perm("(1,2,3,4)", 4)])
    assert G.order == 24


def test_a4_order():
    G = PermGroup([parse_perm("(1,2,3)", 4), parse_perm("(2,3,4)", 4)])
    assert G.order == 12


def test_trivial_group():
    G = PermGroup([], 6)
    assert G.order == 1
    assert G.contains(identity(6))


def test_contains():
    s4 = PermGroup([parse_perm("(1,2)", 4), parse_perm("(1,2,3,4)", 4)])
    a4 = PermGroup([parse_perm("(1,2,3)", 4), parse_perm("(2,3,4)", 4)])
    assert s4.contains(parse_perm("(1,3)", 4))
    assert not a4.contains(parse_perm("(1,2)", 4))
    assert a4.contains(identity(4))
    with pytest.raises(DegreeMismatch):
        s4.contains(identity(5))


def test_order_matches_enumeration_random_groups():
    # Stabilizer-chain order vs exhaustive closure on 30 random small groups.
    rng = random.Random(2024)
    for _ in range(30):
        n = rng.randrange(3, 7)
        gens = []
        for _ in range(rng.randrange(1, 3)):
            images = list(range(n))
            rng.shuffle(images)
            gens.append(tuple(images))
        G = PermGroup(gens, n)
        oracle = brute_elements(gens, n)
        assert G.order == len(oracle)
        for p in itertools.permutations(range(n)):
            assert G.contains(p) == (p in oracle)


@st.composite
def generator_lists(draw):
    """Degree <= 8; each generator permutes a random subset of the points
    and fixes the rest, and some generators are listed twice."""
    n = draw(st.integers(1, 8))
    gens = []
    for _ in range(draw(st.integers(0, 3))):
        support = sorted(draw(st.sets(st.integers(0, n - 1))))
        g = list(range(n))
        for x, y in zip(support, draw(st.permutations(support))):
            g[x] = y
        gens.append(tuple(g))
    if gens:
        gens += draw(st.lists(st.sampled_from(gens), max_size=2))
    probes = draw(st.lists(st.permutations(range(n)).map(tuple), max_size=20))
    return n, gens, probes


@settings(max_examples=60, deadline=None)
@given(generator_lists())
def test_chain_matches_closure(case):
    n, gens, probes = case
    G = PermGroup(gens, n)
    oracle = brute_elements(gens, n)
    assert G.order == len(oracle)
    members = sorted(oracle)[:: max(1, len(oracle) // 50)]
    for p in probes + members:
        assert G.contains(p) == (p in oracle)


@settings(max_examples=60, deadline=None)
@given(generator_lists(), st.randoms(use_true_random=False))
def test_chain_over_a_given_base_matches_closure(case, rng):
    # a caller's base, in any order and whether or not the group moves its
    # points, starts the chain; the group is the same
    n, gens, probes = case
    base = rng.sample(range(n), rng.randint(0, n))
    G = PermGroup(gens, n, base=base)
    assert G.base[:len(base)] == base
    oracle = brute_elements(gens, n)
    assert G.order == len(oracle)
    assert sorted(G.elements()) == sorted(oracle)
    for p in probes:
        assert G.contains(p) == (p in oracle)


def test_a_base_repeating_or_outside_the_points_is_refused():
    for base in ([0, 0], [4], [-1]):
        with pytest.raises(ValueError):
            PermGroup([], 4, base=base)


def test_gather_gives_a_tuple_for_every_length():
    # itemgetter with one index returns the bare entry; gather must not
    assert gather([2])("abc") == ("c",)
    assert gather(frozenset([1]))([5, 7]) == (7,)
    assert gather([2, 0, 0])("abc") == ("c", "a", "a")
    rng = random.Random(7)
    for n in range(1, 7):
        for _ in range(5):
            p, q = rng.sample(range(n), n), rng.sample(range(n), n)
            assert gather(p)(q) == compose(tuple(p), tuple(q))


@st.composite
def permutation_pairs(draw):
    """Two permutations of one degree in 1..130, and a degree that may
    differ from theirs."""
    n = draw(st.integers(1, 130))
    p, q = (tuple(draw(st.permutations(range(n)))) for _ in range(2))
    return p, q, draw(st.integers(1, 130))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(permutation_pairs())
def test_compose_matches_the_lookup_oracle(case):
    # one gather at every degree up to the 128-point cap and past it, and
    # the degree check before it
    p, q, m = case
    assert compose(p, q) == oracle_compose(p, q)
    if m != len(p):
        other = identity(m)
        for args in ((p, other), (other, p)):
            with pytest.raises(DegreeMismatch):
                compose(*args)


def random_group(rng, n):
    """Up to three generators of degree n, each permuting a random subset
    of the points, so that orbits and levels vary."""
    gens = []
    for _ in range(rng.randint(1, 3)):
        support = rng.sample(range(n), rng.randint(0, n))
        g = list(range(n))
        for x, y in zip(support, rng.sample(support, len(support))):
            g[x] = y
        gens.append(tuple(g))
    return gens


def test_chain_of_gathered_products_matches_lookup_products():
    # the gathers change how each product is computed, not which: the same
    # generators and base give the same chain, level by level
    rng = random.Random(33)
    for _ in range(60):
        n = rng.randint(1, 24)
        gens = random_group(rng, n)
        base = rng.sample(range(n), rng.randint(0, min(n, 2)))
        G = PermGroup(gens, n, base=base)
        with lookup_products():
            H = PermGroup(gens, n, base=base)
        assert chain_of(H) == chain_of(G)


@pytest.mark.parametrize("base", [(), (0,)])
def test_elements_of_degree_one(base):
    # a level over the one point has a one-entry transversal, whose
    # products are gathered at one index
    G = PermGroup([], 1, base=base)
    assert G.base == list(base)
    assert G.elements() == [(0,)]
    assert PermGroup([(0,)], 1, base=base).elements() == [(0,)]


def test_elements_deterministic_and_complete():
    gens = [parse_perm("(1,2)", 4), parse_perm("(1,2,3,4)", 4)]
    G1 = PermGroup(gens)
    G2 = PermGroup(gens)
    assert G1.base == G2.base
    assert G1.elements() == G2.elements()
    assert set(G1.elements()) == brute_elements(gens, 4)


def test_orbits_sorted_by_least_point():
    gens = [parse_perm("(1,5)(2,6)", 7), parse_perm("(5,3)", 7)]
    assert orbit(4, gens) == {0, 2, 4}
    assert orbits(7, gens) == [[0, 2, 4], [1, 5], [3], [6]]
    assert orbits(3, []) == [[0], [1], [2]]


def test_coset_action_point_stabilizer():
    G = PermGroup([parse_perm("(1,2)", 4), parse_perm("(1,2,3,4)", 4)])
    H = PermGroup([parse_perm("(1,2)", 4), parse_perm("(1,2,3)", 4)])  # stab of 4
    image = CosetAction(G, H).image
    assert image.degree == 4
    assert image.order == 24


def test_coset_action_index_two():
    G = PermGroup([parse_perm("(1,2)", 4), parse_perm("(1,2,3,4)", 4)])
    A = PermGroup([parse_perm("(1,2,3)", 4), parse_perm("(2,3,4)", 4)])
    image = CosetAction(G, A).image
    assert image.degree == 2
    assert image.order == 2


def test_coset_action_s5_over_s4():
    G = PermGroup([parse_perm("(1,2)", 5), parse_perm("(1,2,3,4,5)", 5)])
    H = PermGroup([parse_perm("(1,2)", 5), parse_perm("(1,2,3,4)", 5)])
    image = CosetAction(G, H).image
    assert image.degree == 5
    assert image.order == 120
    # orbit structure: transitive on 5 points
    orbit = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in image.generators:
            if g[x] not in orbit:
                orbit.add(g[x])
                frontier.append(g[x])
    assert orbit == set(range(5))


def test_coset_action_counts_cosets():
    # |G| = |H| * degree for several subgroups.
    G = PermGroup([parse_perm("(1,2)", 5), parse_perm("(1,2,3,4,5)", 5)])
    for gens in [["(1,2)"], ["(1,2,3)", "(1,2)"], ["(1,2,3,4,5)"]]:
        H = PermGroup([parse_perm(s, 5) for s in gens])
        image = CosetAction(G, H).image
        assert H.order * image.degree == G.order


def test_coset_action_rejects_non_subgroup():
    G = PermGroup([parse_perm("(1,2,3)", 4), parse_perm("(2,3,4)", 4)])
    H = PermGroup([parse_perm("(1,2)", 4)])
    with pytest.raises(ValueError):
        CosetAction(G, H)


def test_group_file_roundtrip(tmp_path):
    from minbase.perm import read_group_file

    path = tmp_path / "g.grp"
    path.write_text("degree 6\n# S6\n(1,2)\n(1,2,3,4,5,6)\n")
    G = read_group_file(path)
    assert G.degree == 6 and G.order == 720
    assert G.generators == [parse_perm("(1,2)", 6), parse_perm("(1,2,3,4,5,6)", 6)]
