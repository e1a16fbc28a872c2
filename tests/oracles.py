"""Oracles and helpers that more than one test module uses: slow
reference computations, and the candidate draw of the seeded search.
Test modules import them from here, never from one another."""

import math
from fractions import Fraction
from unittest import mock

from minbase import perm
from minbase.fq import bilinear
from minbase.invariants import _series_down
from minbase.lattice import Lattice, frattini, normal_subgroups
from minbase.partitions import SetPartition
from minbase.perm import DegreeMismatch, orbits


def oracle_compose(p, q):
    """Oracle: the product p * q (apply p, then q) by one Python-level
    lookup per point, as perm.compose computed it before its gather."""
    if len(p) != len(q):
        raise DegreeMismatch(f"degrees {len(p)} and {len(q)} differ")
    return tuple(q[x] for x in p)


def lookup_products():
    """A patch of perm.gather to oracle_compose, so every product of the
    chain and of compose is one Python-level lookup per point."""
    return mock.patch.object(perm, "gather", lambda p: lambda q: oracle_compose(tuple(p), q))


def chain_of(G):
    """The base, order and each level's generators, transversal and its
    inverses, in the order the chain stored them."""
    levels = [(lvl.point, lvl.gens, list(lvl.orbit.items()), list(lvl.inv.items()))
              for lvl in G._levels]
    return G.base, G.order, levels


def perm_order(p):
    """Order of a permutation: the lcm of its cycle lengths."""
    return math.lcm(*(len(cycle) for cycle in orbits(len(p), [p])))


def gram_matrix(F, form, vectors):
    """The matrix of the form's values on every pair of the vectors."""
    return tuple(tuple(bilinear(F, form, u, v) for v in vectors) for u in vectors)


def involution_count_sym(n: int) -> int:
    """Number of elements of order exactly 2 in the symmetric group on n
    letters, via t(n) = t(n-1) + (n-1) t(n-2) counting the identity too."""
    if n < 1:
        raise ValueError("n must be positive")
    prev2, prev1 = 1, 1  # t(0), t(1)
    for k in range(2, n + 1):
        prev2, prev1 = prev1, prev1 + (k - 1) * prev2
    return prev1 - 1


def merged_bound(terms, c: int) -> Fraction:
    """Collapse bound: for terms with total u-sum A and least v equal B,
    the collapsed value B * (A/B)^c dominates the term-by-term sum."""
    A = sum(Fraction(t.u) * t.multiplicity for t in terms)
    B = min(Fraction(t.v) for t in terms)
    return B * (A / B) ** c


def random_uniform_partition(a, b, rng):
    """A uniform partition into a blocks of size b, dealt from one shuffle
    of the points, as the seeded search draws its candidates."""
    pts = list(range(a * b))
    rng.shuffle(pts)
    return SetPartition.from_blocks(a * b, [pts[i * b : (i + 1) * b] for i in range(a)])


def oracle_commutator_subgroup(table, A, B):
    """Oracle: [A, B] closed from the commutators of every pair of
    elements, as a frozenset."""
    mul, inv = table.mul, table.inv
    comms = {mul[mul[inv[a]][inv[b]]][mul[a][b]] for a in A for b in B}
    return table.closure(sorted(comms))


def oracle_is_soluble(table):
    """Oracle: the derived series, each term closed from all pairs."""
    cur = table.whole
    while len(cur) > 1:
        nxt = oracle_commutator_subgroup(table, cur, cur)
        if nxt == cur:
            return False
        cur = nxt
    return True


def oracle_is_nilpotent_set(table, elems):
    """Oracle: the lower central series of the subgroup on the given
    elements, each term closed from all pairs."""
    full = frozenset(elems)
    cur = full
    while len(cur) > 1:
        nxt = oracle_commutator_subgroup(table, full, cur)
        if nxt == cur:
            return False
        cur = nxt
    return True


def chief_length_mod_frattini(lattice: Lattice) -> int:
    """Chief length of the quotient by the Frattini subgroup: the normal
    subgroups of G/Phi are the images of those of G that contain Phi."""
    full = lattice.find(range(lattice.table.n))
    return len(_series_down(full, frattini(lattice), normal_subgroups(lattice))) - 1
