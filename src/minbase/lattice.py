"""Exhaustive subgroup machinery for small groups.

A GroupTable holds the full element list of an ambient permutation group
(capped order) with a multiplication table, so subgroups become frozensets
of element indices and intersections become set operations.  The lattice
is generated one conjugacy class at a time, by extending a representative
of each class by one double-coset representative per orbit of its
normalizer; each extension is closed by whole left cosets of the
representative.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple

from .perm import PermGroup, format_perm, gather, identity, inverse


class OrderCapExceeded(ValueError):
    pass


def _least_prime_factor(m: int) -> int:
    """Least prime factor of an integer m > 1."""
    p = 2
    while p * p <= m:
        if m % p == 0:
            return p
        p += 1
    return m


class GroupTable:
    """Element table of a finite permutation group with order <= cap."""

    HARD_CAP = 2000

    def __init__(self, group: PermGroup, order_cap: int = 1000):
        self.check_order(group.order, order_cap)
        self.group = group
        self.degree = group.degree
        elems = sorted(group.elements())
        self.elements = elems
        self.n = len(elems)
        index = {p: i for i, p in enumerate(elems)}
        self.index = index
        self.identity = index[identity(group.degree)]
        self.gen_idx = [index[g] for g in group.generators]
        # row x is the map y -> x*y, so the row of x*g is the row of x
        # gathered at the row of g: one row per generator g, its entries
        # g*q each one gather of q at g's images, then one C-level gather
        # per element, walking out from the identity
        gen_rows = [
            list(map(index.__getitem__, map(gather(g), elems)))
            for g in group.generators
        ]
        gen_reads = list(zip(self.gen_idx, map(gather, gen_rows)))
        mul = [None] * self.n
        mul[self.identity] = list(range(self.n))
        frontier = [self.identity]
        for x in frontier:  # grows as the walk does
            row_x = mul[x]
            for g, read in gen_reads:
                y = row_x[g]
                if mul[y] is None:
                    mul[y] = list(read(row_x))
                    frontier.append(y)
        self.mul = mul
        self.inv = [index[inverse(p)] for p in elems]
        self.whole = frozenset(range(self.n))
        if not self.gen_idx:
            self.gen_idx = [self.identity]
        # one conjugation row x -> g^-1 x g per generator g: the row of g^-1
        # gathered at the column of g (each x*g)
        self.conj_rows = [
            list(gather(list(map(itemgetter(g), mul)))(mul[self.inv[g]]))
            for g in self.gen_idx
        ]

    @classmethod
    def check_order(cls, order: int, order_cap: int):
        """Refuse a group of this order: above order_cap or the hard cap."""
        cap = min(order_cap, cls.HARD_CAP)
        if order > cap:
            raise OrderCapExceeded(f"group order {order} exceeds cap {cap}")

    # -- elementary operations ----------------------------------------------

    def closure(self, gens, base=None):
        """Subgroup generated by the given element indices, as a frozenset.

        base, when given, is the element set of a subgroup H that gens[:-1]
        generate (or any subgroup of <gens>), and the result <H, gens> is
        grown by whole left cosets of H (Dimino's method): a representative
        y adds yH at once, and s*y for each generator s is a new
        representative exactly when it is not yet seen.  The seen set is
        closed under left multiplication by gens when every s*y is seen.
        Without base, H is the trivial subgroup.  The order of <H, gens> is
        a multiple of |H| dividing |G|, so once more elements are seen than
        the largest proper such divisor (Lagrange), the result is G."""
        e, n, mul = self.identity, self.n, self.mul
        if base is None:
            base = (e,)
        m = n // len(base)
        if m == 1:
            return self.whole
        # the largest proper divisor of n that |H| divides is n / p, for p
        # the least prime factor of the index m
        bound = n // _least_prime_factor(m)
        gen_rows = [mul[g] for g in gens if g != e]
        seen = set(base)
        trivial = len(base) == 1  # each coset one element: add beats update
        coset = None if trivial else gather(base)  # row of w -> wH
        reps = [e]
        for y in reps:  # grows as the walk does
            for row in gen_rows:
                w = row[y]
                if w not in seen:
                    if trivial:
                        seen.add(w)
                    else:
                        seen.update(coset(mul[w]))
                    if len(seen) > bound:
                        return self.whole
                    reps.append(w)
        return frozenset(seen)

    def conjugate_set(self, elems, g):
        gi = self.inv[g]
        mul = self.mul
        row = mul[gi]
        return frozenset(mul[row[x]][g] for x in elems)

    def class_walk(self, elems):
        """Every conjugate of the subgroup H on elems, each mapped to one
        element c with H^c = c^-1 H c equal to it, and Schreier generators
        of the normalizer N_G(H).

        A stack walk reads each conjugate H^c through the conjugation row
        of each generator s.  An edge that reaches a conjugate H^d already
        seen gives c*s*d^-1, which maps H to itself; over every edge these
        generate N_G(H) (Schreier's lemma: the edges of the walk's tree give
        the identity)."""
        elems = frozenset(elems)
        mul, inv = self.mul, self.inv
        out = {elems: self.identity}
        schreier = []
        stack = [elems]
        while stack:
            cur = stack.pop()
            row_c = mul[out[cur]]
            conjugate = gather(cur)  # conjugation row -> image of cur
            for s, row in zip(self.gen_idx, self.conj_rows):
                conj = frozenset(conjugate(row))
                d = out.get(conj)
                if d is None:
                    out[conj] = row_c[s]
                    stack.append(conj)
                else:
                    schreier.append(mul[row_c[s]][inv[d]])
        return out, schreier

    def conjugates(self, elems):
        """Every conjugate of the set, each mapped to one element conjugating
        elems to it (the class walk's first half)."""
        return self.class_walk(elems)[0]

    def double_cosets(self, elems, gens, normalizer=()):
        """The least element of each double coset HgH outside H, in
        increasing order, where H is the subgroup on elems generated by
        gens; with normalizer elements, the least element of each orbit of
        the group N they generate with H on those double cosets.

        HgH is the union of the left cosets hgH, so the walk marks whole
        left cosets: from gH it reaches every hgH by left multiplication by
        the generators of H.  For n in N, (HgH)^n = H^n g^n H^n = H g^n H,
        so N permutes the double cosets outside H, and y -> n^-1 y n
        carries a left coset yH to (yH)^n = y^n H^n = y^n H, since n
        normalizes H: a whole left coset of (HgH)^n.  So the cosets marked
        from gH make up exactly the N-orbit of HgH, with no label per
        element.  Elements of H fix every double coset, and n and nh act
        alike on them, so one normalizer element per coset nH outside H
        acts for them all.  The least element outside H and the orbits
        marked so far is the least element of the least double coset not
        yet reached, so the orbits come in increasing order of their least
        elements.  With no normalizer elements each orbit is one double
        coset."""
        mul, inv = self.mul, self.inv
        gen_rows = [mul[h] for h in gens]
        coset = gather(elems)  # row of y -> yH
        # one normalizer element per coset nH outside H, as a pair (row of
        # n^-1, n) conjugating an element
        acts = [
            (mul[inv[n]], n)
            for n in {min(coset(mul[n])): n for n in normalizer
                      if n not in elems}.values()
        ]
        seen = set(elems)
        reps = []
        for g in range(self.n):
            if g in seen:
                continue
            reps.append(g)
            seen.update(coset(mul[g]))
            stack = [g]
            while stack:
                y = stack.pop()
                for row in gen_rows:
                    w = row[y]
                    if w not in seen:
                        seen.update(coset(mul[w]))
                        stack.append(w)
                for row, n in acts:
                    w = mul[row[y]][n]
                    if w not in seen:
                        seen.update(coset(mul[w]))
                        stack.append(w)
        return reps

    def is_maximal(self, elems, gens):
        """A proper subgroup H (on elems, generated by gens) is maximal
        exactly when <H, g> is the whole group for every double coset HgH
        outside H."""
        return len(elems) < self.n and all(
            len(self.closure(list(gens) + [g], elems)) == self.n
            for g in self.double_cosets(elems, gens)
        )

    def word_of(self, idx) -> str:
        return format_perm(self.elements[idx])


class SubgroupRecord(NamedTuple):
    elements: frozenset
    order: int
    generators: tuple

    def key(self):
        return tuple(sorted(self.elements))


class Lattice:
    """All subgroups of the ambient group, walked one conjugacy class at a
    time (cyclic extension, after Neubueser).

    Each subgroup is met as <H, g> for a class representative H and the
    least element g of a double coset HgH outside H.  The first time a
    subgroup is met, its whole class is recorded from one conjugates walk,
    each member generated by the conjugated generators; only that first
    member is extended.  This reaches every subgroup K: a maximal subgroup
    of K is conjugate, say by x, to a representative H, and K^x = <H, g>
    for some g.  A representative all of whose extensions give the whole
    group is maximal, and so is its class.

    Only the least double coset of each orbit of N = N_G(H), whose
    generators the class walk yields (Schreier's lemma), is extended, and
    this meets exactly what extending every double coset does.  Proof:
    for n in N, <H, g>^n = <H^n, g^n> = <H, g^n>.  So every double coset
    D of the orbit of the least one, D0, extends H to a conjugate of D0's
    extension.  That is G exactly when D0's is, so maximality is judged
    alike; otherwise its class was recorded when D0 was extended, which is
    earlier, since double_cosets yields the orbits in increasing order of
    their least elements.  Extending D meets nothing new, so every class
    is first met at the same (H, g), with the same generators, as when
    every double coset is extended.

    subgroups lists every subgroup by (order, key()); classes lists the
    conjugacy classes, each sorted by key(), ordered by their least member.
    """

    def __init__(self, table: GroupTable):
        self.table = table
        m, mul, inv = table.n, table.mul, table.inv
        found = {}
        walk = []  # (class, Schreier generators of its first member's normalizer)
        maximal = set()

        def meet(elems, gens):
            if elems in found:
                return
            conjugates, schreier = table.class_walk(elems)
            cls = []
            for conj, c in conjugates.items():
                conj_gens = tuple(mul[mul[inv[c]][g]][c] for g in gens)
                found[conj] = SubgroupRecord(conj, len(conj), conj_gens)
                cls.append(found[conj])
            walk.append((cls, schreier))

        meet(frozenset([table.identity]), ())
        meet(table.whole, tuple(table.gen_idx))
        for cls, schreier in walk:  # grows while it is walked
            rep = cls[0]
            if rep.order == m:
                continue
            reached_only_full = True
            # above a subgroup of index 2 lies only the whole group
            if 2 * rep.order < m:
                H = rep.elements
                gens = list(rep.generators)
                for g in table.double_cosets(H, gens, schreier):
                    new_elems = table.closure(gens + [g], H)
                    if len(new_elems) < m:
                        reached_only_full = False
                        meet(new_elems, tuple(gens) + (g,))
            if reached_only_full:
                maximal.update(r.elements for r in cls)
        classes = [cls for cls, _ in walk]
        for cls in classes:
            cls.sort(key=SubgroupRecord.key)
        self.classes = sorted(classes, key=lambda cls: cls[0].key())
        self.subgroups = sorted(found.values(), key=lambda r: (r.order, r.key()))
        self._by_key = {rec.elements: i for i, rec in enumerate(self.subgroups)}
        self._maximal = [rec for rec in self.subgroups if rec.elements in maximal]

    def find(self, elems) -> SubgroupRecord:
        return self.subgroups[self._by_key[frozenset(elems)]]

    def maximal_subgroups(self):
        return list(self._maximal)


def frattini(lattice: Lattice) -> SubgroupRecord:
    """Intersection of all maximal subgroups."""
    maxs = lattice.maximal_subgroups()
    table = lattice.table
    if not maxs:
        return lattice.find(table.whole)
    elems = frozenset.intersection(*(rec.elements for rec in maxs))
    return lattice.find(elems)


def core(lattice: Lattice, H: SubgroupRecord) -> SubgroupRecord:
    """Largest normal subgroup inside H: intersection over all conjugates."""
    table = lattice.table
    if not H.elements <= table.whole:
        raise ValueError("H does not live in this group")
    return lattice.find(frozenset.intersection(*table.conjugates(H.elements)))


def normal_subgroups(lattice: Lattice):
    """Normal subgroups, ascending: the classes of one member."""
    return sorted(
        (cls[0] for cls in lattice.classes if len(cls) == 1),
        key=lambda r: (r.order, r.key()),
    )


def commutators(table: GroupTable, xs, ys) -> set:
    """The commutators [x, y] = x^-1 y^-1 x y for x in xs and y in ys."""
    mul, inv = table.mul, table.inv
    return {mul[mul[inv[x]][inv[y]]][mul[x][y]] for x in xs for y in ys}


def commutator_subgroup(lattice: Lattice, A, B) -> SubgroupRecord:
    """[A, B] for normal subgroups A and B (records of the lattice): the
    least-order normal subgroup holding the commutators of their
    generators.

    Proof: A and B are normal, so [A, B] is normal, and it holds those
    commutators.  Modulo their normal closure M, each generator of A
    commutes with each generator of B, so A and B commute elementwise and
    [A, B] <= M; so [A, B] = M.  Normal subgroups meet in a normal
    subgroup, so every normal subgroup holding the commutators contains M,
    and M is the only one of least order."""
    comms = commutators(lattice.table, A.generators, B.generators)
    return next(r for r in normal_subgroups(lattice) if comms <= r.elements)


def is_nilpotent(lattice: Lattice, N: SubgroupRecord) -> bool:
    """Whether the normal subgroup N is nilpotent: its lower central series
    N, [N, N], [N, [N, N]], ... reaches 1.  Each term is normal in G, as a
    commutator of normal subgroups, so commutator_subgroup reads it."""
    cur = N
    while cur.order > 1:
        nxt = commutator_subgroup(lattice, N, cur)
        if nxt.order == cur.order:  # nxt lies in cur
            return False
        cur = nxt
    return True
