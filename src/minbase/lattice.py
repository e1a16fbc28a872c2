"""Exhaustive subgroup machinery for small groups.

A GroupTable holds the full element list of an ambient permutation group
(capped order) with a multiplication table, so subgroups become frozensets
of element indices and intersections become set operations.  The lattice
is generated one conjugacy class at a time, by extending a representative
of each class by double-coset representatives; each extension is closed by
whole left cosets of the representative.
"""

from __future__ import annotations

from dataclasses import dataclass

from .perm import PermGroup, compose, format_perm, identity, inverse


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
        # row x is the map y -> x*y, so the row of g*x is the row of x read
        # through the row of g: one composed row per generator, then one
        # C-level map per element, walking out from the identity
        gen_rows = [
            [index[compose(g, q)] for q in elems] for g in group.generators
        ]
        mul = [None] * self.n
        mul[self.identity] = list(range(self.n))
        frontier = [self.identity]
        for x in frontier:  # grows as the walk does
            for row_g in gen_rows:
                y = row_g[x]
                if mul[y] is None:
                    mul[y] = list(map(row_g.__getitem__, mul[x]))
                    frontier.append(y)
        self.mul = mul
        self.inv = [index[inverse(p)] for p in elems]
        self.whole = frozenset(range(self.n))
        self.gen_idx = [index[g] for g in group.generators]
        if not self.gen_idx:
            self.gen_idx = [self.identity]

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
        reps = [e]
        for y in reps:  # grows as the walk does
            for row in gen_rows:
                w = row[y]
                if w not in seen:
                    if trivial:
                        seen.add(w)
                    else:
                        seen.update(map(mul[w].__getitem__, base))
                    if len(seen) > bound:
                        return self.whole
                    reps.append(w)
        return frozenset(seen)

    def conjugate_set(self, elems, g):
        gi = self.inv[g]
        mul = self.mul
        row = mul[gi]
        return frozenset(mul[row[x]][g] for x in elems)

    def conjugates(self, elems):
        """Every conjugate of the set, each mapped to one element conjugating
        elems to it, found by a stack walk over the generators."""
        elems = frozenset(elems)
        out = {elems: self.identity}
        stack = [elems]
        while stack:
            cur = stack.pop()
            c = out[cur]
            for g in self.gen_idx:
                conj = self.conjugate_set(cur, g)
                if conj not in out:
                    out[conj] = self.mul[c][g]
                    stack.append(conj)
        return out

    def double_coset_reps(self, elems, gens):
        """Least element of each double coset HgH outside H, in increasing
        order, where H is the subgroup on elems generated by gens.

        HgH is the union of the left cosets hgH, so the walk marks whole
        left cosets: from gH it reaches every hgH by left multiplication by
        the generators of H."""
        mul = self.mul
        gen_rows = [mul[h] for h in gens]
        seen = set(elems)
        for g in range(self.n):
            if g in seen:
                continue
            seen.update(map(mul[g].__getitem__, elems))
            stack = [g]
            while stack:
                y = stack.pop()
                for row in gen_rows:
                    w = row[y]
                    if w not in seen:
                        seen.update(map(mul[w].__getitem__, elems))
                        stack.append(w)
            yield g

    def is_maximal(self, elems, gens):
        """A proper subgroup H (on elems, generated by gens) is maximal
        exactly when <H, g> is the whole group for every double coset HgH
        outside H."""
        return len(elems) < self.n and all(
            len(self.closure(list(gens) + [g], elems)) == self.n
            for g in self.double_coset_reps(elems, gens)
        )

    def word_of(self, idx) -> str:
        return format_perm(self.elements[idx])


@dataclass(frozen=True)
class SubgroupRecord:
    elements: frozenset
    order: int
    generators: tuple

    def key(self):
        return tuple(sorted(self.elements))


class Lattice:
    """All subgroups of the ambient group, walked one conjugacy class at a
    time (cyclic extension).

    Each subgroup is met as <H, g> for a class representative H and the
    least element g of a double coset HgH outside H.  The first time a
    subgroup is met, its whole class is recorded from one conjugates walk,
    each member generated by the conjugated generators; only that first
    member is extended.  This reaches every subgroup K: a maximal subgroup
    of K is conjugate, say by x, to a representative H, and K^x = <H, g>
    for some g.  A representative all of whose extensions give the whole
    group is maximal, and so is its class.

    subgroups lists every subgroup by (order, key()); classes lists the
    conjugacy classes, each sorted by key(), ordered by their least member.
    """

    def __init__(self, table: GroupTable):
        self.table = table
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
                found[conj] = SubgroupRecord(conj, len(conj), conj_gens)
                cls.append(found[conj])
            classes.append(cls)

        meet(frozenset([table.identity]), ())
        meet(table.whole, tuple(table.gen_idx))
        for cls in classes:  # grows while it is walked
            rep = cls[0]
            if rep.order == m:
                continue
            reached_only_full = True
            # above a subgroup of index 2 lies only the whole group
            if 2 * rep.order < m:
                gens = list(rep.generators)
                for g in table.double_coset_reps(rep.elements, gens):
                    new_elems = table.closure(gens + [g], rep.elements)
                    if len(new_elems) < m:
                        reached_only_full = False
                        meet(new_elems, tuple(gens) + (g,))
            if reached_only_full:
                maximal.update(r.elements for r in cls)
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


def commutator_subgroup(table: GroupTable, A, B):
    """[A, B]: the subgroup generated by the commutators [a, b]."""
    mul, inv = table.mul, table.inv
    comms = {mul[mul[inv[a]][inv[b]]][mul[a][b]] for a in A for b in B}
    return table.closure(sorted(comms))


def is_soluble(table: GroupTable) -> bool:
    cur = table.whole
    while len(cur) > 1:
        nxt = commutator_subgroup(table, cur, cur)
        if nxt == cur:
            return False
        cur = nxt
    return True


def is_nilpotent_set(table: GroupTable, elems) -> bool:
    """Lower central series of the subgroup on the given elements."""
    full = frozenset(elems)
    cur = full
    while len(cur) > 1:
        nxt = commutator_subgroup(table, full, cur)
        if nxt == cur:
            return False
        cur = nxt
    return True

