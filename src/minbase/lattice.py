"""Exhaustive subgroup machinery for small groups.

A GroupTable holds the full element list of an ambient permutation group
(capped order) with a multiplication table, so subgroups become frozensets
of element indices and intersections become set operations.  The lattice
is generated by extending each known subgroup by double-coset
representatives, which reaches every subgroup exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .perm import PermGroup, format_perm, identity, inverse, perm_order


class OrderCapExceeded(ValueError):
    pass


class GroupTable:
    """Element table of a finite permutation group with order <= cap."""

    HARD_CAP = 2000

    def __init__(self, group: PermGroup, order_cap: int = 1000):
        cap = min(order_cap, self.HARD_CAP)
        if group.order > cap:
            raise OrderCapExceeded(
                f"group order {group.order} exceeds cap {cap}"
            )
        self.group = group
        self.degree = group.degree
        elems = sorted(group.elements())
        self.elements = elems
        self.n = len(elems)
        index = {p: i for i, p in enumerate(elems)}
        self.index = index
        self.identity = index[identity(group.degree)]
        # multiplication via short keys: an element is pinned down by its
        # images of the chain base, so row building avoids full composes
        base = group.base if group.base else [0]
        key_of = {tuple(p[b] for b in base): i for i, p in enumerate(elems)}
        self.mul = [
            [key_of[tuple(q[p[b]] for b in base)] for q in elems] for p in elems
        ]
        self.inv = [index[inverse(p)] for p in elems]
        self.gen_idx = [index[g] for g in group.generators]
        if not self.gen_idx:
            self.gen_idx = [self.identity]
        self.element_order = [perm_order(p) for p in elems]

    # -- elementary operations ----------------------------------------------

    def closure(self, gens):
        """Subgroup generated by the given element indices, as a frozenset."""
        e = self.identity
        seen = {e}
        frontier = [e]
        mul = self.mul
        gens = [g for g in gens if g != e]
        while frontier:
            x = frontier.pop()
            row = mul[x]
            for g in gens:
                y = row[g]
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
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

    def is_subgroup_set(self, elems):
        mul = self.mul
        return all(mul[a][b] in elems for a in elems for b in elems)

    def subgroup_generators(self, elems):
        """Greedy small generating list for a subgroup given as a set."""
        gens = []
        have = {self.identity}
        for x in sorted(elems):
            if x not in have:
                gens.append(x)
                have = self.closure(gens)
                if len(have) == len(elems):
                    break
        return tuple(gens)

    def double_coset_reps(self, elems, gens):
        """Least element of each double coset HgH outside H, in increasing
        order, where H is the subgroup on elems generated by gens."""
        mul = self.mul
        gens = list(gens) or [self.identity]
        visited = bytearray(self.n)
        for x in elems:
            visited[x] = 1
        for g in range(self.n):
            if visited[g]:
                continue
            stack = [g]
            visited[g] = 1
            while stack:
                x = stack.pop()
                for h in gens:
                    for y in (mul[h][x], mul[x][h]):
                        if not visited[y]:
                            visited[y] = 1
                            stack.append(y)
            yield g

    def is_maximal(self, elems, gens):
        """A proper subgroup H (on elems, generated by gens) is maximal
        exactly when <H, g> is the whole group for every double coset HgH
        outside H."""
        return len(elems) < self.n and all(
            len(self.closure(list(gens) + [g])) == self.n
            for g in self.double_coset_reps(elems, gens)
        )

    def perm_of(self, idx):
        return self.elements[idx]

    def word_of(self, idx) -> str:
        return format_perm(self.elements[idx])


@dataclass(frozen=True)
class SubgroupRecord:
    parent: GroupTable = field(compare=False, repr=False)
    elements: frozenset
    order: int
    generators: tuple

    @staticmethod
    def from_set(table, elems, gens=None):
        if gens is None:
            gens = table.subgroup_generators(elems)
        return SubgroupRecord(table, frozenset(elems), len(elems), tuple(gens))

    def key(self):
        return tuple(sorted(self.elements))

    def contains(self, other: "SubgroupRecord") -> bool:
        return other.elements <= self.elements


class Lattice:
    """All subgroups of the ambient group, with maximality flags."""

    def __init__(self, table: GroupTable):
        self.table = table
        self.subgroups: list[SubgroupRecord] = []
        self.maximal_flags: list[bool] = []
        self._by_key = {}
        self._build()

    def _build(self):
        table = self.table
        m = table.n
        full = frozenset(range(m))

        def add(elems, gens):
            key = elems
            if key in self._by_key:
                return self._by_key[key]
            rec = SubgroupRecord.from_set(table, elems, gens)
            self._by_key[key] = len(self.subgroups)
            self.subgroups.append(rec)
            self.maximal_flags.append(True)
            return len(self.subgroups) - 1

        trivial = frozenset([table.identity])
        add(trivial, ())
        add(full, tuple(table.gen_idx))
        worklist = [trivial]
        processed = set()
        while worklist:
            elems = worklist.pop(0)
            if elems in processed:
                continue
            processed.add(elems)
            rec = self.subgroups[self._by_key[elems]]
            if 2 * rec.order >= m:
                # only the whole group lies above: H keeps its maximal flag
                continue
            gens = list(rec.generators)
            reached_only_full = True
            for g in table.double_coset_reps(elems, gens):
                new_elems = table.closure(gens + [g])
                if len(new_elems) < m:
                    reached_only_full = False
                    add(new_elems, tuple(gens) + (g,))
                    worklist.append(new_elems)
            if rec.order < m:
                self.maximal_flags[self._by_key[elems]] = reached_only_full
        # canonical order: by order then element tuple
        order = sorted(
            range(len(self.subgroups)),
            key=lambda i: (self.subgroups[i].order, self.subgroups[i].key()),
        )
        self.subgroups = [self.subgroups[i] for i in order]
        self.maximal_flags = [self.maximal_flags[i] for i in order]
        self._by_key = {rec.elements: i for i, rec in enumerate(self.subgroups)}

    def find(self, elems) -> SubgroupRecord:
        return self.subgroups[self._by_key[frozenset(elems)]]

    def maximal_subgroups(self):
        return [
            rec
            for rec, flag in zip(self.subgroups, self.maximal_flags)
            if flag and rec.order < self.table.n
        ]


def frattini(lattice: Lattice) -> SubgroupRecord:
    """Intersection of all maximal subgroups."""
    maxs = lattice.maximal_subgroups()
    table = lattice.table
    if not maxs:
        return lattice.find(frozenset(range(table.n)))
    elems = frozenset.intersection(*(rec.elements for rec in maxs))
    return lattice.find(elems)


def core(lattice: Lattice, H: SubgroupRecord) -> SubgroupRecord:
    """Largest normal subgroup inside H: intersection over all conjugates."""
    table = lattice.table
    if not H.elements <= frozenset(range(table.n)):
        raise ValueError("H does not live in this group")
    return lattice.find(frozenset.intersection(*table.conjugates(H.elements)))


def conjugacy_classes_of_subgroups(lattice: Lattice, records):
    """Partition records into conjugacy classes; reps are canonical-min."""
    table = lattice.table
    remaining = {rec.elements: rec for rec in records}
    classes = []
    while remaining:
        start = min(remaining, key=lambda e: tuple(sorted(e)))
        orbit = table.conjugates(start)
        cls = [remaining.pop(e) for e in orbit if e in remaining]
        cls.sort(key=lambda r: r.key())
        classes.append(cls)
    classes.sort(key=lambda cls: cls[0].key())
    return classes


def normal_subgroups(lattice: Lattice, within: SubgroupRecord = None):
    """Normal subgroups of `within` (default the whole group), ascending."""
    table = lattice.table
    if within is None:
        within = lattice.find(range(table.n))
    out = []
    for rec in lattice.subgroups:
        if rec.elements <= within.elements and all(
            table.conjugate_set(rec.elements, g) == rec.elements
            for g in within.generators
        ):
            out.append(rec)
    return out


def commutator_subgroup(table: GroupTable, A, B):
    """[A, B]: the subgroup generated by the commutators [a, b]."""
    mul, inv = table.mul, table.inv
    comms = {mul[mul[inv[a]][inv[b]]][mul[a][b]] for a in A for b in B}
    return table.closure(sorted(comms))


def is_soluble(table: GroupTable) -> bool:
    cur = frozenset(range(table.n))
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

