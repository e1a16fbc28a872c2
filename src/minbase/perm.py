"""Permutation arithmetic and a deterministic stabilizer-chain group engine.

Permutations of degree n are tuples of length n over {0..n-1}; entry k is
the image of point k.  Products compose left factor first: (p * q)(x) =
q(p(x)).  All text I/O uses 1-based points in disjoint-cycle notation,
e.g. "(1,2)(3,4,5)"; non-disjoint cycles are applied right to left.
"""

from __future__ import annotations

import re

Perm = tuple


class DegreeMismatch(ValueError):
    pass


class ParseError(ValueError):
    pass


def identity(n: int) -> Perm:
    return tuple(range(n))


def is_identity(p) -> bool:
    return all(i == j for i, j in enumerate(p))


def compose(p, q):
    """Apply p, then q."""
    if len(p) != len(q):
        raise DegreeMismatch(f"degrees {len(p)} and {len(q)} differ")
    return tuple(q[x] for x in p)


def inverse(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def conjugate_perm(p, g):
    """g^-1 * p * g (left-first products)."""
    return compose(compose(inverse(g), p), g)


def sign(p) -> int:
    """+1 for even permutations, -1 for odd."""
    seen = [False] * len(p)
    s = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            s = -s
    return s


def perm_order(p) -> int:
    seen = [False] * len(p)
    order = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        order = _lcm(order, length)
    return order


def _lcm(a, b):
    from math import gcd

    return a * b // gcd(a, b)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_perm(text: str, degree: int) -> Perm:
    """Parse disjoint-cycle notation with 1-based points.

    Empty string or "( )" gives the identity.  Cycles need not be disjoint;
    the rightmost cycle acts first.
    """
    stripped = text.strip()
    if stripped in ("", "()", "( )"):
        return identity(degree)
    if not re.fullmatch(r"(\s*\([\d\s,]*\)\s*)+", stripped):
        raise ParseError(f"malformed cycle string: {text!r}")
    cycles = []
    for body in _CYCLE_RE.findall(stripped):
        body = body.strip()
        if not body:
            continue
        pts = [int(tok) for tok in re.split(r"[,\s]+", body) if tok]
        for pt in pts:
            if not 1 <= pt <= degree:
                raise ParseError(f"point {pt} out of range 1..{degree}")
        if len(set(pts)) != len(pts):
            raise ParseError(f"repeated point inside cycle: ({body})")
        cycles.append([pt - 1 for pt in pts])
    result = identity(degree)
    for cycle in reversed(cycles):
        images = list(identity(degree))
        for i, pt in enumerate(cycle):
            images[pt] = cycle[(i + 1) % len(cycle)]
        result = compose(result, tuple(images))
    return result


def format_perm(p) -> str:
    """Disjoint-cycle string with 1-based points; identity is "()"."""
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cycle = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            seen[j] = True
            cycle.append(j)
            j = p[j]
        out.append("(" + ",".join(str(x + 1) for x in cycle) + ")")
    return "".join(out) if out else "()"


def orbit(point, gens):
    """Set of points reachable from point under the permutations gens."""
    orb = {point}
    stack = [point]
    while stack:
        x = stack.pop()
        for g in gens:
            y = g[x]
            if y not in orb:
                orb.add(y)
                stack.append(y)
    return orb


def orbits(n, gens):
    """Orbits of the permutations gens on {0..n-1}, each sorted, in order
    of least point."""
    seen = set()
    out = []
    for start in range(n):
        if start not in seen:
            orb = orbit(start, gens)
            seen |= orb
            out.append(sorted(orb))
    return out


class _Level:
    __slots__ = ("point", "gens", "orbit")

    def __init__(self, point):
        self.point = point
        self.gens = []
        self.orbit = {}


class PermGroup:
    """Finite permutation group with a deterministic stabilizer chain.

    Base points are always the smallest point moved at each level, and
    orbits are built breadth-first in a fixed order, so two constructions
    from the same generator list produce identical chains.  Immutable
    after construction.
    """

    def __init__(self, generators, degree=None):
        generators = [tuple(g) for g in generators]
        if degree is None:
            if not generators:
                raise ValueError("degree required for an empty generator list")
            degree = len(generators[0])
        for g in generators:
            if len(g) != degree:
                raise DegreeMismatch("generators of mixed degree")
            if sorted(g) != list(range(degree)):
                raise ValueError(f"not a permutation of 0..{degree - 1}: {g}")
        self.degree = degree
        self.generators = [g for g in generators if not is_identity(g)]
        self._levels: list[_Level] = []
        self._build()
        self.order = 1
        for lvl in self._levels:
            self.order *= len(lvl.orbit)

    # -- chain construction ------------------------------------------------
    # Level i stores the strong generators first introduced there (those
    # fixing base points 0..i-1).  The generating set of the level-i
    # stabilizer is the union of gens stored at levels >= i, since deeper
    # generators fix the earlier base points but may still grow an orbit.

    def _level_gens(self, i):
        gens = []
        for lvl in self._levels[i:]:
            gens.extend(lvl.gens)
        return gens

    def _rebuild_orbit(self, i):
        lvl = self._levels[i]
        gens = self._level_gens(i)
        lvl.orbit = {lvl.point: identity(self.degree)}
        frontier = [lvl.point]
        while frontier:
            nxt = []
            for pt in frontier:
                u = lvl.orbit[pt]
                for g in gens:
                    img = g[pt]
                    if img not in lvl.orbit:
                        lvl.orbit[img] = compose(u, g)
                        nxt.append(img)
            frontier = nxt

    def _sift(self, g):
        """Strip g through the chain; return (residue, levels passed)."""
        for i, lvl in enumerate(self._levels):
            img = g[lvl.point]
            if img == lvl.point:
                continue
            if img not in lvl.orbit:
                return g, i
            g = compose(g, inverse(lvl.orbit[img]))
        return g, len(self._levels)

    def _build(self):
        queue = list(self.generators)
        while queue:
            g = queue.pop(0)
            if is_identity(g):
                continue
            residue, depth = self._sift(g)
            if is_identity(residue):
                continue
            if depth == len(self._levels):
                moved = min(i for i in range(self.degree) if residue[i] != i)
                self._levels.append(_Level(moved))
                depth = len(self._levels) - 1
            self._levels[depth].gens.append(residue)
            for i in range(depth, -1, -1):
                self._rebuild_orbit(i)
            for i in range(depth + 1):
                lvl = self._levels[i]
                gens = self._level_gens(i)
                for pt in sorted(lvl.orbit):
                    u = lvl.orbit[pt]
                    for s in gens:
                        schreier = compose(compose(u, s), inverse(lvl.orbit[s[pt]]))
                        if not is_identity(schreier):
                            queue.append(schreier)

    # -- queries -----------------------------------------------------------

    @property
    def base(self):
        return [lvl.point for lvl in self._levels]

    def contains(self, g) -> bool:
        g = tuple(g)
        if len(g) != self.degree:
            raise DegreeMismatch(
                f"element degree {len(g)} != group degree {self.degree}"
            )
        residue, _ = self._sift(g)
        return is_identity(residue)

    def __contains__(self, g):
        return self.contains(g)

    def is_subgroup(self, other: "PermGroup") -> bool:
        """True when every generator of other lies in this group."""
        return all(self.contains(g) for g in other.generators)

    def elements(self, limit: int = 10**6):
        """All elements via transversal products, deterministic order."""
        if self.order > limit:
            raise ValueError(f"order {self.order} exceeds enumeration limit {limit}")
        # Sifting decomposes g = u_L * ... * u_1 (deepest transversal first),
        # so enumerate products in that order.
        elems = [identity(self.degree)]
        for lvl in reversed(self._levels):
            transversal = [lvl.orbit[pt] for pt in sorted(lvl.orbit)]
            elems = [compose(e, t) for e in elems for t in transversal]
        return elems

    def conjugate(self, g) -> "PermGroup":
        """The group g^-1 * self * g, with a freshly built chain."""
        g = tuple(g)
        if len(g) != self.degree:
            raise DegreeMismatch("conjugating element of wrong degree")
        return PermGroup([conjugate_perm(h, g) for h in self.generators], self.degree)

    def random_element(self, rng):
        g = identity(self.degree)
        for lvl in self._levels:
            pts = sorted(lvl.orbit)
            g = compose(lvl.orbit[pts[rng.randrange(len(pts))]], g)
        return g

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order})"


class CosetAction:
    """Action of G on the right cosets of H by right translation.

    Cosets are labeled 0..index-1 in BFS discovery order (deterministic);
    coset equality Hx = Hy is decided by the membership test x*y^-1 in H,
    bucketed under the H-invariant fingerprint {x(O)} over H-orbits O.
    The kernel of the action is the core of H in G.
    """

    def __init__(self, G: PermGroup, H: PermGroup):
        if H.degree != G.degree:
            raise DegreeMismatch("subgroup degree differs from group degree")
        if not G.is_subgroup(H):
            raise ValueError("H is not a subgroup of G")
        self.G = G
        self.H = H
        self._h_orbits = orbits(H.degree, H.generators)
        self.reps = [identity(G.degree)]
        self._buckets = {self._fingerprint(self.reps[0]): [0]}
        frontier = [0]
        while frontier:
            nxt = []
            for i in frontier:
                for g in G.generators:
                    cand = compose(self.reps[i], g)
                    if self._find(cand) is None:
                        idx = len(self.reps)
                        self.reps.append(cand)
                        self._buckets.setdefault(self._fingerprint(cand), []).append(idx)
                        nxt.append(idx)
            frontier = nxt
        self.degree = len(self.reps)
        gen_images = [self.perm_image(g) for g in G.generators]
        self.image = (
            PermGroup(gen_images, self.degree)
            if gen_images
            else PermGroup([], self.degree)
        )
        self.gen_images = gen_images

    def _fingerprint(self, g):
        return tuple(frozenset(g[x] for x in orb) for orb in self._h_orbits)

    def _find(self, g):
        bucket = self._buckets.get(self._fingerprint(g), [])
        for idx in bucket:
            if self.H.contains(compose(g, inverse(self.reps[idx]))):
                return idx
        return None

    def coset_index(self, g) -> int:
        """Label of the coset H*g."""
        idx = self._find(tuple(g))
        if idx is None:
            raise ValueError("element does not lie in the enumerated group")
        return idx

    def perm_image(self, g):
        """Permutation of coset labels induced by right translation by g."""
        return tuple(self.coset_index(compose(r, g)) for r in self.reps)


def coset_action(G: PermGroup, H: PermGroup):
    """Returns (image PermGroup of degree |G:H|, coset representatives,
    image permutations of G's generators).  See CosetAction."""
    action = CosetAction(G, H)
    return action.image, action.reps, action.gen_images


def read_group_file(path) -> PermGroup:
    """Group file format: first line "degree n", then one generator per line."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines or not lines[0].startswith("degree"):
        raise ParseError('group file must start with a "degree n" line')
    degree = int(lines[0].split()[1])
    gens = [parse_perm(ln, degree) for ln in lines[1:]]
    return PermGroup(gens, degree)


def write_group_file(path, G: PermGroup):
    with open(path, "w") as fh:
        fh.write(f"degree {G.degree}\n")
        for g in G.generators:
            fh.write(format_perm(g) + "\n")
