"""Permutation arithmetic and a deterministic stabilizer-chain group engine.

Permutations of degree n are tuples of length n over {0..n-1}; entry k is
the image of point k.  Products compose left factor first: (p * q)(x) =
q(p(x)).  All text I/O uses 1-based points in disjoint-cycle notation,
e.g. "(1,2)(3,4,5)"; non-disjoint cycles are applied right to left.
"""

from __future__ import annotations

import re
from operator import itemgetter

Perm = tuple


class DegreeMismatch(ValueError):
    pass


class ParseError(ValueError):
    pass


def identity(n: int) -> Perm:
    return tuple(range(n))


def compose(p, q):
    """Apply p, then q, of one degree n >= 1: one gather of q at p's
    images, after the degree check."""
    if len(p) != len(q):
        raise DegreeMismatch(f"degrees {len(p)} and {len(q)} differ")
    return gather(p)(q)


def gather(indices):
    """The map from a sequence s to the tuple of s[i] for i in indices, in
    their order: itemgetter(*indices), one C-level call per sequence,
    except that one index still gives a 1-tuple, not the bare entry.
    indices is nonempty.  gather(p)(q) is compose(p, q)."""
    if len(indices) == 1:
        (i,) = indices
        return lambda seq: (seq[i],)
    return itemgetter(*indices)


def inverse(p):
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


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


# compiled at import: a first compile in a forked worker copies the pages
# of the re module that it touches, about 136 KB of resident memory
_CYCLES_RE = re.compile(r"(\s*\([\d\s,]*\)\s*)+")
_CYCLE_RE = re.compile(r"\(([^()]*)\)")
_SEP_RE = re.compile(r"[,\s]+")


def parse_perm(text: str, degree: int) -> Perm:
    """Parse disjoint-cycle notation with 1-based points.

    Empty string or "( )" gives the identity.  Cycles need not be disjoint;
    the rightmost cycle acts first.
    """
    stripped = text.strip()
    if stripped in ("", "()", "( )"):
        return identity(degree)
    if not _CYCLES_RE.fullmatch(stripped):
        raise ParseError(f"malformed cycle string: {text!r}")
    cycles = []
    for body in _CYCLE_RE.findall(stripped):
        body = body.strip()
        if not body:
            continue
        pts = [int(tok) for tok in _SEP_RE.split(body) if tok]
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
    """One chain level: the base point, the strong generators fixing every
    earlier base point, the orbit transversal (orbit point -> an element
    taking the base point there) and each element's inverse, and, per
    orbit point, how many of the generators have been applied to it."""

    __slots__ = ("point", "gens", "orbit", "inv", "done")

    def __init__(self, point, degree):
        self.point = point
        self.gens = []
        self.orbit = {point: identity(degree)}
        self.inv = {point: identity(degree)}
        self.done = {}


class PermGroup:
    """Finite permutation group with a deterministic stabilizer chain.

    The chain is built by incremental Schreier-Sims: each Schreier
    generator is sifted once.  The chain starts from the caller's base
    points, if given, in that order; a new base point is the smallest
    point moved by the residue that needs it.  Generators and orbit points
    are taken in a fixed order, so two constructions from the same
    generator list and base produce identical chains.  Immutable after
    construction.
    """

    def __init__(self, generators, degree=None, base=()):
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
        if len(set(base)) != len(base) or not all(0 <= pt < degree for pt in base):
            raise ValueError(f"base points must be distinct points of 0..{degree - 1}")
        self.degree = degree
        self._identity = identity(degree)  # one tuple comparison per identity test
        self.generators = [g for g in generators if tuple(g) != self._identity]
        self._levels: list[_Level] = [_Level(pt, degree) for pt in base]
        for g in self.generators:
            self._add(g, 0)
        self.order = 1
        for lvl in self._levels:
            self.order *= len(lvl.orbit)

    # -- chain construction ------------------------------------------------
    # Level i's generators generate the stabilizer of base points 0..i-1 once
    # every level is closed: every (orbit point, generator) pair has been
    # applied, and each Schreier generator it gave sifts to the identity
    # through the levels below.  Closing level i adds residues to deeper
    # levels only, so its own generator list is fixed while it is closed.

    # Every product below is one gather (g * u^-1 is u^-1 gathered at g's
    # images), with no degree check: __init__ and contains check the
    # degree of every element sifted, and products keep it.

    def _sift(self, g, start=0):
        """Strip g through levels start.. of the chain; return (residue,
        index of the level it stopped at)."""
        for i in range(start, len(self._levels)):
            lvl = self._levels[i]
            img = g[lvl.point]
            if img == lvl.point:
                continue
            if img not in lvl.orbit:
                return g, i
            g = gather(g)(lvl.inv[img])
        return g, len(self._levels)

    def _add(self, g, start):
        """Sift g from level start; a nontrivial residue joins the
        generators of levels start..depth, which are then closed from the
        bottom up."""
        residue, depth = self._sift(g, start)
        if residue == self._identity:
            return
        if depth == len(self._levels):
            moved = min(i for i in range(self.degree) if residue[i] != i)
            self._levels.append(_Level(moved, self.degree))
        for i in range(start, depth + 1):
            self._levels[i].gens.append(residue)
        for i in range(depth, start - 1, -1):
            self._close(i)

    def _close(self, i):
        """Apply every new (orbit point, generator) pair at level i: a new
        image grows the orbit, a known one gives a Schreier generator,
        which is sifted into level i + 1."""
        lvl = self._levels[i]
        points = list(lvl.orbit)
        for pt in points:  # grows as the orbit does
            times_u = gather(lvl.orbit[pt])
            for s in lvl.gens[lvl.done.get(pt, 0):]:
                us = times_u(s)
                img = s[pt]
                if img not in lvl.orbit:
                    lvl.orbit[img] = us
                    lvl.inv[img] = inverse(us)
                    points.append(img)
                elif us != lvl.orbit[img]:
                    self._add(gather(us)(lvl.inv[img]), i + 1)
            lvl.done[pt] = len(lvl.gens)

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
        return residue == self._identity

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
        # so enumerate products in that order, each e * t one gather of t
        # at e's images
        elems = [identity(self.degree)]
        for lvl in reversed(self._levels):
            transversal = [lvl.orbit[pt] for pt in sorted(lvl.orbit)]
            elems = [
                prod for e in elems for prod in map(gather(e), transversal)
            ]
        return elems

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


def read_group_file(path) -> PermGroup:
    """Group file format: first line "degree n" with n >= 1, then one
    generator per line."""
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    except OSError as exc:
        raise ParseError(f"cannot read group file: {exc}") from exc
    head = lines[0].split() if lines else []
    if len(head) != 2 or head[0] != "degree" or not head[1].isdigit() or int(head[1]) < 1:
        raise ParseError('group file must start with a "degree n" line, n >= 1')
    degree = int(head[1])
    gens = [parse_perm(ln, degree) for ln in lines[1:]]
    return PermGroup(gens, degree)
