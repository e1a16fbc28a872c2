"""Set partitions, the explicit grid constructions for the partition action
of the symmetric group, and a partition-stabilizer backtrack.

The points of the action are partitions of {0..n-1} into a blocks of size
b.  The stabilizer engine colors points by their block-intersection
signatures, refines to a fixpoint, and certifies (or collects generators
of) the joint stabilizer by individualization backtracking.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import lru_cache

from .errors import CertificationError
from .perm import PermGroup, compose, gather, identity, inverse, orbit, sign


class GroundMismatch(ValueError):
    pass


class SearchBudgetExceeded(RuntimeError):
    pass


class PreconditionError(ValueError):
    pass


GROUND_CAP = 128  # the largest ground set any partition command takes


def _check_ground(n):
    """Refuse a ground set above the cap before anything is built on it."""
    if n > GROUND_CAP:
        raise PreconditionError(f"ground size {n} exceeds the {GROUND_CAP}-point cap")


# ---------------------------------------------------------------------------
# partitions


class SetPartition:
    """Partition of {0..ground_size-1} into disjoint blocks covering it;
    every construction checks that the blocks are one."""

    __slots__ = ("ground_size", "blocks")

    def __init__(self, ground_size: int, blocks: tuple):
        self.ground_size, self.blocks = ground_size, blocks
        seen = set()
        for blk in blocks:
            points = set(blk)
            if not points:
                raise ValueError("empty block")
            if len(points) != len(blk):
                raise ValueError("a block repeats a point")
            if seen & points:
                raise ValueError("blocks are not disjoint")
            seen |= points
        if seen != set(range(ground_size)):
            raise ValueError("blocks do not cover the ground set")

    @staticmethod
    def from_blocks(ground_size, blocks):
        return SetPartition(
            ground_size, tuple(tuple(sorted(b)) for b in blocks)
        )

    def canonical(self):
        """Blocks sorted ascending, each block sorted: a hashable normal form."""
        return tuple(sorted(tuple(sorted(b)) for b in self.blocks))

    def block_of(self):
        return _block_of(self.ground_size, self.blocks)


def _block_of(ground_size, blocks):
    """Array mapping each point to the index of its block."""
    arr = [0] * ground_size
    for i, blk in enumerate(blocks):
        for x in blk:
            arr[x] = i
    return arr


def parse_partition(text: str, ground_size: int) -> SetPartition:
    """Parse "{1,2,3}|{4,5,6}" with 1-based points, on a ground set
    within the cap."""
    _check_ground(ground_size)
    blocks = []
    for chunk in text.strip().split("|"):
        chunk = chunk.strip()
        if not (chunk.startswith("{") and chunk.endswith("}")):
            raise ValueError(f"block not brace-delimited: {chunk!r}")
        pts = [int(t) - 1 for t in chunk[1:-1].split(",") if t.strip()]
        blocks.append(pts)
    return SetPartition.from_blocks(ground_size, blocks)


def format_partition(part: SetPartition) -> str:
    return "|".join(
        "{" + ",".join(str(x + 1) for x in sorted(b)) + "}"
        for b in part.canonical()
    )


def uniform_partition(a, b) -> SetPartition:
    """The canonical partition [0..b-1 | b..2b-1 | ...] of a*b points."""
    return SetPartition.from_blocks(
        a * b, [range(i * b, (i + 1) * b) for i in range(a)]
    )


def apply_to_canonical(g, blocks):
    """Image of a canonical block tuple under g, re-canonicalized."""
    return tuple(sorted(tuple(sorted(g[x] for x in blk)) for blk in blocks))


# ---------------------------------------------------------------------------
# the three explicit grid constructions


def _grid_triple(pairs, d_blocks):
    """Rows B, columns C and the partition D with the given blocks of grid
    points (i, j), the points numbered in the row-major order of pairs."""
    index = {p: k for k, p in enumerate(pairs)}
    rows = [[p for p in pairs if p[0] == i] for i in sorted({i for i, _ in pairs})]
    cols = [[p for p in pairs if p[1] == j] for j in sorted({j for _, j in pairs})]
    return tuple(
        SetPartition.from_blocks(len(pairs), [[index[p] for p in blk] for blk in blocks])
        for blocks in (rows, cols, d_blocks)
    )


def construct_bcd_plus2(a: int):
    """Rows, columns and the rows with (0,2) and (1,3) exchanged, on the
    pairs (i,j) of (Z/a)^2 with i-j != +-1: an a-by-(a-2) domain."""
    if a < 4:
        raise PreconditionError("a >= 4 required (block size a-2 >= 2)")
    pairs = [(i, j) for i in range(a) for j in range(a) if (i - j) % a not in (1, a - 1)]
    swap = {(0, 2): (1, 3), (1, 3): (0, 2)}
    return _grid_triple(pairs, [[swap.get(p, p) for p in pairs if p[0] == i] for i in range(a)])


def construct_bcd_plus1(a: int):
    """Rows, columns and the zigzag swap on the pairs (i,j) of (Z/a)^2 with
    j-i != 1, an a-by-(a-1) domain (a >= 5): D exchanges (2i, 2j) with
    (2i+1, 2j+1), j = 1..i+1, between rows 2i and 2i+1."""
    if a < 5:
        raise PreconditionError("a >= 5 required; a = 4 is handled by search")
    pairs = [(i, j) for i in range(a) for j in range(a) if (j - i) % a != 1]
    swap = {}
    for i in range(a // 2):
        for j in range(1, i + 2):
            y, z = (2 * i, 2 * j % a), (2 * i + 1, (2 * j + 1) % a)
            swap[y], swap[z] = z, y
    return _grid_triple(pairs, [[swap.get(p, p) for p in pairs if p[0] == i] for i in range(a)])


def construct_bcd_equal(a: int):
    """Rows, columns and the interleaved partition D on the a-by-a grid
    {1..a}^2 (a >= 6)."""
    if a < 6:
        raise PreconditionError("a >= 6 required; a in {3,4,5} handled by search")
    pairs = [(i, j) for i in range(1, a + 1) for j in range(1, a + 1)]
    k = a // 2
    d_blocks = []
    for i in range(k - 1):
        r1, r2 = 2 * i + 1, 2 * i + 2
        d_blocks.append([(r, 2 * j) for r in (r1, r2) for j in range(1, i + 2)]
                        + [(r1, y) for y in range(2 * i + 3, a + 1)])
        d_blocks.append([(r, 2 * j - 1) for r in (r1, r2) for j in range(1, i + 2)]
                        + [(r2, y) for y in range(2 * i + 3, a + 1)])
    r1, r2 = 2 * k - 1, 2 * k
    if a % 2 == 0:
        d_blocks.append([(r1, 1), (r1, 2 * k)]
                        + [(r, 2 * j) for j in range(1, k) for r in (r1, r2)])
        d_blocks.append([(r2, 1), (r2, 2 * k)]
                        + [(r, 2 * j + 1) for j in range(1, k) for r in (r1, r2)])
    else:
        d_blocks.append([(r1, 1), (r1, 3), (r1, 2 * k + 1)]
                        + [(r, 2 * j) for j in range(2, k + 1) for r in (r1, r2)])
        d_blocks.append([(r2, 1), (r1, 2), (r2, 2), (r2, 3), (r2, 2 * k + 1)]
                        + [(r, 2 * j + 1) for j in range(2, k) for r in (r1, r2)])
        d_blocks.append([(a, y) for y in range(1, a + 1)])
    return _grid_triple(pairs, d_blocks)


# ---------------------------------------------------------------------------
# stabilizer of a family of partitions: refinement + individualization


class _StabContext:
    def __init__(self, family):
        """The backtrack's view of a family given by its partitions'
        canonical forms, all on one ground set."""
        sizes = {sum(map(len, blocks)) for blocks in family}
        if len(sizes) != 1:
            raise GroundMismatch("partitions live on different ground sets")
        self.n = sizes.pop()
        _check_ground(self.n)
        self.blocks = family
        self.block_of = [_block_of(self.n, blocks) for blocks in family]
        self.block_sets = [set(bs) for bs in self.blocks]
        # per partition, one gather per block (a coloring's or a map's
        # entries at the block's points) and one of its block_of (a value
        # per block spread to the points)
        self.takes = [list(map(gather, blocks)) for blocks in family]
        self.spreads = list(map(gather, self.block_of))
        # seed colors: per-point block sizes and pairwise intersection sizes
        seeds = [[] for _ in range(self.n)]
        for blocks, block_of in zip(self.blocks, self.block_of):
            for x in range(self.n):
                seeds[x].append(len(blocks[block_of[x]]))
        for k1 in range(len(family)):
            for k2 in range(k1 + 1, len(family)):
                m = [[0] * len(family[k2]) for _ in family[k1]]
                pairs = list(zip(self.block_of[k1], self.block_of[k2]))
                for r, s in pairs:
                    m[r][s] += 1
                for x, (r, s) in enumerate(pairs):
                    seeds[x].append(m[r][s])
        ranked = {s: i for i, s in enumerate(sorted({tuple(s) for s in seeds}))}
        self.seed_colors = tuple(ranked[tuple(s)] for s in seeds)

    def refine(self, colors, trace=None):
        """Iterate block-signature refinement to a fixpoint.  Returns the
        refined coloring and its trace, the sorted distinct signatures of
        each round.  Given the trace of a source coloring, the coloring is
        a target with as many colors as the source: refinement stops,
        returning None, at the first round whose signatures differ from
        the source's.  A target that matches every round reaches the
        fixpoint in the same round as the source.

        A point's signature is its color followed, for each partition
        whose blocks' tallies differ, by the rank of its block's tally
        among the partition's distinct tallies, a tally being the sorted
        tuple of the block's colors (the multiset of its colors in
        canonical form).  Each such partition adds one column, the ranks
        spread to the points through its block_of, and signatures compare
        as tuples.  A partition all of whose blocks have one tally tells
        no point from another and adds none.

        The stop loses no image: a partition-stabilizing map sending the
        source onto the target sends each block onto a block with the
        same color multiset, so each partition's tallies, their ranks and
        whether they differ are the same on both sides, each round gives
        the target the source's signatures, and the relabeled colorings
        are again sent one onto the other by the map.  A stopped target is
        the image of no such map."""
        source = trace is None
        if source:
            trace = []
        count = len(set(colors))
        rnd = 0
        while True:
            columns = []
            for takes, spread in zip(self.takes, self.spreads):
                tallies = [tuple(sorted(take(colors))) for take in takes]
                distinct = set(tallies)
                if len(distinct) > 1:
                    rank = {t: i for i, t in enumerate(sorted(distinct))}
                    columns.append(spread(list(map(rank.__getitem__, tallies))))
            sigs = list(zip(colors, *columns))
            keys = sorted(set(sigs))
            if source:
                trace.append(keys)
            elif keys != trace[rnd]:
                return None
            rnd += 1
            ranked = {s: i for i, s in enumerate(keys)}
            colors = tuple(map(ranked.__getitem__, sigs))
            if len(ranked) == count:
                return colors, trace
            count = len(ranked)

    def first_path(self, colors):
        """The backtrack's first path from a refined coloring, as a list of
        levels (coloring, branch cell, trace).  The branch cell, the one
        rule for choosing where to branch, is the smallest cell of two or
        more points, ties broken by the least point; it lists its points
        in increasing order.  The level below individualizes the cell's
        least point and refines, and the trace is that refinement's.  The
        last level is discrete and has neither cell nor trace."""
        path = []
        while True:
            cells = {}
            for x, c in enumerate(colors):
                cells.setdefault(c, []).append(x)
            cell = min((pts for pts in cells.values() if len(pts) > 1),
                       key=lambda pts: (len(pts), pts[0]), default=None)
            if cell is None:
                path.append((colors, None, None))
                return path
            below, trace = self.refine(self.individualize(colors, cell[0]))
            path.append((colors, cell, trace))
            colors = below

    def individualize(self, colors, x):
        """The coloring with x alone in a fresh color, unrefined."""
        lst = list(colors)
        lst[x] = max(colors) + 1
        return tuple(lst)

    def stabilizes(self, g):
        """True when g maps every block of every partition onto one of
        the same partition's blocks."""
        for takes, block_set in zip(self.takes, self.block_sets):
            for take in takes:
                if tuple(sorted(take(g))) not in block_set:
                    return False
        return True

    def find_auto(self, path, depth, tgt):
        """Exhaustive search for a partition-stabilizing bijection sending
        the coloring at level `depth` of the first path onto the target
        coloring; None if none exists.  The source side never branches: it
        is the rest of the path.  The target branches at each point y of
        the source's branch color, individualized and refined against the
        level's trace.  A target stopped there has no image, as such a
        bijection would make every refinement round equivariant and so
        repeat the source's signatures; its branch returns None, as a full
        search of it would."""
        colors, cell, trace = path[depth]
        if sorted(colors) != sorted(tgt):
            return None
        if cell is None:
            pos = {c: y for y, c in enumerate(tgt)}
            g = tuple(pos[c] for c in colors)
            return g if self.stabilizes(g) else None
        branch = colors[cell[0]]
        for y, c in enumerate(tgt):
            if c == branch:
                below = self.refine(self.individualize(tgt, y), trace)
                if below is not None:
                    found = self.find_auto(path, depth + 1, below[0])
                    if found is not None:
                        return found
        return None


def _even_subgroup(G: PermGroup) -> PermGroup:
    """Kernel of the sign character, via a Schreier transversal {1, t};
    each Schreier generator is listed once, at its first occurrence."""
    odd = [g for g in G.generators if sign(g) < 0]
    if not odd:
        return G
    t = odd[0]
    t_inv = inverse(t)
    kgens = {}
    for u in (identity(G.degree), t):
        for g in G.generators:
            w = compose(u, g)
            if sign(w) < 0:
                w = compose(w, t_inv)
            kgens[w] = None
    K = PermGroup(list(kgens), G.degree, base=G.base)
    if 2 * K.order != G.order:
        raise CertificationError("even subgroup does not have index 2")
    return K


def partition_stabilizer(partitions, parity: str = "all") -> PermGroup:
    """Group of all permutations of the ground set mapping every listed
    partition to itself (blocks permuted); parity="even" restricts to even
    permutations.  Ground size is capped at GROUND_CAP.

    The backtrack walks its first path once, deepest level first.  At each
    level, each point q of the branch cell outside the orbit so far of its
    least point is individualized, refined against the level's trace and
    matched by find_auto against the rest of the path; a map found fixes
    the earlier levels' points and sends the least point to q.  The orbit
    grows under every generator found so far, at this level and below.
    The orbit lengths multiply to the order, which the generators' chain
    over the path's points must confirm.

    The group depends on each partition's blocks, not on the order they
    are listed in, so a one-entry memo keyed on the family's canonical
    form answers the same family asked again, as the emit-time check asks
    for the family a search has just accepted.  The group returned is the
    memo's own: read it, do not change it."""
    if parity not in ("all", "even"):
        raise ValueError("parity must be 'all' or 'even'")
    return _canonical_stabilizer(tuple(p.canonical() for p in partitions), parity)


@lru_cache(maxsize=1)
def _canonical_stabilizer(family, parity):
    """partition_stabilizer of the family of canonical forms: a function
    of the memo key alone, so a hit answers as a miss would.

    Let b_0, .., b_{L-1} be the least points of the path's branch cells
    and G_j the stabilizer of the family fixing b_0, .., b_{j-1} pointwise.
    Claim: once levels L-1 down to j are walked, the generators found
    generate G_j, and the orbit lengths of those levels multiply to |G_j|.
    G_L fixes the discrete coloring at the path's end (refinement is
    equivariant), so it is trivial, as the empty list generates.  Step
    from j + 1 to j: the generators found so far generate G_{j+1}, the
    stabilizer of b_j in G_j, and each new one lies in G_j.  G_j keeps the
    coloring at level j, so the orbit b_j^{G_j} lies in the branch cell,
    and find_auto, an exhaustive search, finds a map in G_j sending b_j to
    any of its points.  A point of the cell left outside the orbit of the
    generators is searched and, if it lies in b_j^{G_j}, added to it; so
    the orbit ends as b_j^{G_j}.  The generators then hold G_{j+1} and
    reach every point of b_j^{G_j}, so they generate G_j, of order
    |b_j^{G_j}| * |G_{j+1}|.  At j = 0 they generate the stabilizer, and
    the chain built over b_0, .., b_{L-1} must confirm its order."""
    ctx = _StabContext(family)
    path = ctx.first_path(ctx.refine(ctx.seed_colors)[0])
    gens = []
    order = 1
    for depth in range(len(path) - 2, -1, -1):
        colors, cell, trace = path[depth]
        level_gens = []
        orb = orbit(cell[0], gens)
        for q in cell[1:]:
            if q in orb:
                continue
            tgt = ctx.refine(ctx.individualize(colors, q), trace)
            found = None if tgt is None else ctx.find_auto(path, depth + 1, tgt[0])
            if found is not None:
                if not ctx.stabilizes(found):
                    raise CertificationError("backtrack returned a non-stabilizing map")
                level_gens.append(found)
                orb = orbit(cell[0], level_gens + gens)
        # listed from the top level down, the order the chain closes with
        # the fewest Schreier generators (1,986 composes for S3 wr S8,
        # 5,038 when listed deepest first)
        gens = level_gens + gens
        order *= len(orb)
    G = PermGroup(gens, ctx.n, base=[cell[0] for _, cell, _ in path[:-1]])
    if G.order != order:
        raise CertificationError("generator set does not match the orbit chain")
    if parity == "even":
        return _even_subgroup(G)
    return G


partition_stabilizer.cache_info = _canonical_stabilizer.cache_info
partition_stabilizer.cache_clear = _canonical_stabilizer.cache_clear


# ---------------------------------------------------------------------------
# base sizes for the partition action


def partition_base_size_value(a: int, b: int, ambient: str = "sym") -> int:
    """Claimed minimal base size for the (a,b) partition action, a >= b >= 2
    and ab within the ground cap."""
    _validate_ab(a, b)
    if ambient == "sym":
        if (a, b) == (3, 2):
            return 4
        if b >= 3 and a >= max(b + 3, 8):
            return 2
        return 3
    if ambient == "alt":
        eps = 2 if b >= 5 else 3
        if b >= 3 and a >= b + eps:
            return 2
        return 3
    raise ValueError("ambient must be 'sym' or 'alt'")


def _validate_ab(a, b):
    """Refuse an invalid action, or one whose ab points exceed the cap,
    before any construction or draw."""
    if not (a >= b >= 2):
        raise PreconditionError("need a >= b >= 2")
    if (a, b) == (2, 2):
        raise PreconditionError("(2,2) is excluded: the stabilizer is normal")
    _check_ground(a * b)


def wreath_generators(a, b):
    """Generators of the stabilizer of the canonical uniform partition."""
    n = a * b
    gens = []
    if b >= 2:
        g = list(range(n))
        g[0], g[1] = 1, 0
        gens.append(tuple(g))
        g = list(range(n))
        for i in range(b):
            g[i] = (i + 1) % b
        gens.append(tuple(g))
    if a >= 2:
        g = list(range(n))
        for i in range(b):
            g[i], g[b + i] = b + i, i
        gens.append(tuple(g))
        gens.append(tuple((x + b) % n for x in range(n)))
    return gens


def base_size_partitions(a, b, mode="exact", ambient="sym", seed=1, budget=100000):
    """minimal_partition_base's base of the (a,b) partition action, for the
    caller to certify.  Mode "exact" first refuses, before any search,
    unless _is_least_base_size proves the paper's value least."""
    if mode not in ("exact", "upper"):
        raise ValueError("mode must be 'exact' or 'upper'")
    claimed = partition_base_size_value(a, b, ambient)
    if mode == "exact" and not _is_least_base_size(a, b, ambient, claimed):
        raise PreconditionError(
            f"exact mode has no lemma proving {claimed} least for {ambient} ({a},{b})")
    return minimal_partition_base(a, b, ambient=ambient, seed=seed, budget=budget)


def _is_least_base_size(a, b, ambient, size):
    """Given a base of that size, none is smaller, by the lemma below.  A
    set holding a base is a base, so it suffices that none is one smaller.

    Size 2.  A single partition is never a base: its stabilizer holds a
    3-cycle inside a block or, for b = 2, two blocks' transpositions.

    Size 3, under sym when b = 2 or a - b <= 2, and under alt when b = 2,
    a = b or a = b + 1: no pair (P, Q) is a base.  Let M be the a x a
    matrix of the sizes |P_i meet Q_j|, its row and column sums b.  The
    points of one entry form a cell, and any permutation of a cell fixes
    P and Q.
    - sym.  Two points sharing a cell give a transposition.  Otherwise the
      points are the edges of a b-regular simple bipartite graph on the
      blocks of P and of Q.  For b = 2 it is a union of even cycles; for
      a - b = 0, 1 or 2 its complement in K_{a,a} is empty, a perfect
      matching or a union of even cycles.  Each has a nontrivial
      automorphism keeping the two sides, which moves some vertex and with
      it the edges, that is points, at it.
    - alt.  A cell of three points gives a 3-cycle and two cells of two a
      double transposition, so let the entries be at most 2, with at most
      one 2.
      b = 2: the blocks and points form a 2-regular bipartite multigraph,
      a union of cycles.  A cycle through 2k >= 4 blocks, turned by two
      steps, keeps the sides and moves its 2k points in two k-cycles, an
      even permutation.  With no such cycle every cycle is a doubled edge,
      an entry 2, and a >= 3 of them are too many.
      a = b: the entries sum to a^2, so M has as many 0s as 2s.  A 2 at
      (r, c) needs a 0 elsewhere in row r and one elsewhere in column c,
      two 0s.  So M = J: P and Q are the rows and columns of the a x a
      grid, and a 3-cycle of the rows moves the points in 3-cycles.
      a = b + 1: the entries sum to a^2 - a, so M has a more 0s than 2s.
      With no 2, each row and column has one 0.  Number Q's blocks so that
      the 0s lie on the diagonal; a 3-cycle of the indices, applied to
      rows and columns alike, keeps M and moves the points in 3-cycles.
      With one 2 at (r, c), row r has 0s in two columns j1, j2 and column
      c in two rows i1, i2, and every other row and column has one 0.  So
      rows i1 and i2 are all 1s but at c, and columns j1 and j2 all 1s but
      at r.  Exchanging the two rows point by point is b transpositions,
      and so is exchanging the two columns: together, an even permutation.

    Size 4, under sym at (a, b) = (3, 2): no three partitions are a base.
    The 15 partitions of six points into pairs (synthemes) are mapped onto
    the 15 pairs (duads) by an outer automorphism of S6, which maps
    transpositions to products of three (Sylvester).  So it suffices that
    a transposition fixes any three duads.  If they cover at most four
    points, the transposition of two points they miss does; otherwise one
    of them is disjoint from the other two, and its own does."""
    if size == 2:
        return True
    if size == 3:
        return b == 2 or a - b <= (2 if ambient == "sym" else 1)
    return size == 4 and ambient == "sym" and (a, b) == (3, 2)


def _shuffled_points(n, rng):
    pts = list(range(n))
    rng.shuffle(pts)
    return pts


def _dealt_partition(pts, a, b) -> SetPartition:
    """The partition whose block i holds pts[i*b : (i+1)*b]."""
    return SetPartition.from_blocks(a * b, [pts[i * b : (i + 1) * b] for i in range(a)])


def _forced_symmetry(block_ofs, parity):
    """True when partitions, given by their block_of() arrays, visibly
    share a nontrivial symmetry of the given parity, without building
    their stabilizer.

    Points with the same block in every partition form a cell; any
    permutation of a cell fixes every block.  Under parity "all" a cell of
    two points gives a transposition.  A transposition is odd, so under
    parity "even" it takes a cell of three points (a 3-cycle) or two cells
    of two (a double transposition)."""
    tally = Counter(zip(*block_ofs))
    cells = [k for k in tally.values() if k > 1]
    if parity == "all":
        return bool(cells)
    return len(cells) > 1 or any(k > 2 for k in cells)


def _perfect_matching(adj, rng):
    """A perfect matching of the bipartite graph whose row i meets the
    columns adj[i], as the column of each row, or None when it has none.
    Kuhn's augmenting paths: rows are matched in order, each trying its
    columns in an order shuffled by rng, and a row whose search fails
    proves that no matching covers it and the rows before it."""
    order = []
    for cols in adj:
        cols = list(cols)
        rng.shuffle(cols)
        order.append(cols)
    row_of = [None] * len(adj)

    def augment(i, seen):
        for j in order[i]:
            if j not in seen:
                seen.add(j)
                if row_of[j] is None or augment(row_of[j], seen):
                    row_of[j] = i
                    return True
        return False

    for i in range(len(adj)):
        if not augment(i, set()):
            return None
    col_of = [0] * len(adj)
    for j, i in enumerate(row_of):
        col_of[i] = j
    return col_of


def _draw_intersection_matrix(a, b, parity, rng):
    """A seeded a x a intersection matrix M for a partner of the canonical
    partition (row and column sums b), or None when an alt draw cannot be
    completed.  M is a sum of perfect matchings of K_{a,a}, each drawn by
    _perfect_matching among the edges earlier ones left.

    Parity "all": b matchings, or a - b and then the complement J - M when
    2b > a, so M is 0-1 and no two points share a cell.  No draw fails:
    after k matchings the edges left form an (a - k)-regular bipartite
    graph, which has a perfect matching (Koenig).  Parity "even": b - 1
    matchings, then one more made of a drawn edge (r, c) of theirs and
    edges left that meet neither r nor c; so M is 0-1 but for one 2, at
    (r, c), the one cell shared by two points.  That last matching may
    not exist, and then the draw fails."""
    M = [[0] * a for _ in range(a)]
    even = parity == "even"
    complement = not even and 2 * b > a
    matchings = b - 1 if even else (a - b if complement else b)
    for _ in range(matchings):
        cols = _perfect_matching([[j for j in range(a) if not row[j]] for row in M], rng)
        for row, j in zip(M, cols):
            row[j] = 1
    if complement:
        return [[1 - m for m in row] for row in M]
    if even:
        r = rng.randrange(a)
        c = [j for j in range(a) if M[r][j]][rng.randrange(b - 1)]
        adj = [[c] if i == r else [j for j in range(a) if not row[j] and j != c]
               for i, row in enumerate(M)]
        cols = _perfect_matching(adj, rng)
        if cols is None:
            return None
        for row, j in zip(M, cols):
            row[j] += 1
    return M


def _matrix_partner(M, b) -> SetPartition:
    """The partner Q of the canonical partition P1 with intersection
    matrix M: block j of Q takes M[i][j] points of block i of P1, the
    block's least points going to the least j.

    No other choice of points changes the joint stabilizer's order, under
    either parity.  Let Q' be any partition with the same matrix, its
    blocks numbered so that |P1_i meet Q'_j| = M[i][j].  For each i the
    sets P1_i meet Q_j (j = 0..a-1) and P1_i meet Q'_j partition P1_i
    into parts of equal sizes, so some permutation g_i of P1_i maps each
    of the first onto the second.  The product g of the g_i fixes every
    block of P1 and maps Q_j, the union over i of P1_i meet Q_j, onto
    Q'_j.  So g fixes P1 and sends Q to Q', and the stabilizer of
    (P1, Q') is the conjugate of that of (P1, Q) by g.  Conjugation keeps
    the order, and keeps parities, so it maps the even part of one onto
    the even part of the other."""
    blocks = [[] for _ in M]
    for i, row in enumerate(M):
        x = i * b
        for block, m in zip(blocks, row):
            block.extend(range(x, x + m))
            x += m
    return SetPartition.from_blocks(len(M) * b, blocks)


def _search_pair(a, b, parity, seed, budget):
    """Seeded search for a 2-base: the canonical partition and a partner
    drawn by its intersection matrix.  `budget` caps the matrices drawn,
    alt draws that cannot be completed included; every completed draw's
    partner is sent to the stabilizer, and the first with a trivial one
    is returned.  No draw has a forced symmetry: a sym matrix is 0-1 and
    an alt one has a single 2."""
    rng = random.Random(seed)
    P1 = uniform_partition(a, b)
    incomplete = 0
    for _ in range(budget):
        M = _draw_intersection_matrix(a, b, parity, rng)
        if M is None:
            incomplete += 1
            continue
        cand = [P1, _matrix_partner(M, b)]
        if partition_stabilizer(cand, parity).order == 1:
            return cand
    drawn = max(budget, 0)
    raise SearchBudgetExceeded(
        f"no 2-base found for (a,b)=({a},{b}) within the budget: "
        f"{drawn} trials drawn, {incomplete} alt draws not completed, "
        f"{drawn - incomplete} stabilizers computed"
    )


def _search_base(a, b, size, parity, seed, budget):
    """Seeded random search for `size` partitions with trivial joint
    stabilizer; first partition is the canonical one.  `budget` caps the
    candidates drawn.  A pair is drawn by its intersection matrix
    (_search_pair).  Larger families are dealt from uniform shuffles, and
    a candidate with a forced symmetry is skipped before its stabilizer
    is built; its stabilizer is nontrivial anyway, so the skip never
    changes which candidate is accepted.  The skip reads the drawn
    shuffles directly, point pts[i] lying in block i // b, and only a
    candidate that passes it is built as partitions."""
    if size == 2:
        return _search_pair(a, b, parity, seed, budget)
    rng = random.Random(seed)
    n = a * b
    P1 = uniform_partition(a, b)
    P1_of = P1.block_of()
    rejected = 0
    for _ in range(budget):
        draws = [_shuffled_points(n, rng) for _ in range(size - 1)]
        block_ofs = [P1_of]
        for pts in draws:
            block_of = [0] * n
            for i, x in enumerate(pts):
                block_of[x] = i // b
            block_ofs.append(block_of)
        if _forced_symmetry(block_ofs, parity):
            rejected += 1
            continue
        cand = [P1] + [_dealt_partition(pts, a, b) for pts in draws]
        if partition_stabilizer(cand, parity).order == 1:
            return cand
    drawn = max(budget, 0)
    raise SearchBudgetExceeded(
        f"no {size}-base found for (a,b)=({a},{b}) within the budget: "
        f"{drawn} trials drawn, {rejected} rejected by a shared cell, "
        f"{drawn - rejected} stabilizers computed"
    )


def minimal_partition_base(a, b, ambient="sym", seed=1, budget=100000):
    """A certified base of the claimed minimal size for the (a,b) action.

    The three explicit grid constructions cover 3 <= b <= a <= b+2 (with
    the small cases a in {3,4,5} of the square grid, and a=4 of the
    plus-one case, found by seeded search instead); b=2 and the
    2-base range are found by search.  The returned list is always
    certified by partition_stabilizer before being returned; if an
    explicit triple fails certification (this happens at (a,b)=(6,4),
    where the swapped-pair triple admits an order-2 symmetry exchanging
    rows 2,4 and columns 1,5), the search path takes over.
    """
    parity = "all" if ambient == "sym" else "even"
    target = partition_base_size_value(a, b, ambient)
    parts = None
    if b >= 3 and target == 3:
        if a == b + 2 and a >= 4:
            parts = list(construct_bcd_plus2(a))
        elif a == b + 1 and a >= 5:
            parts = list(construct_bcd_plus1(a))
        elif a == b and a >= 6:
            parts = list(construct_bcd_equal(a))
    if parts is not None and partition_stabilizer(parts, parity).order == 1:
        return parts
    return _search_base(a, b, target, parity, seed, budget)
