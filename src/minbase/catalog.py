"""Builtin group constructors and the group-descriptor grammar.

Descriptors: Sn, An, Cn (cyclic), Dn (dihedral of order n), Qn (dicyclic
of order n: Q8, Q12, Q16, ...), SL23, F20, F21, F42 (Frobenius), L27,
PGL27, wr(b,a) for the block stabilizer inside S_ab, and products joined
with "x" (e.g. C2xC2, A4xC2).  Each atom is one row of a table that
gives its order and its builder.  The order rule is the one place a
parameter is accepted or refused, and spec_order reads it without
building the group.  Unknown names and refused parameters (S0, D3, F30)
are errors, never guesses.

The Frobenius groups and L2(7) are groups of maps of the line over
F_p = fq.Fq(p), mu its least primitive element: F20 = <x+1, mu x> over
F_5, F21 = <x+1, mu^2 x> and F42 = <x+1, mu x> over F_7 on the affine
line, and L27 = <x+1, -1/x> and PGL27 = <x+1, -1/x, mu x> on the
projective line over F_7.  Field code c is point c+1 and infinity is
point q+1; the affine maps fix infinity, and -1/x swaps 0 and infinity.

A spec is a generator file exactly when it contains a path separator or
ends in ".grp": the string alone decides, so no file in the working
directory shadows a builtin name.
"""

from __future__ import annotations

import math
import os
import re
from functools import partial, reduce

from .fq import Fq
from .partitions import wreath_generators
from .perm import PermGroup, parse_perm, read_group_file


def _regular_rep(elements, mult):
    """Right-regular permutation representation from an abstract product."""
    index = {e: i for i, e in enumerate(elements)}
    perms = []
    for g in elements:
        perms.append(tuple(index[mult(x, g)] for x in elements))
    return perms, index


def symmetric(n: int) -> PermGroup:
    if n == 1:
        return PermGroup([], 1)
    gens = [parse_perm("(1,2)", n)]
    if n > 2:
        gens.append(tuple((x + 1) % n for x in range(n)))
    return PermGroup(gens, n)


def alternating(n: int) -> PermGroup:
    if n < 3:
        return PermGroup([], max(n, 1))
    three = parse_perm("(1,2,3)", n)
    if n == 3:
        return PermGroup([three], n)
    if n % 2 == 1:
        cyc = tuple((x + 1) % n for x in range(n))
    else:
        cyc = tuple([0] + [(x % (n - 1)) + 1 for x in range(1, n)])
    return PermGroup([three, cyc], n)


def cyclic(n: int) -> PermGroup:
    if n == 1:
        return PermGroup([], 1)
    return PermGroup([tuple((x + 1) % n for x in range(n))], n)


def dihedral(order: int) -> PermGroup:
    n = order // 2
    if n == 2:  # a 2-gon's reflection fixes both vertices: D4 is C2 x C2
        return direct_product(cyclic(2), cyclic(2))
    rot = tuple((x + 1) % n for x in range(n))
    ref = tuple((n - x) % n for x in range(n))
    return PermGroup([rot, ref], n)


def dicyclic(order: int) -> PermGroup:
    """Dicyclic group of order 4n (Q8, Q12, Q16, ...), regular action."""
    n = order // 4
    elements = [(i, j) for j in range(2) for i in range(2 * n)]

    def mult(x, y):
        i1, j1 = x
        i2, j2 = y
        if j1 == 0:
            return ((i1 + i2) % (2 * n), j2)
        if j2 == 0:
            return ((i1 - i2) % (2 * n), 1)
        return ((i1 - i2 + n) % (2 * n), 0)

    perms, _ = _regular_rep(elements, mult)
    a = perms[elements.index((1, 0))]
    b = perms[elements.index((0, 1))]
    return PermGroup([a, b], order)


def special_linear_2_3() -> PermGroup:
    """SL(2,3) in its regular representation (degree 24)."""
    els = []
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    if (a * d - b * c) % 3 == 1:
                        els.append((a, b, c, d))

    def mult(x, y):
        a1, b1, c1, d1 = x
        a2, b2, c2, d2 = y
        return (
            (a1 * a2 + b1 * c2) % 3,
            (a1 * b2 + b1 * d2) % 3,
            (c1 * a2 + d1 * c2) % 3,
            (c1 * b2 + d1 * d2) % 3,
        )

    perms, index = _regular_rep(els, mult)
    gens = [perms[index[(1, 1, 0, 1)]], perms[index[(0, 2, 1, 0)]]]
    return PermGroup(gens, len(els))


def wreath_block_stabilizer(b: int, a: int) -> PermGroup:
    """Stabilizer of the canonical partition into a blocks of size b."""
    return PermGroup(wreath_generators(a, b), a * b)


def direct_product(G: PermGroup, H: PermGroup) -> PermGroup:
    n, m = G.degree, H.degree
    gens = [tuple(g) + tuple(range(n, n + m)) for g in G.generators]
    gens += [tuple(range(n)) + tuple(x + n for x in h) for h in H.generators]
    return PermGroup(gens, n + m)


# Maps of the projective line over F = Fq(q), as image lists of the codes
# 0..q-1 followed by infinity, code q.


def _shift(F):
    """x+1, fixing infinity."""
    return [F.add[x][1] for x in range(F.q)] + [F.q]


def _scale(k):
    """x -> mu^k x, fixing 0 and infinity."""
    def scale(F):
        c = 1
        for _ in range(k):
            c = F.mul[c][F.mu]
        return [F.mul[c][x] for x in range(F.q)] + [F.q]
    return scale


def _invert(F):
    """x -> -1/x, swapping 0 and infinity."""
    return [F.q] + [F.neg[F.inv[x]] for x in range(1, F.q)] + [0]


def _line_group(q, maps, projective):
    """The group the maps generate on the projective line over F_q, or on
    the affine line when every map fixes infinity.  Field code c is point
    c+1 and infinity is point q+1."""
    F = Fq(q)
    degree = q + 1 if projective else q
    return PermGroup([tuple(m(F)[:degree]) for m in maps], degree)


# One row per atom: a pattern whose groups are its integer parameters, its
# order as a function of them, and its builder taking the same parameters.
# The order rule is the one place a parameter is accepted: None refuses it.
# The patterns are compiled below, at import, as perm's are.
_ATOMS = [
    (r"S(\d+)", lambda n: math.factorial(n) if n >= 1 else None, symmetric),
    (r"A(\d+)", lambda n: math.factorial(n) // 2 if n >= 3 else 1, alternating),
    (r"C(\d+)", lambda n: n if n >= 1 else None, cyclic),
    (r"D(\d+)", lambda n: n if n >= 4 and n % 2 == 0 else None, dihedral),
    (r"Q(\d+)", lambda n: n if n >= 8 and n % 4 == 0 else None, dicyclic),
    (r"wr\((\d+),(\d+)\)",
     lambda b, a: math.factorial(b) ** a * math.factorial(a) if a >= 1 and b >= 1 else None,
     wreath_block_stabilizer),
    ("SL23", lambda: 24, special_linear_2_3),
    ("F20", lambda: 20, lambda: _line_group(5, [_shift, _scale(1)], projective=False)),
    ("F21", lambda: 21, lambda: _line_group(7, [_shift, _scale(2)], projective=False)),
    ("F42", lambda: 42, lambda: _line_group(7, [_shift, _scale(1)], projective=False)),
    ("L27", lambda: 168, lambda: _line_group(7, [_shift, _invert], projective=True)),
    ("PGL27", lambda: 336,
     lambda: _line_group(7, [_shift, _invert, _scale(1)], projective=True)),
]
_ATOMS = [(re.compile(p), order_of, build) for p, order_of, build in _ATOMS]


def _atom(name: str):
    """(order, builder) of the row matching one atom of a descriptor."""
    for pattern, order_of, build in _ATOMS:
        m = pattern.fullmatch(name)
        if m:
            params = [int(g) for g in m.groups()]
            order = order_of(*params)
            if order is not None:
                return order, partial(build, *params)
    raise ValueError(f"unknown group descriptor: {name!r}")


def _is_file_spec(spec: str) -> bool:
    """A path separator or a .grp suffix marks a generator file.  The
    string alone decides, so no file in the working directory shadows a
    builtin name."""
    return os.path.sep in spec or spec.endswith(".grp")


def spec_order(spec: str):
    """Order of the group a builtin descriptor names, without building its
    stabilizer chain; None for a generator file or a descriptor that
    group_from_spec refuses."""
    spec = spec.strip()
    if _is_file_spec(spec):
        return None
    try:
        atoms = [_atom(part) for part in spec.split("x")]
    except ValueError:
        return None
    return math.prod(order for order, _ in atoms)


def group_from_spec(spec: str) -> PermGroup:
    """Resolve a descriptor string or generator-file path to a group."""
    spec = spec.strip()
    if _is_file_spec(spec):
        return read_group_file(spec)
    atoms = [_atom(part) for part in spec.split("x")]
    return reduce(direct_product, [build() for _, build in atoms])


BUILTIN_NAMES = [
    "S3", "S4", "S5", "S6", "A4", "A5", "A6",
    "C2", "C3", "C4", "C6", "C8", "C12",
    "D8", "D10", "D12", "Q8", "Q16",
    "SL23", "F20", "F21", "F42", "L27", "PGL27",
    "wr(2,3)", "C2xC2", "A4xC2",
]


SOLUBLE_CATALOG = [
    "C2", "C3", "C4", "C6", "C8", "C12", "C9", "C16",
    "C2xC2", "C2xC4", "C2xC2xC2", "C3xC3",
    "D8", "D10", "D12", "D14", "D16", "D24",
    "Q8", "Q16", "Q24",
    "S3", "S4", "A4", "SL23",
    "F20", "F21", "F42",
    "S3xS3", "A4xC2", "D8xC2", "C5xC5", "S4xC2", "F20xC2",
]
