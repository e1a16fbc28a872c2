"""Builtin group constructors and the group-descriptor grammar.

Descriptors: Sn, An, Cn (cyclic), Dn (dihedral of order n), Qn (dicyclic
of order n: Q8, Q12, Q16, ...), SL23, F20, F21, F42 (Frobenius), L27,
PGL27, wr(b,a) for the block stabilizer inside S_ab, products joined with
"x" (e.g. C2xC2, A4xC2), or a path to a generator file.  Unknown names
are errors, never guesses.
"""

from __future__ import annotations

import math
import os
import re

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
    if n < 1:
        raise ValueError("n >= 1")
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
    if n < 1:
        raise ValueError("n >= 1")
    if n == 1:
        return PermGroup([], 1)
    return PermGroup([tuple((x + 1) % n for x in range(n))], n)


def dihedral(order: int) -> PermGroup:
    if order < 4 or order % 2:
        raise ValueError("dihedral groups here have even order >= 4")
    n = order // 2
    if n == 2:  # a 2-gon's reflection fixes both vertices: D4 is C2 x C2
        return direct_product(cyclic(2), cyclic(2))
    rot = tuple((x + 1) % n for x in range(n))
    ref = tuple((n - x) % n for x in range(n))
    return PermGroup([rot, ref], n)


def dicyclic(order: int) -> PermGroup:
    """Dicyclic group of order 4n (Q8, Q12, Q16, ...), regular action."""
    if order % 4 or order < 8:
        raise ValueError("dicyclic order must be a multiple of 4, at least 8")
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


def frobenius(order: int) -> PermGroup:
    """F20, F21, F42: affine Frobenius groups on 5 or 7 points."""
    if order == 20:
        return PermGroup([parse_perm("(1,2,3,4,5)", 5), parse_perm("(2,3,5,4)", 5)])
    if order == 21:
        return PermGroup(
            [parse_perm("(1,2,3,4,5,6,7)", 7), parse_perm("(2,3,5)(4,7,6)", 7)]
        )
    if order == 42:
        return PermGroup(
            [parse_perm("(1,2,3,4,5,6,7)", 7), parse_perm("(2,4,3,7,5,6)", 7)]
        )
    raise ValueError("supported Frobenius orders: 20, 21, 42")


def psl_2_7() -> PermGroup:
    """PSL(2,7) on the 8-point projective line (point 8 is infinity)."""
    t = parse_perm("(1,2,3,4,5,6,7)", 8)
    s = parse_perm("(1,8)(2,7)(3,4)(5,6)", 8)
    return PermGroup([t, s], 8)


def pgl_2_7() -> PermGroup:
    t = parse_perm("(1,2,3,4,5,6,7)", 8)
    s = parse_perm("(1,8)(2,7)(3,4)(5,6)", 8)
    m = parse_perm("(2,4,3,7,5,6)", 8)
    return PermGroup([t, s, m], 8)


def wreath_block_stabilizer(b: int, a: int) -> PermGroup:
    """Stabilizer of the canonical partition into a blocks of size b."""
    if a < 1 or b < 1:
        raise ValueError("wr(b,a) needs a >= 1 and b >= 1")
    return PermGroup(wreath_generators(a, b), a * b)


def direct_product(G: PermGroup, H: PermGroup) -> PermGroup:
    n, m = G.degree, H.degree
    gens = [tuple(g) + tuple(range(n, n + m)) for g in G.generators]
    gens += [tuple(range(n)) + tuple(x + n for x in h) for h in H.generators]
    return PermGroup(gens, n + m)


_ATOM_RE = re.compile(r"^(S|A|C|D|Q|F)(\d+)$")


def _atom(name: str) -> PermGroup:
    if name == "SL23":
        return special_linear_2_3()
    if name == "L27":
        return psl_2_7()
    if name == "PGL27":
        return pgl_2_7()
    m = re.fullmatch(r"wr\((\d+),(\d+)\)", name)
    if m:
        return wreath_block_stabilizer(int(m.group(1)), int(m.group(2)))
    m = _ATOM_RE.match(name)
    if m:
        kind, num = m.group(1), int(m.group(2))
        if kind == "S":
            return symmetric(num)
        if kind == "A":
            return alternating(num)
        if kind == "C":
            return cyclic(num)
        if kind == "D":
            return dihedral(num)
        if kind == "Q":
            return dicyclic(num)
        if kind == "F":
            return frobenius(num)
    raise ValueError(f"unknown group descriptor: {name!r}")


def _atom_order(name: str):
    """Order of the group _atom(name) builds, read from the name alone;
    None where _atom refuses the name."""
    fixed = {"SL23": 24, "L27": 168, "PGL27": 336}
    if name in fixed:
        return fixed[name]
    m = re.fullmatch(r"wr\((\d+),(\d+)\)", name)
    if m:
        b, a = int(m.group(1)), int(m.group(2))
        if a < 1 or b < 1:
            return None
        return math.factorial(b) ** a * math.factorial(a)
    m = _ATOM_RE.match(name)
    if not m:
        return None
    kind, num = m.group(1), int(m.group(2))
    if kind == "S":
        return math.factorial(num) if num >= 1 else None
    if kind == "A":
        return math.factorial(num) // 2 if num >= 3 else 1
    if kind == "C":
        return num if num >= 1 else None
    if kind == "D":
        return num if num >= 4 and num % 2 == 0 else None
    if kind == "Q":
        return num if num >= 8 and num % 4 == 0 else None
    return num if num in (20, 21, 42) else None


def _is_file_spec(spec: str) -> bool:
    return os.path.sep in spec or spec.endswith(".grp") or os.path.isfile(spec)


def spec_order(spec: str):
    """Order of the group a builtin descriptor names, without building its
    stabilizer chain; None for a generator file or a descriptor that
    group_from_spec refuses."""
    spec = spec.strip()
    if _is_file_spec(spec):
        return None
    order = 1
    for part in spec.split("x"):
        atom = _atom_order(part)
        if atom is None:
            return None
        order *= atom
    return order


def group_from_spec(spec: str) -> PermGroup:
    """Resolve a descriptor string or generator-file path to a group."""
    spec = spec.strip()
    if _is_file_spec(spec):
        return read_group_file(spec)
    parts = spec.split("x")
    group = _atom(parts[0])
    for part in parts[1:]:
        group = direct_product(group, _atom(part))
    return group


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
