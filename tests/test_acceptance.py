"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with -s to see them).  Tolerances are exact integer or exact
rational equality throughout; nothing is deferred to calibration."""

import itertools
import random
import time

from minbase.bounds import (
    evaluate_qhat,
    g2_subfield_terms,
    o10_plus_imprimitive_terms,
    sp4_subfield_terms,
)
from minbase.catalog import SOLUBLE_CATALOG, group_from_spec
from minbase.cli import main
from minbase.classical import (
    orth_odd_construct,
    orth_odd_pair_check,
    sp4_pair_stabilizer,
    sp4_triple_base_check,
)
from minbase.fq import Fq, frobenius_subspace
from minbase.invariants import alpha, beta, chief_factor_bound, soluble_bounds_report
from minbase.lattice import GroupTable, Lattice
from minbase.partitions import (
    apply_to_canonical,
    base_size_partitions,
    construct_bcd_equal,
    construct_bcd_plus1,
    construct_bcd_plus2,
    minimal_partition_base,
    partition_base_size_value,
    partition_stabilizer,
)
from minbase.perm import PermGroup, compose, identity
from oracles import (
    chief_length_mod_frattini,
    involution_count_sym,
    oracle_is_nilpotent_set,
    random_uniform_partition,
)

_LATTICES = {}


def lat_of(name):
    if name not in _LATTICES:
        _LATTICES[name] = Lattice(GroupTable(group_from_spec(name)))
    return _LATTICES[name]


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_exact_small_grid():
    expected = {(3, 2): 4, (4, 2): 3, (5, 2): 3, (6, 2): 3, (3, 3): 3, (4, 3): 3}
    got = {}
    for (a, b), want in expected.items():
        got[(a, b)] = len(base_size_partitions(a, b, mode="exact"))
    report(1, got == expected, f"exact base sizes {got}")


def test_criterion_02_constructive_coverage():
    pairs = [
        (a, b)
        for b in range(3, 11)
        for a in range(b, b + 3)
        if a * b <= 100
    ]
    assert len(pairs) == 22
    failures = []
    for a, b in pairs:
        parts = minimal_partition_base(a, b, seed=1)
        order = partition_stabilizer(parts).order
        if order != 1 or len(parts) != 3:
            failures.append((a, b, order, len(parts)))
    # the explicit grid triples themselves certify wherever their
    # preconditions hold -- except the known (6,4) order-2 exception,
    # which the dispatch covers by certified search
    raw = {}
    for a, b in pairs:
        if a == b + 2 and a >= 4:
            triple = construct_bcd_plus2(a)
        elif a == b + 1 and a >= 5:
            triple = construct_bcd_plus1(a)
        elif a == b and a >= 6:
            triple = construct_bcd_equal(a)
        else:
            continue
        raw[(a, b)] = partition_stabilizer(list(triple)).order
    raw_bad = {k: v for k, v in raw.items() if v != 1 and k != (6, 4)}
    ok = not failures and not raw_bad and raw.get((6, 4)) == 2
    report(
        2,
        ok,
        f"22 pairs certified (order 1); explicit triples certify on "
        f"{sum(1 for v in raw.values() if v == 1)}/{len(raw)} grid cases, "
        f"known (6,4) exception has order {raw.get((6, 4))}",
    )


def test_criterion_03_pair_witnesses():
    sizes = {}
    for a, b in [(8, 3), (9, 3), (8, 4), (9, 5)]:
        sizes[(a, b)] = len(base_size_partitions(a, b, mode="upper", seed=1))
    ok = all(v == 2 for v in sizes.values())
    report(3, ok, f"randomized 2-base witnesses found: {sizes}")


def test_criterion_04_alternating_values():
    v32 = len(base_size_partitions(3, 2, mode="exact", ambient="alt"))
    v83 = len(base_size_partitions(8, 3, mode="exact", ambient="alt"))
    ok = (v32, v83) == (3, 2)
    report(4, ok, f"alternating exact values: (3,2) -> {v32}, (8,3) -> {v83}")


def test_criterion_05_alpha_beta_catalog():
    results = {}
    for name in ["A5", "S5", "A6", "S6", "L27", "PGL27"]:
        lat = lat_of(name)
        a = alpha(lat).value
        b = beta(lat).value
        results[name] = (a, b)
    ok = results["S6"] == (3, 4)
    for name, (a, b) in results.items():
        ok &= a <= 3 and b <= 4 and b - a <= 1
    report(5, ok, f"alpha/beta: {results}")


def test_criterion_06_probabilistic_tables():
    checks = []
    for q in (9, 16, 25, 49, 64, 81):
        checks.append(evaluate_qhat(g2_subfield_terms(q), 3).certified)
    for q in (64, 128, 256, 1024):
        checks.append(evaluate_qhat(sp4_subfield_terms(q), 3).certified)
    for q in (8, 9, 11, 16, 25, 32):
        checks.append(evaluate_qhat(o10_plus_imprimitive_terms(q), 3).certified)
    report(6, all(checks), f"{len(checks)} exact-rational verdicts all < 1 at c=3")


def test_criterion_07_involution_constants():
    v8 = involution_count_sym(8)
    v16 = involution_count_sym(16)
    ok = (v8, v16) == (763, 46206735)
    report(7, ok, f"involution counts: n=8 -> {v8}, n=16 -> {v16}")


def test_criterion_08_sp4():
    counts = {}
    for q in (5, 7, 9, 13):
        rep = sp4_pair_stabilizer(q)
        counts[q] = (len(rep.survivors), rep.scalars_only)
    triples = {q: sp4_triple_base_check(q).verdict for q in (9, 25, 27)}
    ok = all(c == (q - 1, True) for q, c in counts.items()) and all(
        triples.values()
    )
    report(8, ok, f"pair survivors {counts}; triple verdicts {triples}")


def test_criterion_09_orthogonal():
    pair = orth_odd_pair_check(7, 3)
    cons = orth_odd_construct(7, 9)
    F = Fq(9)
    phi_moves = frobenius_subspace(F, cons.W_prime) != cons.W_prime
    phi_fixes = (
        frobenius_subspace(F, cons.U) == cons.U
        and frobenius_subspace(F, cons.W) == cons.W
    )
    ok = pair.verdict and pair.survivors == 1 and phi_moves and phi_fixes
    report(
        9,
        ok,
        f"(7,3) survivors {pair.survivors}/{pair.stabilizer_size}; "
        f"(7,9) phi fixes U,W and moves W': {phi_fixes and phi_moves}",
    )


def test_criterion_10_soluble_catalog():
    assert len(SOLUBLE_CATALOG) >= 20
    failures = []
    for name in SOLUBLE_CATALOG:
        lat = lat_of(name)
        assert lat.table.n <= 500
        rep = soluble_bounds_report(lat)
        bound = chief_factor_bound(lat)
        if not rep.alpha_le_length:
            failures.append((name, "alpha > chief length"))
        if rep.derived_nilpotent and rep.alpha_le_non_frattini is not True:
            failures.append((name, "alpha > non-Frattini count"))
        if not bound.verdict:
            failures.append((name, "chief-factor bound violated"))
        if oracle_is_nilpotent_set(lat.table, range(lat.table.n)):
            lam_frat = chief_length_mod_frattini(lat)
            if not (rep.alpha == rep.non_frattini_count == lam_frat):
                failures.append((name, "nilpotent equality failed"))
    report(
        10,
        not failures,
        f"{len(SOLUBLE_CATALOG)} soluble groups, all bounds hold"
        + (f"; failures: {failures}" if failures else ""),
    )


def brute_stab_order(parts, n):
    keys = [p.canonical() for p in parts]
    return sum(
        1
        for images in itertools.permutations(range(n))
        if all(apply_to_canonical(images, k) == k for k in keys)
    )


def test_criterion_11_oracle_equivalence():
    rng = random.Random(20260810)
    mismatches = 0
    for _ in range(50):
        a, b = rng.choice([(2, 2), (3, 2), (2, 3), (4, 2), (2, 4), (8, 1)])
        k = rng.randrange(1, 4)
        parts = [random_uniform_partition(a, b, rng) for _ in range(k)]
        if partition_stabilizer(parts).order != brute_stab_order(parts, a * b):
            mismatches += 1
    group_mismatches = 0
    for _ in range(30):
        n = rng.randrange(3, 7)
        gens = []
        for _ in range(rng.randrange(1, 3)):
            images = list(range(n))
            rng.shuffle(images)
            gens.append(tuple(images))
        G = PermGroup(gens, n)
        elems = {identity(n)}
        frontier = [identity(n)]
        while frontier:
            p = frontier.pop()
            for g in gens:
                q = compose(p, g)
                if q not in elems:
                    elems.add(q)
                    frontier.append(q)
        if G.order != len(elems):
            group_mismatches += 1
    ok = mismatches == 0 and group_mismatches == 0
    report(
        11,
        ok,
        f"stabilizer vs n!-filter: 50 families, {mismatches} mismatches; "
        f"order vs enumeration: 30 groups, {group_mismatches} mismatches",
    )


# the whole 2-base sweep below takes 2.3-2.9 s in-process on a 2-core
# 2.1 GHz Xeon VM.  Drawing uniform shuffles and rejecting those with a
# shared cell refused 67 of its cases, every one with b >= 6, at a budget
# of 20,000 trials.
TWO_BASE_SWEEP_BOUND_S = 20.0


def test_criterion_12_two_base_sweep(tmp_path, capsys):
    # every sym and alt 2-base case with a >= b and ab <= 128, at the
    # default seed and budget, certified, and the two largest formerly
    # refused commands emitted and verified through the CLI
    cases = [(a, b, ambient) for ambient in ("sym", "alt")
             for b in range(2, 65) for a in range(b, 129 // b + 1)
             if a * b <= 128 and (a, b) != (2, 2)
             and partition_base_size_value(a, b, ambient) == 2]
    counts = {ambient: sum(c[2] == ambient for c in cases) for ambient in ("sym", "alt")}
    assert counts == {"sym": 109, "alt": 118}
    failures = []
    start = time.perf_counter()
    for a, b, ambient in cases:
        parts = minimal_partition_base(a, b, ambient=ambient)
        parity = "all" if ambient == "sym" else "even"
        if len(parts) != 2 or partition_stabilizer(parts, parity).order != 1:
            failures.append((a, b, ambient))
    elapsed = time.perf_counter() - start
    out = tmp_path / "cert.json"
    codes = []
    for argv in (["partition-base", "-a", "16", "-b", "8"],
                 ["partition-base", "-a", "8", "-b", "6", "--ambient", "alt"]):
        codes.append((main(argv + ["--json", "--out", str(out)]), main(["verify", str(out)])))
    capsys.readouterr()
    ok = not failures and elapsed < TWO_BASE_SWEEP_BOUND_S and codes == [(0, 0)] * 2
    report(
        12,
        ok,
        f"{len(cases)} 2-base cases ({counts}) certified in {elapsed:.2f} s "
        f"(bound {TWO_BASE_SWEEP_BOUND_S} s); failures {failures}; "
        f"(16,8) and alt (8,6) emit and verify exit codes {codes}",
    )
