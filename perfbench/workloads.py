"""The four workloads: which minbase commands each runs, and the result
each command must produce.

Expected values are mathematical facts or the paper's claimed values,
never certificate bytes: seeded witnesses may legitimately change when
the search changes, so only result fields are pinned.  ``verify`` is not
trusted to catch a wrong result (it accepts a forged ``alpha`` and any
``beta: infinity``), hence the explicit checks here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Command:
    """One CLI command of a workload, without --seed/--json/--out."""

    argv: tuple
    expect: dict = field(default_factory=dict)  # result key -> required value
    seed: int = 0  # fixed --seed; 0 derives it from the workload seed
    runs: int = 1  # times per pass; every run's JSON must match the first


# -- partition-search ---------------------------------------------------------

_UPPER_PAIRS = [(8, 3), (9, 3), (10, 3), (11, 3), (8, 4), (9, 4), (10, 4), (12, 4)]
# acceptance criterion 2: b in 3..10, a in b..b+2, ab <= 100
_CONSTRUCTIVE = [(a, b) for b in range(3, 11) for a in range(b, b + 3) if a * b <= 100]
_ALT_EXACT = [(8, 3), (9, 3), (9, 4)]


def _partition_search():
    # Search length swings up to 10x with --seed (at (8,4), 7.6 s at seed 1
    # and 0.6 s at seed 3), and each run sees one workload seed, so the
    # searches take fixed seeds 1 and 2: seed-derived ones would spread
    # certs_per_s by about 40% between workload seeds.  (12,4) at seed 1
    # runs five times: seven or eight searches take longer, so the tail
    # (rank 67 of 77) falls among those five runs.
    cmds = []
    for a, b in _UPPER_PAIRS:
        for seed in (1, 2):
            cmds.append(Command(
                ("base-size", "-a", str(a), "-b", str(b), "--mode", "upper"),
                {"base_size": 2}, seed=seed, runs=5 if (a, b, seed) == (12, 4, 1) else 1))
    for a in range(4, 9):
        cmds.append(Command(
            ("partition-base", "-a", str(a), "-b", "2"),
            {"base_size": 3, "stabilizer_order": 1, "claimed_value": 3}, runs=2))
    # every partition-base runs twice: the median (rank 39 of 77) falls
    # among their 54 runs, whose cost moves with their seed-derived --seed
    for a, b in _CONSTRUCTIVE:
        cmds.append(Command(
            ("partition-base", "-a", str(a), "-b", str(b)),
            {"base_size": 3, "stabilizer_order": 1, "claimed_value": 3}, runs=2))
    for a, b in _ALT_EXACT:
        cmds.append(Command(
            ("base-size", "-a", str(a), "-b", str(b), "--mode", "exact", "--ambient", "alt"),
            {"base_size": 2, "exact": True}, seed=1))
    return cmds


# -- symmetric-families ---------------------------------------------------------


def _blocks_text(blocks):
    return "|".join("{" + ",".join(str(x + 1) for x in blk) + "}" for blk in blocks)


def uniform_partition_text(a, b):
    return _blocks_text([range(i * b, (i + 1) * b) for i in range(a)])


def grid_rows_and_columns_text(a):
    """Rows and columns of the a-by-a grid, points numbered row-major."""
    rows = [range(r * a, (r + 1) * a) for r in range(a)]
    cols = [range(c, a * a, a) for c in range(a)]
    return _blocks_text(rows) + ";" + _blocks_text(cols)


_FACT = {4: 24, 3: 6, 6: 720, 8: 40320}
# criterion 1: exact base sizes of the symmetric partition action
CRITERION_1 = {(3, 2): 4, (4, 2): 3, (5, 2): 3, (6, 2): 3, (3, 3): 3, (4, 3): 3}


def _symmetric_families():
    cmds = [
        # S_4 wr S_6 intersected with A_24: (4!^6 * 6!) / 2
        Command(("stabilizer", "--ground", "24", "--partitions",
                 uniform_partition_text(6, 4), "--parity", "even"),
                {"order": _FACT[4] ** 6 * _FACT[6] // 2}),
        # S_3 wr S_8
        Command(("stabilizer", "--ground", "24", "--partitions",
                 uniform_partition_text(8, 3)),
                {"order": _FACT[3] ** 8 * _FACT[8]}),
        # rows and columns of the 8x8 grid: S_8 x S_8, order 1,625,702,400
        Command(("stabilizer", "--ground", "64", "--partitions",
                 grid_rows_and_columns_text(8)),
                {"order": _FACT[8] ** 2}),
    ]
    # With 19 emits per pass, sorted by command median, these repeats put
    # the median (rank 10) on the four (3,3) runs and the tail (rank 9) on
    # the six (4,2) runs, so each is one command's median over several runs.
    runs = {(3, 2): 2, (4, 2): 6, (3, 3): 4}
    for (a, b), size in CRITERION_1.items():
        cmds.append(Command(
            ("base-size", "-a", str(a), "-b", str(b), "--mode", "exact"),
            {"base_size": size, "exact": True}, runs=runs.get((a, b), 1)))
    cmds.append(Command(
        ("base-size", "-a", "3", "-b", "2", "--mode", "exact", "--ambient", "alt"),
        {"base_size": 3, "exact": True}))
    return cmds


# -- lattice-invariants -------------------------------------------------------

# (alpha, beta) of the acceptance catalog (criterion 5)
ALPHA_BETA = {"A5": (2, 2), "S5": (3, 3), "L27": (3, 3), "PGL27": (2, 2),
              "A6": (3, 3), "S6": (3, 4)}
# minbase.catalog.SOLUBLE_CATALOG, spelled out so the benchmark's inputs
# do not move if the catalog changes
SOLUBLE_CATALOG = [
    "C2", "C3", "C4", "C6", "C8", "C12", "C9", "C16",
    "C2xC2", "C2xC4", "C2xC2xC2", "C3xC3",
    "D8", "D10", "D12", "D14", "D16", "D24",
    "Q8", "Q16", "Q24",
    "S3", "S4", "A4", "SL23",
    "F20", "F21", "F42",
    "S3xS3", "A4xC2", "D8xC2", "C5xC5", "S4xC2", "F20xC2",
]


def _lattice_invariants():
    cmds = []
    for spec, (a, b) in ALPHA_BETA.items():
        # the tail (rank 78 of 88) falls among the eight S5 runs
        runs = {"A5": 2, "S5": 4}.get(spec, 1)
        cmds.append(Command(("alpha", "--spec", spec), {"alpha": a}, runs=runs))
        cmds.append(Command(("beta", "--spec", spec), {"beta": b}, runs=runs))
    for spec in SOLUBLE_CATALOG:
        cmds.append(Command(("soluble", "--spec", spec), {"alpha_le_length": True}))
        cmds.append(Command(("theorem4", "--spec", spec), {"verdict": True}))
    return cmds


# -- classical-enum -------------------------------------------------------------


def _classical_enum():
    # sp4 at q = 5 runs eight times so that the median (rank 22 of 43)
    # falls among its runs, above the sixteen 7-9 ms orth and qhat runs;
    # at q = 13 nine times, so that the tail (rank 33) is its median and
    # sp4 --q 27 --triple, a single run, is not most of the emit time
    cmds = []
    for q in (5, 7, 9, 13):
        cmds.append(Command(("sp4", "--q", str(q)),
                            {"survivor_count": q - 1, "scalars_only": True},
                            runs={5: 8, 13: 9}.get(q, 2)))
    for q in (9, 27):
        cmds.append(Command(("sp4", "--q", str(q), "--triple"),
                            {"verdict": True, "pair_scalars_only": True},
                            runs=2 if q == 9 else 1))
    cmds.append(Command(("orth", "--n", "7", "--q", "3", "--pair-check"),
                        {"survivors": 1, "verdict": True}))
    for n in (7, 9, 11):
        for q in (3, 9):
            cmds.append(Command(("orth", "--n", str(n), "--q", str(q)),
                                {"phi_moves_w_prime": True if q == 9 else None},
                                runs=2))
    for family, grid in (("g2", "9..81"), ("sp4", "64..1024"), ("o10", "8..32")):
        cmds.append(Command(("qhat", "--family", family, "--q", grid),
                            {"all_certified": True}, runs=2))
    return cmds


WORKLOADS = {
    "partition-search": _partition_search,
    "symmetric-families": _symmetric_families,
    "lattice-invariants": _lattice_invariants,
    "classical-enum": _classical_enum,
}


def build(name, seed):
    """One pass of the workload: (argv, Command) pairs, with each --seed
    either fixed or derived from the workload seed, and each command
    cmd.runs times.  The same (name, seed) gives the same list.

    The pass is shuffled: the host's speed wanders by 10-40% over tens of
    seconds, and spreading the cheap commands among the heavy ones makes
    their median sample the whole run instead of one slow or fast stretch.
    """
    rng = random.Random(f"{name}/{seed}")
    out = []
    for cmd in WORKLOADS[name]():
        cmd_seed = cmd.seed or rng.randrange(1, 2**31)
        out.append((list(cmd.argv) + ["--seed", str(cmd_seed)], cmd))
    out += [(argv, cmd) for argv, cmd in out for _ in range(cmd.runs - 1)]
    rng.shuffle(out)
    return out


def check_result(cmd, result):
    """Messages for every result field that misses its expected value."""
    misses = []
    for key, want in cmd.expect.items():
        if result.get(key, "<missing>") != want:
            misses.append(f"{key}={result.get(key, '<missing>')!r}, want {want!r}")
    return misses
