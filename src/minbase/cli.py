"""Command-line surface: every capability behind one `minbase` entry
point, with JSON certificates that a `verify` subcommand can re-check
from their own content.

Exit codes: 0 = verified pass, 1 = verified fail (a counterexample was
found, or a certificate was rejected), 2 = refusal (bad parameters, order
cap, search budget, or a malformed certificate) -- a refusal is never a
fail.  JSON output is deterministic for search-free commands; wall-clock
timing appears only in the human-readable report.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from . import bounds as bounds_mod
from .bounds import FAMILY_BUILDERS, evaluate_qhat
from .catalog import BUILTIN_NAMES, group_from_spec
from .classical import (
    orth_odd_construct,
    orth_odd_pair_check,
    sp4_pair_stabilizer,
    sp4_triple_base_check,
)
from .fq import Fq, frobenius_subspace
from .invariants import (
    alpha,
    beta,
    chief_factor_bound,
    soluble_bounds_report,
)
from .lattice import GroupTable, Lattice, frattini
from .partitions import (
    CertificationError,
    PreconditionError,
    SearchBudgetExceeded,
    base_size_partitions,
    format_partition,
    minimal_partition_base,
    parse_partition,
    partition_base_size_value,
    partition_stabilizer,
)
from .perm import format_perm, parse_perm

PASS, FAIL, REFUSED = 0, 1, 2


def _emit(args, cert, human_lines, elapsed):
    if args.json:
        print(json.dumps(cert, indent=1, sort_keys=True, default=str))
    else:
        for line in human_lines:
            print(line)
        print(f"[{elapsed:.2f}s]")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(cert, fh, indent=1, sort_keys=True, default=str)


def _lattice_for(args):
    G = group_from_spec(args.spec)
    table = GroupTable(G, args.cap or 1000)
    return Lattice(table)


# -- subcommand implementations ---------------------------------------------
# Each returns (exit status, certificate or None, human-readable lines);
# main() stamps the command and seed, times the call and prints.


def cmd_partition_base(args):
    parts = minimal_partition_base(
        args.a, args.b, ambient=args.ambient, seed=args.seed, budget=args.budget
    )
    order = partition_stabilizer(
        parts, "all" if args.ambient == "sym" else "even"
    ).order
    claimed = partition_base_size_value(args.a, args.b, args.ambient)
    cert = {
        "inputs": {"a": args.a, "b": args.b, "ambient": args.ambient},
        "result": {"base_size": len(parts), "stabilizer_order": order,
                   "claimed_value": claimed},
        "witnesses": {"partitions": [format_partition(p) for p in parts]},
    }
    lines = [
        f"base of size {len(parts)} for the ({args.a},{args.b}) partition action",
        *("  " + format_partition(p) for p in parts),
        f"joint stabilizer order: {order} (certified)",
    ]
    return PASS if order == 1 and len(parts) == claimed else FAIL, cert, lines


def cmd_base_size(args):
    value, cert_data = base_size_partitions(
        args.a, args.b, mode=args.mode, ambient=args.ambient,
        seed=args.seed, budget=args.budget,
    )
    cert = {
        "inputs": {"a": args.a, "b": args.b, "mode": args.mode,
                   "ambient": args.ambient},
        "result": {"base_size": value, "exact": cert_data["exact"]},
        "witnesses": {"partitions": cert_data["partitions"]},
    }
    return PASS, cert, [f"base size ({args.mode}) = {value}"]


def cmd_stabilizer(args):
    parts = [
        parse_partition(chunk, args.ground)
        for chunk in args.partitions.split(";")
    ]
    G = partition_stabilizer(parts, args.parity)
    cert = {
        "inputs": {"ground": args.ground, "parity": args.parity,
                   "partitions": [format_partition(p) for p in parts]},
        "result": {"order": G.order},
        "witnesses": {"generators": [format_perm(g) for g in G.generators]},
    }
    return PASS, cert, [f"stabilizer order: {G.order}"]


def cmd_alpha(args):
    lat = _lattice_for(args)
    cert_a = alpha(lat)
    table = lat.table
    frat_rec = frattini(lat)
    if not cert_a.verify(table):
        raise CertificationError("alpha witness failed its own check")
    cert = {
        "inputs": {"spec": args.spec, "order": table.n},
        "result": {"alpha": cert_a.value, "frattini_order": cert_a.frattini_order,
                   "exhaustive": cert_a.exhaustive},
        "witnesses": {
            "maximal_subgroups": [
                [table.word_of(g) for g in rec.generators]
                for rec in cert_a.witness
            ],
            "frattini_generators": [table.word_of(g) for g in frat_rec.generators],
        },
    }
    return PASS, cert, [f"alpha({args.spec}) = {cert_a.value} (proved minimal)"]


def cmd_beta(args):
    lat = _lattice_for(args)
    res = beta(lat)
    table = lat.table
    if res.value is math.inf:
        value = "infinity"
        witnesses = {
            "core_orders_by_class": [
                {"generators": [table.word_of(g) for g in rec.generators],
                 "core_order": order}
                for rec, order in res.empty_star_evidence
            ]
        }
        line = f"beta({args.spec}) = infinity (no core-free-to-Frattini maximal class)"
    else:
        chosen = res.chosen
        if not chosen.verify(table):
            raise CertificationError("beta witness failed its own check")
        value = res.value
        witnesses = {
            "subgroup_generators": [
                table.word_of(g) for g in chosen.subgroup.generators
            ],
            "conjugator_words": [table.word_of(g) for g in chosen.conjugators],
            "core_order": chosen.core_order,
        }
        line = f"beta({args.spec}) = {value}"
    cert = {
        "inputs": {"spec": args.spec, "order": table.n},
        "result": {"beta": value, "frattini_order": res.frattini_order},
        "witnesses": witnesses,
    }
    return PASS, cert, [line]


def _parse_qgrid(text):
    out = []
    for chunk in text.split(","):
        if ".." in chunk:
            lo, hi = chunk.split("..")
            for q in range(int(lo), int(hi) + 1):
                try:
                    bounds_mod.factor_prime_power(q)
                except ValueError:
                    continue
                out.append(q)
        else:
            out.append(int(chunk))
    return out


def _qhat_result(family, grid, c):
    """Result of `qhat`; its verifier rebuilds and compares all of it."""
    builder = FAMILY_BUILDERS[family]
    rows = []
    for q in _parse_qgrid(grid):
        try:
            table = builder(q)
        except ValueError:
            continue
        res = evaluate_qhat(table, c)
        rows.append(
            {
                "q": q,
                "gamma": table.gamma,
                "value": str(res.value),
                "value_float": float(res.value),
                "certified": res.certified,
                "terms": [
                    {"label": t.label, "u": str(t.u), "v": str(t.v),
                     "multiplicity": t.multiplicity}
                    for t in table.terms
                ],
            }
        )
    if not rows:
        raise PreconditionError("no admissible q in the grid")
    return {"all_certified": all(r["certified"] for r in rows), "rows": rows}


def cmd_qhat(args):
    result = _qhat_result(args.family, args.q, args.c)
    cert = {
        "inputs": {"family": args.family, "q": args.q, "c": args.c},
        "result": result,
        "witnesses": {},
    }
    lines = [
        f"q={r['q']}: sum = {r['value_float']:.6g}  certified(<1) = {r['certified']}"
        for r in result["rows"]
    ]
    return PASS if result["all_certified"] else FAIL, cert, lines


def _sp4_body(q, triple):
    """(result, witnesses) of `sp4`; its verifier re-runs and compares both."""
    if triple:
        rep = sp4_triple_base_check(q)
        result = {
            "verdict": rep.verdict,
            "pair_scalars_only": rep.pair_scalars_only,
            "phi_fixes_alpha": rep.phi_fixes_alpha,
            "phi_fixes_beta": rep.phi_fixes_beta,
            "phi_moves_gamma": rep.phi_moves_gamma,
        }
        return result, {}
    rep = sp4_pair_stabilizer(q)
    result = {
        "candidates": rep.candidates,
        "survivor_count": len(rep.survivors),
        "scalars_only": rep.scalars_only,
    }
    return result, {"survivors": [list(map(list, g)) for g in rep.survivors]}


def cmd_sp4(args):
    result, witnesses = _sp4_body(args.q, args.triple)
    if args.triple:
        ok = result["verdict"]
        line = f"triple base check at q={args.q}: {'pass' if ok else 'FAIL'}"
    else:
        ok = result["scalars_only"]
        line = (
            f"pair stabilizer at q={args.q}: {result['survivor_count']} survivors "
            f"(expected {args.q - 1} scalars): {'pass' if ok else 'FAIL'}"
        )
    cert = {
        "inputs": {"q": args.q, "triple": args.triple},
        "result": result,
        "witnesses": witnesses,
    }
    return PASS if ok else FAIL, cert, [line]


def _orth_body(n, q, pair_check):
    """(result, witnesses) of `orth`; its verifier rebuilds and compares both."""
    if pair_check:
        rep = orth_odd_pair_check(n, q)
        result = {
            "stabilizer_size": rep.stabilizer_size,
            "survivors": rep.survivors,
            "verdict": rep.verdict,
        }
        witnesses = (
            {}
            if rep.counterexample is None
            else {"counterexample": [list(r) for r in rep.counterexample]}
        )
        return result, witnesses
    variant = "4m+1" if n % 4 == 1 else "4m+3"
    m = (n - (1 if variant == "4m+1" else 3)) // 4
    cons = orth_odd_construct(m, variant, q)
    F = Fq(q)
    phi_moves = frobenius_subspace(F, cons.W_prime) != cons.W_prime if F.f > 1 else None
    result = {
        "dim_U": len(cons.U),
        "dim_W": len(cons.W),
        "phi_moves_w_prime": phi_moves,
    }
    witnesses = {
        "U": [list(v) for v in cons.U],
        "W": [list(v) for v in cons.W],
        "W_prime": [list(v) for v in cons.W_prime],
        "basis": cons.basis_names,
    }
    return result, witnesses


def cmd_orth(args):
    result, witnesses = _orth_body(args.n, args.q, args.pair_check)
    if args.pair_check:
        ok = result["verdict"]
        lines = [
            f"pair check O_{args.n}({args.q}): {result['survivors']} survivor(s) "
            f"out of {result['stabilizer_size']}: {'pass' if ok else 'FAIL'}"
        ]
    else:
        ok = True
        lines = [
            f"constructed U, W, W' in dimension {args.n} over F_{args.q}",
            f"phi moves W': {result['phi_moves_w_prime']}",
        ]
    cert = {
        "inputs": {"n": args.n, "q": args.q, "pair_check": args.pair_check},
        "result": result,
        "witnesses": witnesses,
    }
    return PASS if ok else FAIL, cert, lines


def _soluble_result(lat):
    """Result of `soluble`; its verifier rebuilds and compares all of it."""
    rep = soluble_bounds_report(lat)
    return {
        "alpha": rep.alpha_value,
        "chief_length": rep.chief_length,
        "non_frattini_count": rep.non_frattini_count,
        "derived_nilpotent": rep.derived_nilpotent,
        "alpha_le_length": rep.alpha_le_length,
        "alpha_le_non_frattini": rep.alpha_le_non_frattini,
    }


def cmd_soluble(args):
    result = _soluble_result(_lattice_for(args))
    ok = result["alpha_le_length"] and result["alpha_le_non_frattini"] in (True, None)
    cert = {"inputs": {"spec": args.spec}, "result": result, "witnesses": {}}
    lines = [
        f"{args.spec}: alpha={result['alpha']} chief_length={result['chief_length']} "
        f"non_frattini={result['non_frattini_count']}: {'pass' if ok else 'FAIL'}"
    ]
    return PASS if ok else FAIL, cert, lines


def _theorem4_result(lat):
    """Result of `theorem4`; its verifier rebuilds and compares all of it."""
    rep = chief_factor_bound(lat)
    return {
        "alpha": rep.alpha_value,
        "bound": rep.bound,
        "verdict": rep.verdict,
        "soluble": rep.soluble,
        "soluble_bound": rep.soluble_bound,
        "abelian_classes": [
            {"delta": d, "dim_over_endo": dim, "p": p, "dim": full}
            for d, dim, p, full in rep.abelian_classes
        ],
        "nonabelian_classes": [
            {"delta": d, "composition_length": n}
            for d, n in rep.nonabelian_classes
        ],
    }


def cmd_theorem4(args):
    result = _theorem4_result(_lattice_for(args))
    ok = result["verdict"]
    cert = {"inputs": {"spec": args.spec}, "result": result, "witnesses": {}}
    lines = [
        f"{args.spec}: alpha={result['alpha']} <= bound={result['bound']}: "
        f"{'pass' if ok else 'FAIL'}"
    ]
    return PASS if ok else FAIL, cert, lines


def cmd_catalog(args):
    lines = []
    for name in BUILTIN_NAMES:
        G = group_from_spec(name)
        lines.append(f"{name:10s} degree {G.degree:3d} order {G.order}")
    return PASS, None, lines


def cmd_verify(args):
    try:
        with open(args.certificate) as fh:
            cert = json.load(fh)
    except OSError as exc:
        raise PreconditionError(f"cannot read certificate: {exc}") from exc
    if not isinstance(cert, dict) or not isinstance(cert.get("command"), str):
        raise PreconditionError("certificate is not a JSON object with a command")
    checker = _VERIFIERS.get(cert["command"])
    if checker is None:
        raise PreconditionError(f"no verifier for command {cert['command']!r}")
    try:
        ok = checker(cert)
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        # a field missing or of the wrong shape; a refusal is never "verified"
        raise PreconditionError(f"malformed certificate: {exc!r}") from exc
    verdict = "verified" if ok else "REJECTED"
    return PASS if ok else FAIL, None, [f"certificate {args.certificate}: {verdict}"]


# -- certificate re-verification ---------------------------------------------


def _verify_partitions(cert):
    """partition-base and base-size: the witnesses are distinct partitions
    into a blocks of size b with trivial joint stabilizer, and their
    number and stabilizer order are as claimed."""
    a, b = cert["inputs"]["a"], cert["inputs"]["b"]
    ambient = cert["inputs"].get("ambient", "sym")
    parts = [parse_partition(s, a * b) for s in cert["witnesses"]["partitions"]]
    # blocks of size b covering a*b points: a blocks
    if len({p.canonical() for p in parts}) < len(parts) or any(
        len(blk) != b for p in parts for blk in p.blocks
    ):
        return False
    order = partition_stabilizer(parts, "all" if ambient == "sym" else "even").order
    return (
        order == 1
        and len(parts) == cert["result"]["base_size"]
        and cert["result"].get("stabilizer_order", 1) == 1
    )


def _verify_stabilizer(cert):
    ground = cert["inputs"]["ground"]
    parts = [parse_partition(s, ground) for s in cert["inputs"]["partitions"]]
    order = partition_stabilizer(parts, cert["inputs"]["parity"]).order
    return order == cert["result"]["order"]


def _witness_subgroup_elems(table, words):
    gens = [table.index[parse_perm(w, table.degree)] for w in words]
    return table.closure(gens)


def _meet(table, sets):
    out = frozenset(range(table.n))
    for s in sets:
        out &= s
    return out


def _irredundant(table, sets):
    """Dropping any one set leaves a larger intersection: a witness list
    padded with a repeat or with a set it does not need fails."""
    size = len(_meet(table, sets))
    return all(
        len(_meet(table, sets[:i] + sets[i + 1:])) > size for i in range(len(sets))
    )


def _verify_alpha(cert):
    G = group_from_spec(cert["inputs"]["spec"])
    table = GroupTable(G, 2000)
    frat = _witness_subgroup_elems(
        table, cert["witnesses"]["frattini_generators"]
    )
    maxes = [
        _witness_subgroup_elems(table, words)
        for words in cert["witnesses"]["maximal_subgroups"]
    ]
    return (
        _meet(table, maxes) == frat
        and _irredundant(table, maxes)
        and len(maxes) == cert["result"]["alpha"]
        and len(frat) == cert["result"]["frattini_order"]
    )


def _verify_beta(cert):
    G = group_from_spec(cert["inputs"]["spec"])
    table = GroupTable(G, 2000)
    if cert["result"]["beta"] == "infinity":
        # no witness can show that no maximal class qualifies: re-derive
        res = beta(Lattice(table))
        return (
            res.value == math.inf
            and res.frattini_order == cert["result"]["frattini_order"]
        )
    sub = _witness_subgroup_elems(table, cert["witnesses"]["subgroup_generators"])
    conjugates = [sub] + [
        table.conjugate_set(sub, table.index[parse_perm(w, table.degree)])
        for w in cert["witnesses"]["conjugator_words"]
    ]
    return (
        len(_meet(table, conjugates)) == cert["witnesses"]["core_order"]
        and _irredundant(table, conjugates)
        and len(cert["witnesses"]["conjugator_words"]) == cert["result"]["beta"] - 1
        and cert["witnesses"]["core_order"] == cert["result"]["frattini_order"]
    )


def _verify_qhat(cert):
    inputs = cert["inputs"]
    return _same_result(cert, _qhat_result(inputs["family"], inputs["q"], inputs["c"]))


def _verify_sp4(cert):
    inputs = cert["inputs"]
    return _same_result(cert, *_sp4_body(inputs["q"], inputs["triple"]))


def _verify_orth(cert):
    inputs = cert["inputs"]
    return _same_result(
        cert, *_orth_body(inputs["n"], inputs["q"], inputs.get("pair_check"))
    )


def _same_result(cert, result, witnesses=None):
    """Whole result and witnesses (default none) compared with the
    certificate's, through JSON so that 1 never equals true."""
    claimed = {"result": cert["result"], "witnesses": cert["witnesses"]}
    derived = {"result": result, "witnesses": {} if witnesses is None else witnesses}
    return json.dumps(derived, sort_keys=True) == json.dumps(claimed, sort_keys=True)


def _verify_soluble(cert):
    lat = Lattice(GroupTable(group_from_spec(cert["inputs"]["spec"]), 2000))
    return _same_result(cert, _soluble_result(lat))


def _verify_theorem4(cert):
    lat = Lattice(GroupTable(group_from_spec(cert["inputs"]["spec"]), 2000))
    return _same_result(cert, _theorem4_result(lat))


_VERIFIERS = {
    "partition-base": _verify_partitions,
    "base-size": _verify_partitions,
    "stabilizer": _verify_stabilizer,
    "alpha": _verify_alpha,
    "beta": _verify_beta,
    "qhat": _verify_qhat,
    "sp4": _verify_sp4,
    "orth": _verify_orth,
    "soluble": _verify_soluble,
    "theorem4": _verify_theorem4,
}


# -- argument parsing ---------------------------------------------------------


def _add_common(p):
    """Flags of every certificate subcommand."""
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", help="also write the certificate to this file")


def _add_partition_action(p):
    p.add_argument("-a", type=int, required=True)
    p.add_argument("-b", type=int, required=True)
    p.add_argument("--ambient", choices=["sym", "alt"], default="sym")
    p.add_argument("--budget", type=int, default=100000, help="search trial cap")
    _add_common(p)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="minbase",
        description="certified minimal bases and intersection numbers for small groups",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("partition-base", help="certified base for the partition action")
    _add_partition_action(p)
    p.set_defaults(func=cmd_partition_base)

    p = sub.add_parser("base-size", help="exact or upper base size for the partition action")
    p.add_argument("--mode", choices=["exact", "upper"], default="exact")
    _add_partition_action(p)
    p.set_defaults(func=cmd_base_size)

    p = sub.add_parser("stabilizer", help="joint stabilizer of listed partitions")
    p.add_argument("--ground", type=int, required=True)
    p.add_argument("--partitions", required=True,
                   help='semicolon-separated, e.g. "{1,2}|{3,4};{1,3}|{2,4}"')
    p.add_argument("--parity", choices=["all", "even"], default="all")
    _add_common(p)
    p.set_defaults(func=cmd_stabilizer)

    for name, func, text in (
        ("alpha", cmd_alpha, "intersection number with witness"),
        ("beta", cmd_beta, "base number with witness"),
        ("soluble", cmd_soluble, "intersection number vs chief-series bounds"),
        ("theorem4", cmd_theorem4, "chief-factor upper bound vs exact alpha"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--spec", required=True)
        p.add_argument("--cap", type=int, default=1000, help="subgroup-lattice order cap")
        _add_common(p)
        p.set_defaults(func=func)

    p = sub.add_parser("qhat", help="exact-rational bound tables")
    p.add_argument("--family", choices=sorted(FAMILY_BUILDERS), required=True)
    p.add_argument("--q", required=True, help="comma list or lo..hi range")
    p.add_argument("--c", type=int, default=3)
    _add_common(p)
    p.set_defaults(func=cmd_qhat)

    p = sub.add_parser("sp4", help="symplectic pair/triple base checks")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--triple", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_sp4)

    p = sub.add_parser("orth", help="odd orthogonal construction and pair check")
    p.add_argument("--n", type=int, default=7)
    p.add_argument("--q", type=int, default=3)
    p.add_argument("--pair-check", action="store_true", dest="pair_check")
    _add_common(p)
    p.set_defaults(func=cmd_orth)

    p = sub.add_parser("verify", help="re-check an emitted certificate")
    p.add_argument("certificate")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("catalog", help="list builtin groups")
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None):
    """Run one subcommand: print its report or certificate, write --out,
    and map refusals (every ValueError, and an exhausted search budget)
    to exit code 2."""
    args = build_parser().parse_args(argv)
    t0 = time.time()
    try:
        status, cert, lines = args.func(args)
    except SearchBudgetExceeded as exc:
        print(f"refused (budget): {exc}", file=sys.stderr)
        return REFUSED
    except ValueError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return REFUSED
    if cert is None:
        print("\n".join(lines))
    else:
        cert.update(command=args.cmd, seed=args.seed)
        _emit(args, cert, lines, time.time() - t0)
    return status


if __name__ == "__main__":
    sys.exit(main())
