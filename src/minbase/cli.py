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
import contextlib
import json
import math
import os
import sys
import time

from . import bounds as bounds_mod
from .bounds import FAMILY_BUILDERS, evaluate_qhat
from .catalog import BUILTIN_NAMES, group_from_spec, spec_order
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
from .lattice import GroupTable, Lattice, core, frattini
from .partitions import (
    CertificationError,
    PreconditionError,
    SearchBudgetExceeded,
    _is_least_base_size,
    base_size_partitions,
    format_partition,
    minimal_partition_base,
    parse_partition,
    partition_base_size_value,
    partition_stabilizer,
)
from .perm import ParseError, format_perm, parse_perm

PASS, FAIL, REFUSED = 0, 1, 2


def _emit(args, cert, human_lines, elapsed):
    """Write --out, then print: a reader that closes stdout early does not
    cost the file."""
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(cert, fh, indent=1, sort_keys=True, default=str)
    if args.json:
        print(json.dumps(cert, indent=1, sort_keys=True, default=str))
    else:
        for line in human_lines:
            print(line)
        print(f"[{elapsed:.2f}s]")


def _lattice(spec, cap):
    """The subgroup lattice of the spec's group.  A builtin descriptor's
    order is read from its name, so an over-cap group is refused before
    its stabilizer chain is built."""
    order = spec_order(spec)
    if order is not None:
        GroupTable.check_order(order, cap)
    return Lattice(GroupTable(group_from_spec(spec), cap))


# -- subcommand implementations ---------------------------------------------
# Each returns (exit status, certificate or None, human-readable lines);
# main() stamps the command and seed, times the call and prints.
#
# Witness commands (partition-base, base-size, alpha, beta) run
# verify's own checker on the certificate before printing it.  Every other
# command is deterministic: its body maps the certificate's inputs to the
# certificate it prints (inputs, result, witnesses), and verify runs the
# same body again (_verify_rerun).  Argparse dests are named as the inputs keys, so a
# command hands its body vars(args).


def _check(checker, cert, *context):
    """Raise unless the certificate passes verify's checker for it."""
    if not checker(cert, *context):
        raise CertificationError("the certificate failed its verify check")


def cmd_partition_base(args):
    parts = minimal_partition_base(
        args.a, args.b, ambient=args.ambient, seed=args.seed, budget=args.budget
    )
    cert = {
        "inputs": {"a": args.a, "b": args.b, "ambient": args.ambient},
        "result": {"base_size": len(parts), "stabilizer_order": 1,
                   "claimed_value": partition_base_size_value(args.a, args.b, args.ambient)},
        "witnesses": {"partitions": [format_partition(p) for p in parts]},
    }
    _check(_verify_partition_base, cert)
    return PASS, cert, [
        f"base of size {len(parts)} for the ({args.a},{args.b}) partition action",
        *("  " + format_partition(p) for p in parts),
        "joint stabilizer order: 1 (certified)",
    ]


def cmd_base_size(args):
    parts = base_size_partitions(
        args.a, args.b, mode=args.mode, ambient=args.ambient,
        seed=args.seed, budget=args.budget,
    )
    cert = {
        "inputs": {"a": args.a, "b": args.b, "mode": args.mode,
                   "ambient": args.ambient},
        "result": {"base_size": len(parts), "exact": args.mode == "exact"},
        "witnesses": {"partitions": [format_partition(p) for p in parts]},
    }
    _check(_verify_base_size, cert)
    return PASS, cert, [f"base size ({args.mode}) = {len(parts)}"]


def _stabilizer_body(inputs):
    ground, parity = inputs["ground"], inputs["parity"]
    parts = [parse_partition(s, ground) for s in inputs["partitions"]]
    G = partition_stabilizer(parts, parity)
    return {
        "inputs": {"ground": ground, "parity": parity,
                   "partitions": [format_partition(p) for p in parts]},
        "result": {"order": G.order},
        "witnesses": {"generators": [format_perm(g) for g in G.generators]},
    }


def cmd_stabilizer(args):
    cert = _stabilizer_body(dict(vars(args), partitions=args.partitions.split(";")))
    return PASS, cert, [f"stabilizer order: {cert['result']['order']}"]


def cmd_alpha(args):
    lat = _lattice(args.spec, args.cap)
    cert_a = alpha(lat)
    table = lat.table
    frat_rec = frattini(lat)
    cert = {
        "inputs": {"spec": args.spec, "order": table.n},
        "result": {"alpha": cert_a.value, "frattini_order": cert_a.frattini_order,
                   "exhaustive": True},
        "witnesses": {
            "maximal_subgroups": [
                [table.word_of(g) for g in rec.generators]
                for rec in cert_a.witness
            ],
            "frattini_generators": [table.word_of(g) for g in frat_rec.generators],
        },
    }
    _check(_verify_alpha, cert, lat)
    return PASS, cert, [f"alpha({args.spec}) = {cert_a.value} (proved minimal)"]


def cmd_beta(args):
    lat = _lattice(args.spec, args.cap)
    table = lat.table
    res = beta(lat)
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
    _check(_verify_beta, cert, lat)
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


def _qhat_body(inputs):
    family, grid, c = inputs["family"], inputs["q"], inputs["c"]
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
    return {
        "inputs": {"family": family, "q": grid, "c": c},
        "result": {"all_certified": all(r["certified"] for r in rows), "rows": rows},
        "witnesses": {},
    }


def cmd_qhat(args):
    cert = _qhat_body(vars(args))
    result = cert["result"]
    lines = [
        f"q={r['q']}: sum = {r['value_float']:.6g}  certified(<1) = {r['certified']}"
        for r in result["rows"]
    ]
    return PASS if result["all_certified"] else FAIL, cert, lines


def _sp4_body(inputs):
    q, triple = inputs["q"], inputs["triple"]
    inputs = {"q": q, "triple": triple}
    if triple:
        rep = sp4_triple_base_check(q)
        result = {
            "verdict": rep.verdict,
            "pair_scalars_only": rep.pair_scalars_only,
            "phi_fixes_alpha": rep.phi_fixes_alpha,
            "phi_fixes_beta": rep.phi_fixes_beta,
            "phi_moves_gamma": rep.phi_moves_gamma,
        }
        return {"inputs": inputs, "result": result, "witnesses": {}}
    rep = sp4_pair_stabilizer(q)
    result = {
        "candidates": rep.candidates,
        "survivor_count": len(rep.survivors),
        "scalars_only": rep.scalars_only,
    }
    witnesses = {"survivors": [list(map(list, g)) for g in rep.survivors]}
    return {"inputs": inputs, "result": result, "witnesses": witnesses}


def cmd_sp4(args):
    cert = _sp4_body(vars(args))
    result = cert["result"]
    if args.triple:
        ok = result["verdict"]
        line = f"triple base check at q={args.q}: {'pass' if ok else 'FAIL'}"
    else:
        ok = result["scalars_only"]
        line = (
            f"pair stabilizer at q={args.q}: {result['survivor_count']} survivors "
            f"(expected {args.q - 1} scalars): {'pass' if ok else 'FAIL'}"
        )
    return PASS if ok else FAIL, cert, [line]


def _orth_body(inputs):
    n, q, pair_check = inputs["n"], inputs["q"], inputs["pair_check"]
    inputs = {"n": n, "q": q, "pair_check": pair_check}
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
        return {"inputs": inputs, "result": result, "witnesses": witnesses}
    cons = orth_odd_construct(n, q)
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
    return {"inputs": inputs, "result": result, "witnesses": witnesses}


def cmd_orth(args):
    cert = _orth_body(vars(args))
    result = cert["result"]
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
    return PASS if ok else FAIL, cert, lines


def _soluble_body(inputs, cap=GroupTable.HARD_CAP):
    rep = soluble_bounds_report(_lattice(inputs["spec"], cap))
    result = {
        "alpha": rep.alpha_value,
        "chief_length": rep.chief_length,
        "non_frattini_count": rep.non_frattini_count,
        "derived_nilpotent": rep.derived_nilpotent,
        "alpha_le_length": rep.alpha_le_length,
        "alpha_le_non_frattini": rep.alpha_le_non_frattini,
    }
    return {"inputs": {"spec": inputs["spec"]}, "result": result, "witnesses": {}}


def cmd_soluble(args):
    cert = _soluble_body(vars(args), args.cap)
    result = cert["result"]
    ok = result["alpha_le_length"] and result["alpha_le_non_frattini"] in (True, None)
    lines = [
        f"{args.spec}: alpha={result['alpha']} chief_length={result['chief_length']} "
        f"non_frattini={result['non_frattini_count']}: {'pass' if ok else 'FAIL'}"
    ]
    return PASS if ok else FAIL, cert, lines


def _theorem4_body(inputs, cap=GroupTable.HARD_CAP):
    rep = chief_factor_bound(_lattice(inputs["spec"], cap))
    result = {
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
    return {"inputs": {"spec": inputs["spec"]}, "result": result, "witnesses": {}}


def cmd_theorem4(args):
    cert = _theorem4_body(vars(args), args.cap)
    result = cert["result"]
    ok = result["verdict"]
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


# -- certificate checkers -----------------------------------------------------
# One per kind of certificate; the alpha and beta checkers take the lattice
# a command has already built, and build their own under verify.


def _is_base_certificate(cert, inputs, result):
    """The certificate holds exactly the given inputs and result, compared
    through JSON so that 1 never equals true, and as witnesses base_size
    distinct partitions into a blocks of size b with trivial joint
    stabilizer."""
    a, b, ambient = (inputs[key] for key in ("a", "b", "ambient"))
    partition_base_size_value(a, b, ambient)  # refuses an invalid action
    listed = cert["witnesses"]["partitions"]
    parts = [parse_partition(s, a * b) for s in listed]
    # blocks of size b covering a*b points: a blocks
    return (
        _same_result(cert, {"inputs": inputs, "result": result,
                            "witnesses": {"partitions": listed}})
        and len({p.canonical() for p in parts}) == len(parts) == result["base_size"]
        and all(len(blk) == b for p in parts for blk in p.blocks)
        and partition_stabilizer(parts, "all" if ambient == "sym" else "even").order == 1
    )


def _verify_partition_base(cert):
    """A certified base whose size is the paper's value for (a, b)."""
    inputs = {key: cert["inputs"][key] for key in ("a", "b", "ambient")}
    value = partition_base_size_value(inputs["a"], inputs["b"], inputs["ambient"])
    return _is_base_certificate(
        cert, inputs, {"base_size": value, "stabilizer_order": 1, "claimed_value": value})


def _verify_base_size(cert):
    """A certified base, flagged exact exactly in mode exact, and then
    least by the rule of partitions._is_least_base_size."""
    inputs = {key: cert["inputs"][key] for key in ("a", "b", "mode", "ambient")}
    size = len(cert["witnesses"]["partitions"])
    return (
        _is_base_certificate(cert, inputs, {"base_size": size,
                                            "exact": inputs["mode"] == "exact"})
        and inputs["mode"] in ("exact", "upper")
        and (inputs["mode"] == "upper" or _is_least_base_size(
            inputs["a"], inputs["b"], inputs["ambient"], size))
    )


def _lattice_of(cert):
    return _lattice(cert["inputs"]["spec"], GroupTable.HARD_CAP)


def _element(table, word):
    """The element of G a word names; None for an unreadable word or one
    naming no element of G."""
    try:
        return table.index.get(parse_perm(word, table.degree))
    except ParseError:
        return None


def _witness_subgroup(table, words):
    """(elements, generators) of the subgroup the words generate; None
    unless each word names an element of G outside the subgroup the words
    before it generate, so a padded or unreadable list is no witness."""
    elems, gens = frozenset([table.identity]), []
    for word in words:
        g = _element(table, word)
        if g is None or g in elems:
            return None
        gens.append(g)
        elems = table.closure(gens)
    return elems, gens


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


def _verify_alpha(cert, lat=None):
    """The witnesses are irredundant maximal subgroups meeting in the
    claimed Frattini subgroup, and alpha and |Phi(G)| are as re-derived
    from the lattice: the witness alone shows neither that no shorter list
    exists nor that the meet is Phi(G) and not a subgroup above it."""
    if lat is None:
        lat = _lattice_of(cert)
    table = lat.table
    derived = alpha(lat)
    frat = _witness_subgroup(table, cert["witnesses"]["frattini_generators"])
    maxes = [
        _witness_subgroup(table, words)
        for words in cert["witnesses"]["maximal_subgroups"]
    ]
    if frat is None or None in maxes:
        return False
    frat = frat[0]
    sets = [elems for elems, _ in maxes]
    return (
        all(table.is_maximal(elems, gens) for elems, gens in maxes)
        and _meet(table, sets) == frat
        and _irredundant(table, sets)
        and len(maxes) == derived.value
        and len(frat) == derived.frattini_order
        and _same_result(cert, {
            "inputs": {"spec": cert["inputs"]["spec"], "order": table.n},
            "result": {"alpha": derived.value, "frattini_order": derived.frattini_order,
                       "exhaustive": True},
            "witnesses": {key: cert["witnesses"][key]
                          for key in ("maximal_subgroups", "frattini_generators")},
        })
    )


def _verify_beta(cert, lat=None):
    """A finite beta (an int) by its witness, an infinite one by its
    per-class core evidence; beta and |Phi(G)| as re-derived from the
    lattice."""
    if lat is None:
        lat = _lattice_of(cert)
    if type(cert["result"]["beta"]) is not int:
        return _verify_infinite_beta(cert, lat)
    table = lat.table
    derived = beta(lat)
    witness = _witness_subgroup(table, cert["witnesses"]["subgroup_generators"])
    conjugators = [_element(table, w) for w in cert["witnesses"]["conjugator_words"]]
    if witness is None or None in conjugators:
        return False
    sub, gens = witness
    conjugates = [sub] + [table.conjugate_set(sub, g) for g in conjugators]
    return (
        table.is_maximal(sub, gens)
        and _irredundant(table, conjugates)
        and len(conjugates) == derived.value
        and len(_meet(table, conjugates)) == derived.frattini_order
        and _same_result(cert, {
            "inputs": {"spec": cert["inputs"]["spec"], "order": table.n},
            "result": {"beta": derived.value, "frattini_order": derived.frattini_order},
            "witnesses": {
                "subgroup_generators": cert["witnesses"]["subgroup_generators"],
                "conjugator_words": cert["witnesses"]["conjugator_words"],
                "core_order": derived.frattini_order,
            },
        })
    )


def _verify_infinite_beta(cert, lat):
    """beta is infinite when no maximal subgroup has core Phi(G).  Phi(G)
    lies in every core, so that holds exactly when each maximal class's
    core order exceeds |Phi(G)|.  The evidence lists, per class, words
    generating one member and that member's core order: each listed
    subgroup must be maximal, the list must meet every maximal class
    exactly once, and each core order must be its subgroup's.  Any member
    of a class, by any words, will do."""
    maximal = {rec.elements for rec in lat.maximal_subgroups()}
    classes = [{rec.elements for rec in cls} for cls in lat.classes if cls[0].elements in maximal]
    listed = cert["witnesses"]["core_orders_by_class"]
    subgroups = [_witness_subgroup(lat.table, entry["generators"]) for entry in listed]
    hits = sorted(i for sub in subgroups if sub is not None
                  for i, cls in enumerate(classes) if sub[0] in cls)
    if not hits == list(range(len(classes))) == list(range(len(listed))):
        return False
    frattini_order = frattini(lat).order
    evidence = [
        {"generators": entry["generators"], "core_order": core(lat, lat.find(sub[0])).order}
        for entry, sub in zip(listed, subgroups)
    ]
    return all(e["core_order"] > frattini_order for e in evidence) and _same_result(cert, {
        "inputs": {"spec": cert["inputs"]["spec"], "order": lat.table.n},
        "result": {"beta": "infinity", "frattini_order": frattini_order},
        "witnesses": {"core_orders_by_class": evidence},
    })


def _verify_rerun(cert):
    """Deterministic commands: run the command's body again on the
    certificate's inputs (group commands under the hard order cap)."""
    return _same_result(cert, _BODIES[cert["command"]](cert["inputs"]))


def _same_result(cert, derived):
    """Each key of derived (inputs, result, witnesses) as derived, compared
    through JSON so that 1 never equals true and 3.0 never equals 3."""
    claimed = {key: cert[key] for key in derived}
    return json.dumps(derived, sort_keys=True) == json.dumps(claimed, sort_keys=True)


_BODIES = {
    "stabilizer": _stabilizer_body,
    "qhat": _qhat_body,
    "sp4": _sp4_body,
    "orth": _orth_body,
    "soluble": _soluble_body,
    "theorem4": _theorem4_body,
}

_VERIFIERS = {
    **{command: _verify_rerun for command in _BODIES},
    "partition-base": _verify_partition_base,
    "base-size": _verify_base_size,
    "alpha": _verify_alpha,
    "beta": _verify_beta,
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
    """Run one subcommand: write --out, print its report or certificate,
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
    try:
        if cert is None:
            print("\n".join(lines))
        else:
            cert.update(command=args.cmd, seed=args.seed)
            _emit(args, cert, lines, time.time() - t0)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (`minbase ... | head -1`).  The status
        # stands; what stdout still buffers goes to the null device, or the
        # flush at exit would fail again.
        with contextlib.suppress(OSError), open(os.devnull, "w") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
    return status


if __name__ == "__main__":
    sys.exit(main())
