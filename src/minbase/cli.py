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

import contextlib
import json
import math
import os
import sys
import time
from types import SimpleNamespace
from typing import NamedTuple

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
from .lattice import GroupTable, Lattice, frattini
from .partitions import (
    CertificationError,
    PreconditionError,
    SearchBudgetExceeded,
    _is_least_base_size,
    apply_to_canonical,
    base_size_partitions,
    format_partition,
    minimal_partition_base,
    parse_partition,
    partition_base_size_value,
    partition_stabilizer,
)
from .perm import ParseError, PermGroup, format_perm, parse_perm, sign

PASS, FAIL, REFUSED = 0, 1, 2
# every certificate's top-level keys: a command's inputs, result and
# witnesses, and the command and seed main stamps on them
CERT_KEYS = frozenset({"command", "seed", "inputs", "result", "witnesses"})
# no certificate nests deeper than this (qhat's nest 7 levels): verify
# refuses a deeper one before any comparison recurses through it
CERT_DEPTH = 32


def _nesting(value):
    """How many levels of JSON arrays and objects value nests, walked a
    level at a time so that no depth can exhaust the stack."""
    depth, level = 0, [value]
    while level:
        depth += 1
        level = [v for x in level if isinstance(x, (dict, list))
                 for v in (x.values() if isinstance(x, dict) else x)]
    return depth


def _write_out(path, text):
    """Write the certificate's JSON text to --out, if given, in one write;
    a path that cannot be written is a refusal, as an unreadable one is to
    verify."""
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise PreconditionError(f"cannot write certificate: {exc}") from exc


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
# Each certificate's layout (inputs, result, witnesses) is written once.
# The witness commands (partition-base, base-size, alpha, beta) and
# stabilizer build theirs in a builder (_<command>_cert) from the engine's
# answer; verify's checker calls the same builder on the certificate's
# inputs, and on the partitions its witnesses list, and compares the
# claimed inputs and result with what it builds (_same_claim).  What the
# witnesses show, the checker judges itself: the stabilizer's order is
# re-derived and any generators of it pass, since any engine may list
# others.  The witness commands run verify's own checker on the
# certificate before printing it.  The whole checker runs, but alpha and
# beta hand it their lattice and the certificate they built, and its
# partition_stabilizer call on the family just computed is answered by
# that engine's one-entry memo; verify, in a process of its own,
# recomputes everything.  Every other command is
# deterministic and is its own builder: it maps its inputs to the
# certificate it prints, and verify runs it again on the certificate's
# inputs, which name its args attributes (_rerun).


def _check(checker, cert, *context):
    """Raise unless the certificate passes verify's checker for it."""
    if not checker(cert, *context):
        raise CertificationError("the certificate failed its verify check")


def _partition_base_cert(parts, a, b, ambient):
    return {
        "inputs": {"a": a, "b": b, "ambient": ambient},
        "result": {"base_size": len(parts), "stabilizer_order": 1,
                   "claimed_value": partition_base_size_value(a, b, ambient)},
        "witnesses": {"partitions": [format_partition(p) for p in parts]},
    }


def cmd_partition_base(args):
    parts = minimal_partition_base(
        args.a, args.b, ambient=args.ambient, seed=args.seed, budget=args.budget
    )
    cert = _partition_base_cert(parts, args.a, args.b, args.ambient)
    _check(_verify_partition_base, cert)
    return PASS, cert, [
        f"base of size {len(parts)} for the ({args.a},{args.b}) partition action",
        *("  " + format_partition(p) for p in parts),
        "joint stabilizer order: 1 (certified)",
    ]


def _base_size_cert(parts, a, b, mode, ambient):
    return {
        "inputs": {"a": a, "b": b, "mode": mode, "ambient": ambient},
        "result": {"base_size": len(parts), "exact": mode == "exact"},
        "witnesses": {"partitions": [format_partition(p) for p in parts]},
    }


def cmd_base_size(args):
    parts = base_size_partitions(
        args.a, args.b, mode=args.mode, ambient=args.ambient,
        seed=args.seed, budget=args.budget,
    )
    cert = _base_size_cert(parts, args.a, args.b, args.mode, args.ambient)
    _check(_verify_base_size, cert)
    return PASS, cert, [f"base size ({args.mode}) = {len(parts)}"]


def _stabilizer_cert(parts, ground, parity):
    G = partition_stabilizer(parts, parity)
    return {
        "inputs": {"ground": ground, "parity": parity,
                   "partitions": [format_partition(p) for p in parts]},
        "result": {"order": G.order},
        "witnesses": {"generators": [format_perm(g) for g in G.generators]},
    }


def cmd_stabilizer(args):
    parts = [parse_partition(s, args.ground) for s in args.partitions]
    cert = _stabilizer_cert(parts, args.ground, args.parity)
    return PASS, cert, [f"stabilizer order: {cert['result']['order']}"]


def _alpha_cert(lat, spec):
    table = lat.table
    res = alpha(lat)
    return {
        "inputs": {"spec": spec, "order": table.n},
        "result": {"alpha": res.value, "frattini_order": res.frattini_order,
                   "exhaustive": True},
        "witnesses": {
            "maximal_subgroups": [
                [table.word_of(g) for g in rec.generators] for rec in res.witness
            ],
            "frattini_generators": [table.word_of(g) for g in frattini(lat).generators],
        },
    }


def cmd_alpha(args):
    lat = _lattice(args.spec, args.cap)
    cert = _alpha_cert(lat, args.spec)
    _check(_verify_alpha, cert, lat, cert)
    return PASS, cert, [f"alpha({args.spec}) = {cert['result']['alpha']} (proved minimal)"]


def _beta_cert(lat, spec):
    """A finite beta's witness conjugates, or an infinite one's per-class
    core orders."""
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
    return {
        "inputs": {"spec": spec, "order": table.n},
        "result": {"beta": value, "frattini_order": res.frattini_order},
        "witnesses": witnesses,
    }


def cmd_beta(args):
    lat = _lattice(args.spec, args.cap)
    cert = _beta_cert(lat, args.spec)
    _check(_verify_beta, cert, lat, cert)
    value = cert["result"]["beta"]
    note = " (no core-free-to-Frattini maximal class)" if value == "infinity" else ""
    return PASS, cert, [f"beta({args.spec}) = {value}{note}"]


class QGrid(NamedTuple):
    """The grids `qhat --q` admits: a comma list of at most `items` q
    values and lo..hi ranges, every q in `values`."""

    values: range
    items: int

    def __contains__(self, text):
        try:
            spans = _spans(text)
        except ValueError:
            return False
        return len(spans) <= self.items and all(q in self.values for s in spans for q in s)


def _spans(grid):
    """(lo, hi) for each item of a comma list of values and lo..hi ranges."""
    out = []
    for chunk in grid.split(","):
        lo, dots, hi = chunk.partition("..")
        out.append((int(lo), int(hi if dots else lo)))
    return out


def cmd_qhat(args):
    builder = FAMILY_BUILDERS[args.family]
    rows = []
    for q in [q for lo, hi in _spans(args.q) for q in range(lo, hi + 1)]:
        # every builder refuses a q that is no prime power
        try:
            table = builder(q)
        except ValueError:
            continue
        res = evaluate_qhat(table, args.c)
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
    ok = all(r["certified"] for r in rows)
    cert = {
        "inputs": {"family": args.family, "q": args.q, "c": args.c},
        "result": {"all_certified": ok, "rows": rows},
        "witnesses": {},
    }
    return PASS if ok else FAIL, cert, [
        f"q={r['q']}: sum = {r['value_float']:.6g}  certified(<1) = {r['certified']}"
        for r in rows
    ]


def cmd_sp4(args):
    if args.triple:
        rep = sp4_triple_base_check(args.q)
        result = rep._asdict()
        ok, witnesses = rep.verdict, {}
        line = f"triple base check at q={args.q}: {'pass' if ok else 'FAIL'}"
    else:
        rep = sp4_pair_stabilizer(args.q)
        result = {
            "candidates": rep.candidates,
            "survivor_count": len(rep.survivors),
            "scalars_only": rep.scalars_only,
        }
        ok = rep.scalars_only
        witnesses = {"survivors": [list(map(list, g)) for g in rep.survivors]}
        line = (
            f"pair stabilizer at q={args.q}: {len(rep.survivors)} survivors "
            f"(expected {args.q - 1} scalars): {'pass' if ok else 'FAIL'}"
        )
    cert = {"inputs": {"q": args.q, "triple": args.triple},
            "result": result, "witnesses": witnesses}
    return PASS if ok else FAIL, cert, [line]


def cmd_orth(args):
    n, q = args.n, args.q
    if args.pair_check:
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
        ok, lines = rep.verdict, [
            f"pair check O_{n}({q}): {rep.survivors} survivor(s) "
            f"out of {rep.stabilizer_size}: {'pass' if rep.verdict else 'FAIL'}"
        ]
    else:
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
        ok, lines = True, [
            f"constructed U, W, W' in dimension {n} over F_{q}",
            f"phi moves W': {phi_moves}",
        ]
    cert = {"inputs": {"n": n, "q": q, "pair_check": args.pair_check},
            "result": result, "witnesses": witnesses}
    return PASS if ok else FAIL, cert, lines


def cmd_soluble(args):
    rep = soluble_bounds_report(_lattice(args.spec, args.cap))
    ok = rep.alpha_le_length and rep.alpha_le_non_frattini in (True, None)
    cert = {"inputs": {"spec": args.spec}, "result": rep._asdict(), "witnesses": {}}
    return PASS if ok else FAIL, cert, [
        f"{args.spec}: alpha={rep.alpha} chief_length={rep.chief_length} "
        f"non_frattini={rep.non_frattini_count}: {'pass' if ok else 'FAIL'}"
    ]


def cmd_theorem4(args):
    rep = chief_factor_bound(_lattice(args.spec, args.cap))
    cert = {"inputs": {"spec": args.spec}, "result": rep._asdict(), "witnesses": {}}
    return PASS if rep.verdict else FAIL, cert, [
        f"{args.spec}: alpha={rep.alpha} <= bound={rep.bound}: "
        f"{'pass' if rep.verdict else 'FAIL'}"
    ]


def cmd_catalog(args):
    lines = []
    for name in BUILTIN_NAMES:
        G = group_from_spec(name)
        lines.append(f"{name:10s} degree {G.degree:3d} order {G.order}")
    return PASS, None, lines


def cmd_verify(args):
    """Refuse a certificate lacking one of CERT_KEYS or with a seed that is
    no JSON integer, reject one with any other top-level key, then check
    its inputs against its command's row and run the row's checker."""
    try:
        with open(args.certificate) as fh:
            cert = json.load(fh)
    except OSError as exc:
        raise PreconditionError(f"cannot read certificate: {exc}") from exc
    except RecursionError as exc:
        raise PreconditionError("certificate nests too deeply") from exc
    if _nesting(cert) > CERT_DEPTH:
        raise PreconditionError("certificate nests too deeply")
    if not isinstance(cert, dict) or not isinstance(cert.get("command"), str):
        raise PreconditionError("certificate is not a JSON object with a command")
    row = COMMANDS.get(cert["command"])
    if row is None or row.check is None:
        raise PreconditionError(f"no verifier for command {cert['command']!r}")
    missing = CERT_KEYS - cert.keys()
    if missing:
        raise PreconditionError(f"certificate lacks {', '.join(sorted(missing))}")
    if type(cert["seed"]) is not int:
        raise PreconditionError("certificate seed must be a JSON integer")
    try:
        _check_inputs(row, cert["inputs"])
        # a key, or an input, the command never writes is a forged claim,
        # not a malformed one
        names = {inp.name for inp in row.inputs if inp.cert}
        ok = (cert.keys() == CERT_KEYS and cert["inputs"].keys() == names
              and row.check(cert))
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        # a field missing or of the wrong shape; a refusal is never "verified"
        raise PreconditionError(f"malformed certificate: {exc!r}") from exc
    verdict = "verified" if ok else "REJECTED"
    return PASS if ok else FAIL, None, [f"certificate {args.certificate}: {verdict}"]


# -- certificate checkers -----------------------------------------------------
# One per kind of certificate; the alpha and beta checkers take the lattice
# a command has already built, and build their own under verify.


def _is_base_certificate(cert, build):
    """The certificate claims what build derives from its inputs and its
    witnesses, and these are base_size distinct partitions into a blocks of
    size b with trivial joint stabilizer."""
    inputs = cert["inputs"]
    a, b, ambient = inputs["a"], inputs["b"], inputs["ambient"]
    partition_base_size_value(a, b, ambient)  # refuses an invalid action
    parts = [parse_partition(s, a * b) for s in cert["witnesses"]["partitions"]]
    # blocks of size b covering a*b points: a blocks
    return (
        _same_claim(cert, build(parts, **inputs))
        and len({p.canonical() for p in parts}) == len(parts)
        and all(len(blk) == b for p in parts for blk in p.blocks)
        and partition_stabilizer(parts, "all" if ambient == "sym" else "even").order == 1
    )


def _verify_partition_base(cert):
    """A certified base whose size is the paper's value for (a, b)."""
    result = cert["result"]
    return (_is_base_certificate(cert, _partition_base_cert)
            and result["base_size"] == result["claimed_value"])


def _verify_base_size(cert):
    """A certified base, flagged exact exactly in mode exact, and then
    least by the rule of partitions._is_least_base_size."""
    inputs, size = cert["inputs"], len(cert["witnesses"]["partitions"])
    return _is_base_certificate(cert, _base_size_cert) and (
        inputs["mode"] != "exact"
        or _is_least_base_size(inputs["a"], inputs["b"], inputs["ambient"], size))


def _verify_stabilizer(cert):
    """The inputs are canonical and the order is the family's stabilizer's,
    re-derived.  The generators are evidence, not the claim: any list
    passes whose members each stabilize every partition, are even under
    parity even, and generate a group of the claimed order.  They lie in
    the stabilizer, so a group of its order is all of it.  The chain is
    built over the re-derived group's base, where the engine's own list
    is a strong generating set; that list is the re-derived group's own
    generators, whose order is already known."""
    inputs, listed = cert["inputs"], cert["witnesses"]["generators"]
    ground, parity = inputs["ground"], inputs["parity"]
    if not _is_words(listed):
        raise PreconditionError("witness generators must be a JSON list of strings")
    parts = [parse_partition(s, ground) for s in inputs["partitions"]]
    if not _same_claim(cert, _stabilizer_cert(parts, ground, parity)):
        return False
    G = partition_stabilizer(parts, parity)
    try:
        gens = [parse_perm(word, ground) for word in listed]
    except ParseError:
        return False
    keys = [p.canonical() for p in parts]
    return (
        all(apply_to_canonical(g, key) == key for g in gens for key in keys)
        and (parity == "all" or all(sign(g) > 0 for g in gens))
        and (gens == G.generators or PermGroup(gens, ground, base=G.base).order == G.order)
    )


def _elements(table, words):
    """The element of G each word names: None for an unreadable word or
    one naming no element of G.  Anything but a JSON list of strings is
    refused before a word is read."""
    if not _is_words(words):
        raise PreconditionError("witness words must be a JSON list of strings")
    out = []
    for word in words:
        try:
            out.append(table.index.get(parse_perm(word, table.degree)))
        except ParseError:
            out.append(None)
    return out


def _witness_subgroup(table, words):
    """(elements, generators) of the subgroup the words generate; None
    unless each word names an element of G outside the subgroup the words
    before it generate, so a padded or unreadable list is no witness."""
    elems, gens = frozenset([table.identity]), []
    for g in _elements(table, words):
        if g is None or g in elems:
            return None
        gens.append(g)
        elems = table.closure(gens, elems)
    return elems, gens


def _meet(table, sets):
    return table.whole.intersection(*sets)


def _irredundant(table, sets):
    """Dropping any one set leaves a larger intersection: a witness list
    padded with a repeat or with a set it does not need fails."""
    size = len(_meet(table, sets))
    return all(
        len(_meet(table, sets[:i] + sets[i + 1:])) > size for i in range(len(sets))
    )


def _rebuild(cert, build):
    """verify's lattice for a group certificate, and the certificate its
    command builds on it: the derived claim a checker compares with."""
    spec = cert["inputs"]["spec"]
    lat = _lattice(spec, GroupTable.HARD_CAP)
    return lat, build(lat, spec)


def _verify_alpha(cert, lat=None, derived=None):
    """The witnesses are irredundant maximal subgroups meeting in the
    claimed Frattini subgroup, and alpha and |Phi(G)| are as re-derived
    from the lattice: the witness alone shows neither that no shorter list
    exists nor that the meet is Phi(G) and not a subgroup above it.
    cmd_alpha passes its lattice and the certificate it built on it."""
    if lat is None:
        lat, derived = _rebuild(cert, _alpha_cert)
    table = lat.table
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
        and len(maxes) == derived["result"]["alpha"]
        and len(frat) == derived["result"]["frattini_order"]
        and _same_claim(cert, derived)
    )


def _verify_beta(cert, lat=None, derived=None):
    """A finite beta (an int) by its witness, an infinite one by its
    per-class core evidence; beta and |Phi(G)| as re-derived from the
    lattice.  cmd_beta passes its lattice and the certificate it built."""
    if lat is None:
        lat, derived = _rebuild(cert, _beta_cert)
    if type(cert["result"]["beta"]) is not int:
        return _verify_infinite_beta(cert, lat, derived)
    table = lat.table
    result = derived["result"]
    witness = _witness_subgroup(table, cert["witnesses"]["subgroup_generators"])
    conjugators = _elements(table, cert["witnesses"]["conjugator_words"])
    if witness is None or None in conjugators:
        return False
    sub, gens = witness
    conjugates = [sub] + [table.conjugate_set(sub, g) for g in conjugators]
    return (
        table.is_maximal(sub, gens)
        and _irredundant(table, conjugates)
        and len(conjugates) == result["beta"]
        and len(_meet(table, conjugates)) == result["frattini_order"]
        and _same_claim(cert, derived)
        and _same_result(cert["witnesses"], {"core_order": result["frattini_order"]})
    )


def _verify_infinite_beta(cert, lat, derived):
    """beta is infinite when no maximal subgroup has core Phi(G).  Phi(G)
    lies in every core, so that holds exactly when each maximal class's
    core order exceeds |Phi(G)|.  The evidence lists, per class, words
    generating one member and that member's core order: each listed
    subgroup must be maximal, the list must meet every maximal class
    exactly once, and each core order must be its class's, as beta()
    derives it from the lattice (conjugate subgroups have conjugate cores,
    so the order is one per class).  Any member of a class, by any words,
    will do."""
    if derived["result"]["beta"] != "infinity":
        return False
    maximal = {rec.elements for rec in lat.maximal_subgroups()}
    classes = [cls for cls in lat.classes if cls[0].elements in maximal]
    # beta is memoized: this is the evidence derived was built from
    core_orders = {rec.elements: order for rec, order in beta(lat).empty_star_evidence}
    class_of = {rec.elements: i for i, cls in enumerate(classes) for rec in cls}
    listed = cert["witnesses"]["core_orders_by_class"]
    hits = [
        None if sub is None else class_of.get(sub[0])
        for sub in (_witness_subgroup(lat.table, entry["generators"]) for entry in listed)
    ]
    if None in hits or sorted(hits) != list(range(len(classes))):
        return False
    evidence = [
        {"generators": entry["generators"], "core_order": core_orders[classes[i][0].elements]}
        for entry, i in zip(listed, hits)
    ]
    return _same_claim(cert, derived) and _same_result(
        cert["witnesses"], {"core_orders_by_class": evidence})


def _rerun(run):
    """verify's checker for a deterministic command: the command run again
    on the certificate's inputs, group commands under the hard order cap."""
    return lambda cert: _same_result(
        cert, run(SimpleNamespace(cap=GroupTable.HARD_CAP, **cert["inputs"]))[1])


def _same_result(cert, derived):
    """Each key of derived (inputs, result, witnesses) as derived, compared
    through JSON so that 1 never equals true and 3.0 never equals 3."""
    claimed = {key: cert[key] for key in derived}
    return json.dumps(derived, sort_keys=True) == json.dumps(claimed, sort_keys=True)


def _same_claim(cert, derived):
    """The claimed inputs and result are the derived certificate's, as
    _same_result compares them, and the witnesses have its keys; what the
    witnesses show is the checker's to judge."""
    return (_same_result(cert, {key: derived[key] for key in ("inputs", "result")})
            and cert["witnesses"].keys() == derived["witnesses"].keys())


# -- the command table ----------------------------------------------------------
# One row per command: the command line, the input check of emit and
# verify, and verify's choice of checker all read it.

REQUIRED, DERIVED = object(), object()  # the command line must give it; the command works it out


class Input(NamedTuple):
    """An option string (a positional, or a DERIVED input's key), JSON type
    (list: of strings, semicolon-separated on the command line), default,
    choices (a tuple) or range, and whether the certificate records it."""

    flag: str
    kind: type
    default: object = REQUIRED
    within: object = None
    cert: bool = True
    help: str | None = None

    @property
    def name(self):  # the inputs key and args attribute
        return self.flag.lstrip("-").replace("-", "_")


class Command(NamedTuple):
    """Help text, run (args -> exit status, certificate or None, report
    lines), verify's checker (None: no certificate) and inputs."""

    help: str
    run: object
    check: object = None
    inputs: tuple = ()


_PARSE = {int: int, str: str, list: lambda text: text.split(";")}


def _is_words(value):
    return type(value) is list and all(type(w) is str for w in value)


def _check_inputs(row, inputs):
    """Refuse a missing input (KeyError; a DERIVED one may be), one of the
    wrong JSON type (true is no int; a flag is a bool), or one outside its
    choices or range, before anything runs on it."""
    for inp in row.inputs:
        if not inp.cert or (inp.default is DERIVED and inp.name not in inputs):
            continue
        value = inputs[inp.name]
        if not (_is_words(value) if inp.kind is list else type(value) is inp.kind):
            raise PreconditionError(f"input {inp.name} must be a JSON {inp.kind.__name__}")
        if inp.within is not None and value not in inp.within:
            raise PreconditionError(f"input {inp.name} = {value!r} is outside {inp.within}")


_RUN = (
    Input("--json", bool, False, cert=False, help="machine-readable output"),
    Input("--seed", int, 1, cert=False),
    Input("--out", str, None, cert=False, help="also write the certificate to this file"),
)
_ACTION = (
    Input("-a", int),
    Input("-b", int),
    Input("--ambient", str, "sym", ("sym", "alt")),
    Input("--budget", int, 100000, cert=False, help="search trial cap"),
    *_RUN,
)
_GROUP = (Input("--spec", str), Input("order", int, DERIVED))
_CAP = Input("--cap", int, 1000, cert=False, help="subgroup-lattice order cap")

COMMANDS = {
    "partition-base": Command("certified base for the partition action",
                              cmd_partition_base, _verify_partition_base, _ACTION),
    "base-size": Command("exact or upper base size for the partition action",
                         cmd_base_size, _verify_base_size,
                         (Input("--mode", str, "exact", ("exact", "upper")), *_ACTION)),
    "stabilizer": Command("joint stabilizer of listed partitions",
                          cmd_stabilizer, _verify_stabilizer, (
                              Input("--ground", int),
                              Input("--partitions", list, help='semicolon-separated, '
                                    'e.g. "{1,2}|{3,4};{1,3}|{2,4}"'),
                              Input("--parity", str, "all", ("all", "even")),
                              *_RUN)),
    "alpha": Command("intersection number with witness",
                     cmd_alpha, _verify_alpha, (*_GROUP, _CAP, *_RUN)),
    "beta": Command("base number with witness",
                    cmd_beta, _verify_beta, (*_GROUP, _CAP, *_RUN)),
    "soluble": Command("intersection number vs chief-series bounds",
                       cmd_soluble, _rerun(cmd_soluble), (_GROUP[0], _CAP, *_RUN)),
    "theorem4": Command("chief-factor upper bound vs exact alpha",
                        cmd_theorem4, _rerun(cmd_theorem4), (_GROUP[0], _CAP, *_RUN)),
    "qhat": Command("exact-rational bound tables",
                    cmd_qhat, _rerun(cmd_qhat), (
                        Input("--family", str, within=tuple(sorted(FAMILY_BUILDERS))),
                        Input("--q", str, within=QGrid(range(2, 4097), 8), help="comma "
                              "list of up to 8 values and lo..hi ranges within 2..4096"),
                        Input("--c", int, 3, range(1, 17), help="1..16"),
                        *_RUN)),
    "sp4": Command("symplectic pair/triple base checks",
                   cmd_sp4, _rerun(cmd_sp4),
                   (Input("--q", int), Input("--triple", bool, False), *_RUN)),
    "orth": Command("odd orthogonal construction and pair check",
                    cmd_orth, _rerun(cmd_orth), (
                        Input("--n", int, 7, range(7, 128), help="7..127"),
                        Input("--q", int, 3),
                        Input("--pair-check", bool, False),
                        *_RUN)),
    "verify": Command("re-check an emitted certificate", cmd_verify,
                      inputs=(Input("certificate", str, cert=False),)),
    "catalog": Command("list builtin groups", cmd_catalog),
}


# -- the command line -----------------------------------------------------------
# Read from the table too: argparse's first use cost a cold process 1-4 ms
# on a 2-core VM, a third of a typical emit or verify.

HELP = ("-h", "--help")


def _is_option(word):
    """A word naming an option: a leading '-', unless the word is '-' alone
    or a negative integer, which are values."""
    return len(word) > 1 and word[0] == "-" and not word[1:].isdigit()


def _synopsis(inp):
    """An input as usage shows it: `--flag NAME` or `--flag {choices}`, a
    bool input as its bare flag, a positional by its name."""
    if inp.kind is bool or not inp.flag.startswith("-"):
        return inp.flag
    metavar = "{%s}" % ",".join(inp.within) if type(inp.within) is tuple else inp.name.upper()
    return f"{inp.flag} {metavar}"


def _note(inp):
    """An input's help text and its default, if it has one to show."""
    notes = [inp.help] if inp.help else []
    if inp.kind is not bool and inp.default not in (REQUIRED, None):
        notes.append(f"default {inp.default}")
    return "; ".join(notes)


class CommandLine(NamedTuple):
    """argv -> one command's inputs, read from its row of the table: the
    command's name, then each input as `--flag value` or `--flag=value`
    (exact option strings, never abbreviated), a bool input as its bare
    flag, a positional as itself.  Malformed argv prints a usage line and
    the reason to stderr and exits 2; -h or --help prints the commands, or
    one command's inputs, and exits 0."""

    commands: dict

    def inputs(self, name):
        """The inputs of the named command that the command line gives."""
        return [inp for inp in self.commands[name].inputs if inp.default is not DERIVED]

    def usage(self, name=None):
        if name is None:
            return "usage: minbase {%s} ..." % ",".join(self.commands)
        return " ".join(["usage: minbase", name, *(
            _synopsis(inp) if inp.default is REQUIRED else f"[{_synopsis(inp)}]"
            for inp in self.inputs(name))])

    def help(self, name=None):
        if name is None:
            head = ["certified minimal bases and intersection numbers for small groups",
                    "", "commands:"]
            entries = [(key, row.help) for key, row in self.commands.items()]
        else:
            head = [self.commands[name].help]
            entries = [(_synopsis(inp), _note(inp)) for inp in self.inputs(name)]
            head += ["", "inputs:"] if entries else []
        width = max((len(key) for key, _ in entries), default=0)
        return "\n".join([self.usage(name), "", *head, *(
            f"    {key:{width}s}  {text}".rstrip() for key, text in entries)])

    def fail(self, name, reason):
        sys.stderr.write(f"{self.usage(name)}\nminbase: error: {reason}\n")
        raise SystemExit(REFUSED)

    def parse_args(self, argv):
        """A namespace of `cmd`, the command's name, and its inputs, each
        as given or its default."""
        name = argv[0] if argv else None
        if name in HELP:
            print(self.help())
            raise SystemExit(PASS)
        if name not in self.commands:
            self.fail(None, f"unknown command {name!r}" if argv else "a command is required")
        inputs = self.inputs(name)
        options = {inp.flag: inp for inp in inputs if inp.flag.startswith("-")}
        positionals = [inp for inp in inputs if not inp.flag.startswith("-")]
        values = {inp.name: inp.default for inp in inputs}
        words = iter(argv[1:])
        for word in words:
            if word in HELP:
                print(self.help(name))
                raise SystemExit(PASS)
            if not _is_option(word):
                if not positionals:
                    self.fail(name, f"unrecognized argument {word!r}")
                inp, value = positionals.pop(0), word
            else:
                flag, eq, value = word.partition("=")
                inp = options.get(flag)
                if inp is None:
                    self.fail(name, f"unknown option {flag} (options are never abbreviated)")
                if inp.kind is bool:
                    if eq:
                        self.fail(name, f"{flag} takes no value")
                    values[inp.name] = True
                    continue
                if not eq:
                    value = next(words, None)
                    if value is None or _is_option(value):
                        self.fail(name, f"{flag} expects a value")
            try:
                values[inp.name] = value = _PARSE[inp.kind](value)
            except ValueError:
                self.fail(name, f"{inp.flag}: invalid {inp.kind.__name__} value {value!r}")
            if type(inp.within) is tuple and value not in inp.within:
                self.fail(name, f"{inp.flag}: invalid choice {value!r} "
                          f"(choose from {', '.join(inp.within)})")
        missing = [inp.flag for inp in inputs if values[inp.name] is REQUIRED]
        if missing:
            self.fail(name, f"required: {', '.join(missing)}")
        return SimpleNamespace(cmd=name, **values)


def build_parser():
    """The command line's parser, over every command of the table: the one
    main uses."""
    return CommandLine(COMMANDS)


def main(argv=None):
    """Run one subcommand: write --out, print its report or certificate,
    and map refusals (every ValueError, an exhausted search budget, and an
    --out that cannot be written) to exit code 2."""
    args = build_parser().parse_args(sys.argv[1:] if argv is None else argv)
    row = COMMANDS[args.cmd]
    t0 = time.time()
    try:
        _check_inputs(row, vars(args))
        status, cert, lines = row.run(args)
        elapsed = time.time() - t0
        if cert is not None:
            cert.update(command=args.cmd, seed=args.seed)
            # encoded once, for --out and --json alike, and not at all for neither
            text = (json.dumps(cert, indent=1, sort_keys=True, default=str)
                    if args.out or args.json else None)
            # the file first: a reader that closes stdout early does not cost it
            _write_out(args.out, text)
    except SearchBudgetExceeded as exc:
        print(f"refused (budget): {exc}", file=sys.stderr)
        return REFUSED
    except ValueError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return REFUSED
    try:
        if cert is None:
            print("\n".join(lines))
        elif args.json:
            print(text)
        else:
            print("\n".join([*lines, f"[{elapsed:.2f}s]"]))
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
