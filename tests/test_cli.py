import argparse
import copy
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import minbase
from minbase import cli, invariants, lattice, partitions
from minbase.catalog import BUILTIN_NAMES, group_from_spec, spec_order
from minbase.cli import main
from minbase.invariants import AlphaCertificate, BaseSizeCertificate
from minbase.lattice import GroupTable, Lattice
from minbase.partitions import (
    CertificationError,
    SetPartition,
    apply_to_canonical,
    format_partition,
    parse_partition,
    partition_stabilizer,
)
from minbase.perm import PermGroup, compose, format_perm, inverse, parse_perm


def run_cli(args):
    return main(args)


def run_json(tmp_path, args):
    out = tmp_path / "cert.json"
    code = main(args + ["--json", "--out", str(out)])
    return code, json.loads(out.read_text())


def test_partition_base_and_verify(tmp_path):
    code, cert = run_json(tmp_path, ["partition-base", "-a", "5", "-b", "3"])
    assert code == 0
    assert cert["result"]["base_size"] == 3
    assert main(["verify", str(tmp_path / "cert.json")]) == 0


def test_partition_base_32(tmp_path):
    code, cert = run_json(tmp_path, ["partition-base", "-a", "3", "-b", "2"])
    assert code == 0
    assert cert["result"]["base_size"] == 4


def test_partition_base_83(tmp_path):
    code, cert = run_json(tmp_path, ["partition-base", "-a", "8", "-b", "3"])
    assert code == 0
    assert cert["result"]["base_size"] == 2


def test_base_size_verify_roundtrip(tmp_path):
    code, cert = run_json(tmp_path, ["base-size", "-a", "4", "-b", "2", "--mode", "exact"])
    assert code == 0
    assert cert["result"]["base_size"] == 3
    assert main(["verify", str(tmp_path / "cert.json")]) == 0


def test_alpha_verify_roundtrip(tmp_path):
    code, cert = run_json(tmp_path, ["alpha", "--spec", "S4"])
    assert code == 0
    assert cert["result"]["alpha"] == 3
    assert main(["verify", str(tmp_path / "cert.json")]) == 0


def test_beta_verify_roundtrip(tmp_path):
    code, cert = run_json(tmp_path, ["beta", "--spec", "A5"])
    assert code == 0
    assert cert["result"]["beta"] == 2
    assert main(["verify", str(tmp_path / "cert.json")]) == 0


def test_beta_infinite_branch(tmp_path):
    code, cert = run_json(tmp_path, ["beta", "--spec", "Q8"])
    assert code == 0
    assert cert["result"]["beta"] == "infinity"
    assert main(["verify", str(tmp_path / "cert.json")]) == 0


def test_beta_c4(tmp_path):
    code, cert = run_json(tmp_path, ["beta", "--spec", "C4"])
    assert code == 0
    assert cert["result"]["beta"] == 1


def test_qhat_verify_roundtrip(tmp_path):
    code, cert = run_json(
        tmp_path, ["qhat", "--family", "g2", "--q", "9..81", "--c", "3"]
    )
    assert code == 0
    assert cert["result"]["all_certified"]
    qs = [r["q"] for r in cert["result"]["rows"]]
    assert qs == [9, 16, 25, 49, 64, 81]
    assert main(["verify", str(tmp_path / "cert.json")]) == 0


def test_sp4_verify_roundtrip(tmp_path):
    code, cert = run_json(tmp_path, ["sp4", "--q", "5"])
    assert code == 0
    assert cert["result"]["survivor_count"] == 4
    assert main(["verify", str(tmp_path / "cert.json")]) == 0


def test_sp4_triple(tmp_path):
    code, cert = run_json(tmp_path, ["sp4", "--q", "9", "--triple"])
    assert code == 0
    assert cert["result"]["verdict"]


def test_orth_pair_check(tmp_path):
    code, cert = run_json(tmp_path, ["orth", "--n", "7", "--q", "3", "--pair-check"])
    assert code == 0
    assert cert["result"]["survivors"] == 1


def test_orth_construct(tmp_path):
    code, cert = run_json(tmp_path, ["orth", "--n", "7", "--q", "9"])
    assert code == 0
    assert cert["result"]["phi_moves_w_prime"] is True
    assert main(["verify", str(tmp_path / "cert.json")]) == 0


def test_soluble_command(tmp_path):
    code, cert = run_json(tmp_path, ["soluble", "--spec", "SL23"])
    assert code == 0
    assert cert["result"]["alpha"] == 2
    assert cert["result"]["chief_length"] == 3
    assert main(["verify", str(tmp_path / "cert.json")]) == 0


def test_soluble_refuses_insoluble():
    assert main(["soluble", "--spec", "A5"]) == 2


def test_theorem4_command(tmp_path):
    code, cert = run_json(tmp_path, ["theorem4", "--spec", "S4"])
    assert code == 0
    assert cert["result"]["bound"] == 7
    assert main(["verify", str(tmp_path / "cert.json")]) == 0


def test_theorem4_large_prime(tmp_path):
    # C_521: one 1-dimensional chief factor over a prime past the
    # table-based fields, so its intertwiners must not need F_521 tables
    code, cert = run_json(tmp_path, ["theorem4", "--spec", "C521"])
    assert code == 0
    assert cert["result"] == {
        "abelian_classes": [{"delta": 1, "dim": 1, "dim_over_endo": 1, "p": 521}],
        "alpha": 1,
        "bound": 2,
        "nonabelian_classes": [],
        "soluble": True,
        "soluble_bound": 4,
        "verdict": True,
    }
    assert main(["verify", str(tmp_path / "cert.json")]) == 0


def test_stabilizer_command(tmp_path):
    code, cert = run_json(
        tmp_path,
        ["stabilizer", "--ground", "4", "--partitions", "{1,2}|{3,4}"],
    )
    assert code == 0
    assert cert["result"]["order"] == 8
    assert main(["verify", str(tmp_path / "cert.json")]) == 0


@pytest.mark.parametrize("ground, partitions", [(4, "{1,1,2}|{3,4}"), (2, "{1}|{2,2}")])
def test_a_block_repeating_a_point_is_refused(tmp_path, capsys, ground, partitions):
    assert main(["stabilizer", "--ground", str(ground), "--partitions", partitions]) == 2
    assert capsys.readouterr().err == "refused: a block repeats a point\n"
    # the certificate such a block once gave: {3,4}'s transposition alone
    code, cert = run_json(tmp_path, ["stabilizer", "--ground", "4", "--partitions",
                                     "{1,2}|{3,4}"])
    assert code == 0
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(dict(
        cert, inputs=dict(cert["inputs"], partitions=["{1,1,2}|{3,4}"]),
        result={"order": 2}, witnesses={"generators": ["(3,4)"]})))
    assert main(["verify", str(path)]) == 2


def test_even_stabilizer_lists_each_generator_once(tmp_path):
    # S3 wr S4 meet A12: the walk's 11 generators give 22 Schreier
    # generators for {1, t}, 10 of them repeats
    code, cert = run_json(tmp_path, [
        "stabilizer", "--ground", "12", "--partitions",
        "{1,2,3}|{4,5,6}|{7,8,9}|{10,11,12}", "--parity", "even"])
    assert code == 0 and cert["result"]["order"] == 15552
    generators = cert["witnesses"]["generators"]
    assert len(set(generators)) == len(generators) == 12
    assert main(["verify", str(tmp_path / "cert.json")]) == 0


@pytest.mark.parametrize("a, b, order", [
    (2, 64, 2 * math.factorial(64) ** 2),
    (64, 2, math.factorial(64) * 2 ** 64),
], ids=["S64-wr-S2", "S2-wr-S64"])
def test_stabilizer_at_the_ground_cap_emits_and_verifies(tmp_path, a, b, order):
    # the two slowest one-partition stabilizers the 128-point cap admits:
    # the emit and the verify together took 6.6 s at (2, 64) and 4.2 s at
    # (64, 2) in-process on a 2-core x86 box, under a quarter of the 30 s
    # bound
    blocks = "|".join(
        "{%s}" % ",".join(str(b * i + j + 1) for j in range(b)) for i in range(a))
    start = time.perf_counter()
    partition_stabilizer.cache_clear()
    code, cert = run_json(tmp_path, ["stabilizer", "--ground", "128", "--partitions", blocks])
    assert code == 0 and cert["result"]["order"] == order
    # verify computes the stabilizer again, not from the emit's memo
    partition_stabilizer.cache_clear()
    assert main(["verify", str(tmp_path / "cert.json")]) == 0
    assert partition_stabilizer.cache_info().misses == 1
    assert time.perf_counter() - start < 30
    partition_stabilizer.cache_clear()


def test_refusal_exit_codes():
    assert main(["base-size", "-a", "6", "-b", "3", "--mode", "exact"]) == 2
    assert main(["sp4", "--q", "4"]) == 2
    assert main(["orth", "--n", "11", "--q", "3", "--pair-check"]) == 2
    assert main(["alpha", "--spec", "NOPE"]) == 2
    assert main(["alpha", "--spec", "S6", "--cap", "100"]) == 2
    assert main(["qhat", "--family", "g2", "--q", "10"]) == 2


@pytest.mark.parametrize("argv, ground", [
    (["partition-base", "-a", "30", "-b", "10"], 300),
    (["base-size", "-a", "13", "-b", "10", "--mode", "upper"], 130),
    (["stabilizer", "--ground", "300", "--partitions", "{1}"], 300),
])
def test_a_ground_above_the_cap_is_refused_before_any_work(capsys, argv, ground):
    # before any draw, construction or parse: the search alone once spent
    # seconds on 300-point candidates before its budget ran out
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == f"refused: ground size {ground} exceeds the 128-point cap\n"


@pytest.mark.parametrize("cert, ground", [
    ({"command": "partition-base", "inputs": {"a": 30, "b": 10, "ambient": "sym"},
      "result": {"base_size": 2, "stabilizer_order": 1, "claimed_value": 2},
      "witnesses": {"partitions": ["{1}", "{2}"]}}, 300),
    ({"command": "base-size", "inputs": {"a": 13, "b": 10, "mode": "upper", "ambient": "sym"},
      "result": {"base_size": 2, "exact": False}, "witnesses": {"partitions": ["{1}", "{2}"]}},
     130),
    ({"command": "stabilizer", "inputs": {"ground": 300, "parity": "all", "partitions": ["{1}"]},
      "result": {"order": 1}, "witnesses": {"generators": []}}, 300),
])
def test_verify_refuses_a_ground_above_the_cap_before_parsing(tmp_path, capsys, cert, ground):
    # witnesses that do not parse: the cap, not the parser, refuses them
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(dict(cert, seed=1)))
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == f"refused: ground size {ground} exceeds the 128-point cap\n"


def test_budget_refusal_reports_work(capsys):
    # the first three matrices drawn at (8,3) seed 1 give partners with
    # nontrivial stabilizers (the fourth is a 2-base)
    code = main(["base-size", "-a", "8", "-b", "3", "--mode", "upper",
                 "--seed", "1", "--budget", "3"])
    assert code == 2
    err = capsys.readouterr().err
    assert "no 2-base found for (a,b)=(8,3) within the budget" in err
    assert "3 trials drawn, 0 alt draws not completed, 3 stabilizers computed" in err
    assert main(["base-size", "-a", "8", "-b", "3", "--mode", "upper",
                 "--seed", "1", "--budget", "4"]) == 0


def test_deterministic_json_bytes(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    main(["qhat", "--family", "o10", "--q", "8,9", "--c", "3", "--json", "--out", str(out1)])
    main(["qhat", "--family", "o10", "--q", "8,9", "--c", "3", "--json", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()
    main(["alpha", "--spec", "S4", "--json", "--out", str(out1)])
    main(["alpha", "--spec", "S4", "--json", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_console_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "minbase.cli", "catalog"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "S6" in proc.stdout


def test_group_file_spec(tmp_path):
    path = tmp_path / "g.grp"
    path.write_text("degree 4\n(1,2)\n(1,2,3,4)\n")
    assert main(["alpha", "--spec", str(path)]) == 0


def test_a_file_named_as_a_builtin_does_not_shadow_it(tmp_path, monkeypatch, capsys):
    # a spec names a file only by a path separator or a .grp suffix
    monkeypatch.chdir(tmp_path)
    (tmp_path / "S5").write_text("degree 2\n(1,2)\n")
    code, cert = run_json(tmp_path, ["alpha", "--spec", "S5"])
    assert code == 0 and cert["inputs"]["order"] == 120
    capsys.readouterr()
    assert main(["verify", str(tmp_path / "cert.json")]) == 0
    assert capsys.readouterr().out.endswith(": verified\n")
    code, cert = run_json(tmp_path, ["alpha", "--spec", os.path.join(".", "S5")])
    assert code == 0 and cert["inputs"]["order"] == 2


def test_runner_output_modes(tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert main(["stabilizer", "--ground", "4", "--partitions", "{1,2}|{3,4}"]) == 0
    human = capsys.readouterr().out.splitlines()
    assert human[0] == "stabilizer order: 8"
    assert re.fullmatch(r"\[\d+\.\d\ds\]", human[-1])
    assert main(["stabilizer", "--ground", "4", "--partitions", "{1,2}|{3,4}",
                 "--json", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert stdout == out.read_text() + "\n"
    cert = json.loads(stdout)
    assert (cert["command"], cert["seed"]) == ("stabilizer", 1)


@pytest.mark.parametrize("argv", [
    ["sp4", "--q", "5"],
    ["qhat", "--family", "o10", "--q", "8,9", "--c", "3"],
    ["alpha", "--spec", "S4"],
    ["stabilizer", "--ground", "4", "--partitions", "{1,2}|{3,4}"],
    ["base-size", "-a", "4", "-b", "2", "--mode", "exact"],
])
def test_out_holds_exactly_the_json_text(tmp_path, capsys, argv):
    # one encoding serves both: --json prints the --out file's text, and
    # --out alone writes the same bytes
    both, alone = tmp_path / "both.json", tmp_path / "alone.json"
    assert main(argv + ["--json", "--out", str(both)]) == 0
    assert capsys.readouterr().out.encode() == both.read_bytes() + b"\n"
    assert main(argv + ["--out", str(alone)]) == 0
    assert alone.read_bytes() == both.read_bytes()


class _ClosedStdout(io.StringIO):
    """A stdout whose reader has gone, as under `minbase ... | head -1`."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_keeps_the_status_and_the_out_file(tmp_path, monkeypatch):
    out = tmp_path / "cert.json"
    argv = ["stabilizer", "--ground", "4", "--partitions", "{1,2}|{3,4}", "--out", str(out)]
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    assert main(argv + ["--json"]) == 0
    assert json.loads(out.read_text())["result"]["order"] == 8
    forged = tmp_path / "forged.json"
    forged.write_text(out.read_text().replace('"order": 8', '"order": 9'))
    out.unlink()
    assert main(argv) == 0 and out.exists()
    assert main(["verify", str(forged)]) == 1


def test_closed_pipe_ends_without_a_traceback(tmp_path):
    # buffered stdout, as by default: the flush at exit must not fail
    out = tmp_path / "cert.json"
    src = str(Path(minbase.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "minbase.cli", "stabilizer", "--ground", "4",
         "--partitions", "{1,2}|{3,4}", "--json", "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    assert proc.wait() == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()
    assert json.loads(out.read_text())["result"]["order"] == 8


@pytest.mark.parametrize(
    "argv",
    [["sp4", "--q", "5", "--cap", "10"], ["alpha", "--spec", "S4", "--budget", "5"]],
)
def test_subcommands_reject_flags_they_do_not_read(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    listed = capsys.readouterr().out
    for name in ["partition-base", "base-size", "stabilizer", "alpha", "beta", "soluble",
                 "theorem4", "qhat", "sp4", "orth", "verify", "catalog"]:
        assert f"    {name} " in listed, name
    for name, row in cli.COMMANDS.items():
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        shown = capsys.readouterr().out
        for inp in row.inputs:
            if inp.default is not cli.DERIVED:
                assert re.search(rf"(^|\s|\[){re.escape(inp.flag)}(\s|\]|$)", shown), (name, inp)


def test_a_command_imports_no_argparse():
    # argparse's first use cost a cold process 1-4 ms of a 4-9 ms command
    src = str(Path(minbase.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys; from minbase.cli import main; "
            "status = main(['partition-base', '-a', '7', '-b', '5', '--json']); "
            "print('argparse' in sys.modules, status, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "False 0\n"
    assert json.loads(proc.stdout)["result"]["base_size"] == 3


def test_the_package_imports_no_dataclasses():
    # dataclasses, with the inspect it imports, cost a cold process about
    # 10 ms; the package's records are NamedTuples and one __slots__ class
    src = str(Path(minbase.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = "import sys, minbase.cli; print('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_an_out_file_that_cannot_be_written_is_a_refusal(tmp_path, capsys):
    # a missing directory once raised FileNotFoundError: exit 1, "verified fail"
    out = tmp_path / "missing" / "cert.json"
    assert main(["partition-base", "-a", "5", "-b", "3", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("refused: cannot write certificate: [Errno 2]")
    assert main(["qhat", "--family", "g2", "--q", "9", "--json", "--out", str(tmp_path)]) == 2
    assert "refused: cannot write certificate: " in capsys.readouterr().err


# -- the command line against argparse ------------------------------------------

def _add_inputs(parser, inputs):
    for inp in inputs:
        kw = {"action": "store_true"} if inp.kind is bool else {"type": cli._PARSE[inp.kind]}
        if type(inp.within) is tuple:
            kw["choices"] = inp.within
        if inp.flag.startswith("-"):  # argparse requires every positional
            kw["required"] = inp.default is cli.REQUIRED
        if inp.default is not cli.DERIVED:
            parser.add_argument(inp.flag, default=inp.default, help=inp.help, **kw)


def oracle_parser():
    """The argparse parser the command line was once read with."""
    parser = argparse.ArgumentParser(prog="minbase")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name, row in cli.COMMANDS.items():
        _add_inputs(sub.add_parser(name, help=row.help), row.inputs)
    return parser


def _outcome(parser, argv, capsys):
    """The namespace's dict, or the exit code."""
    try:
        return vars(parser.parse_args(argv))
    except SystemExit as exc:
        return exc.code
    finally:
        capsys.readouterr()


def _words(inp, value, joined):
    if inp.kind is bool:
        return [inp.flag]
    if not inp.flag.startswith("-"):
        return [value]
    return [f"{inp.flag}={value}"] if joined else [inp.flag, value]


def _value(inp, rng):
    if type(inp.within) is tuple:
        return rng.choice(inp.within)
    if inp.kind is int:
        return rng.choice(["7", "-3", "0", " 12", "+5", "100000"])
    if inp.kind is list:
        return rng.choice(["{1,2}|{3,4}", "{1,2}|{3,4};{1,3}|{2,4}", ""])
    return rng.choice(["S4", "9..81,5", "cert.json", "-", "a=b", "", "x y"])


def _argv_cases(name, rng):
    """(kind, argv) pairs: valid argv with every input in both forms and
    each optional one given or omitted, then each kind of malformed argv
    this row admits, each built from a valid one."""
    inputs = [inp for inp in cli.COMMANDS[name].inputs if inp.default is not cli.DERIVED]
    required = [inp for inp in inputs if inp.default is cli.REQUIRED]
    valued = [inp for inp in inputs if inp.kind is not bool and inp.flag.startswith("-")]
    cases = []
    for trial in range(2 * len(inputs) + 4):
        # trial 2i gives input i spaced, trial 2i + 1 joined; the rest draw
        given = [(inp, _value(inp, rng), bool(trial % 2) if trial // 2 == i
                  else rng.random() < 0.5)
                 for i, inp in enumerate(inputs)
                 if inp in required or trial // 2 == i or rng.random() < 0.5]
        rng.shuffle(given)
        argv = [name, *(w for inp, value, joined in given for w in _words(inp, value, joined))]
        cases += [("valid", argv), ("help", argv + [rng.choice(["-h", "--help"])])]
        options = [(inp, joined) for inp, _, joined in given if inp.flag.startswith("-")]
        if options:
            inp, joined = rng.choice(options)
            cases.append(("repeated", argv + _words(inp, _value(inp, rng), not joined)))
        cases.append(("unknown option", argv + [rng.choice(["--nope", "-z", "--json-x"])]))
        cases.append(("extra positional", argv + ["extra", "more"]))
        for inp in valued:
            cases.append(("missing value", argv + [inp.flag]))
            cases.append(("missing value", [name, inp.flag, "--json", *argv[1:]]))
            cases.append(("missing value", [name, inp.flag, "-x", *argv[1:]]))
            if inp.kind is int:
                bad = rng.choice(["x", "1.5", "", "3x"])
                cases.append(("bad int", argv + _words(inp, bad, rng.random() < 0.5)))
            if type(inp.within) is tuple:
                bad = rng.choice(["nope", inp.within[0].upper(), ""])
                cases.append(("bad choice", argv + _words(inp, bad, rng.random() < 0.5)))
        for inp in inputs:
            if inp.kind is bool:
                cases.append(("bool with a value", argv + [f"{inp.flag}={rng.choice('10')}"]))
        for inp in required:
            dropped = [w for i, v, j in given if i is not inp for w in _words(i, v, j)]
            cases.append(("missing required", [name, *dropped]))
    return cases


# Forms argparse read and the command line refuses on purpose: a prefix of
# an option, a short option's value attached, the `--` separator, and a
# value that starts with '-' and is not an integer.
REFUSED_ON_PURPOSE = [
    ["alpha", "--spe", "S4"],
    ["orth", "--pair"],
    ["partition-base", "-a5", "-b", "3"],
    ["verify", "--", "cert.json"],
    ["qhat", "--family", "g2", "--q", "-1.5"],
    ["alpha", "--spec", "-x y"],
]


@pytest.mark.parametrize("name", sorted(cli.COMMANDS))
def test_the_command_line_reads_argv_as_argparse_did(name, capsys):
    oracle, parser = oracle_parser(), cli.build_parser()
    outcomes = Counter()
    for kind, argv in _argv_cases(name, random.Random(f"argv/{name}")):
        want = _outcome(oracle, argv, capsys)
        assert _outcome(parser, argv, capsys) == want, (kind, argv)
        outcomes[kind, want if type(want) is int else "parsed"] += 1
    # each kind ends as it should, so no kind passes by both parsers refusing it
    assert {(kind, want) for kind, want in outcomes} <= {
        ("valid", "parsed"), ("repeated", "parsed"), ("help", 0), *(
            (kind, 2) for kind in ["unknown option", "extra positional", "missing value",
                                   "bad int", "bad choice", "bool with a value",
                                   "missing required"])}


@pytest.mark.parametrize("argv", REFUSED_ON_PURPOSE)
def test_the_command_line_refuses_what_argparse_guessed(argv, capsys):
    assert type(_outcome(oracle_parser(), argv, capsys)) is dict
    assert _outcome(cli.build_parser(), argv, capsys) == 2
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: minbase {argv[0]} ") and "\nminbase: error: " in err


@pytest.mark.parametrize("argv, reason", [
    ([], "a command is required"),
    (["nope"], "unknown command 'nope'"),
    (["--json"], "unknown command '--json'"),
    (["partition-base", "-a", "x", "-b", "3"], "-a: invalid int value 'x'"),
    (["stabilizer", "--ground", "4", "--partitions", "{1,2}|{3,4}", "--parity", "odd"],
     "--parity: invalid choice 'odd' (choose from all, even)"),
    (["alpha", "--spec", "S4", "--budget", "5"],
     "unknown option --budget (options are never abbreviated)"),
    (["sp4", "--q", "5", "--json=1"], "--json takes no value"),
    (["sp4", "--q"], "--q expects a value"),
    (["partition-base", "--seed", "2"], "required: -a, -b"),
    (["verify"], "required: certificate"),
    (["verify", "a.json", "b.json"], "unrecognized argument 'b.json'"),
])
def test_malformed_argv_prints_usage_and_the_reason(argv, reason, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.splitlines()
    assert usage.startswith("usage: minbase ")
    assert error == f"minbase: error: {reason}"


# A small run of each command that prints a certificate
ROW_ARGV = {
    "partition-base": ["-a", "5", "-b", "3"],
    "base-size": ["-a", "4", "-b", "2"],
    "stabilizer": ["--ground", "4", "--partitions", "{1,2}|{3,4}"],
    **{command: ["--spec", "S4"] for command in ["alpha", "beta", "soluble", "theorem4"]},
    "qhat": ["--family", "g2", "--q", "9"],
    "sp4": ["--q", "5"],
    "orth": [],
}


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_each_row_names_its_certificate_inputs(tmp_path, command):
    row = cli.COMMANDS[command]
    names = {inp.name for inp in row.inputs if inp.cert}
    if command not in ROW_ARGV:
        assert row.check is None and not names
        return
    code, cert = run_json(tmp_path, [command, *ROW_ARGV[command]])
    assert code == 0
    assert set(cert["inputs"]) == names


@pytest.mark.parametrize("key, value", [
    ("c", "100000"), ("q", "9..10000000"), ("c", "17"), ("c", "0"), ("q", "9..4097"),
    ("q", "1..9"), ("q", ",".join(["9"] * 9)), ("q", "9.."),
])
def test_qhat_caps_refuse_in_emit_and_verify(tmp_path, capsys, key, value):
    # c and every grid value unbounded once ran for minutes
    start = time.perf_counter()
    argv = dict({"--family": "g2", "--q": "9", "--c": "3"}, **{f"--{key}": value})
    assert main(["qhat", *(word for pair in argv.items() for word in pair)]) == 2
    code, cert = run_json(tmp_path, ["qhat", "--family", "g2", "--q", "9"])
    assert code == 0
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(_edited(cert, ("inputs", key), int(value) if key == "c" else value)))
    assert main(["verify", str(path)]) == 2
    assert time.perf_counter() - start < 1
    assert "is outside" in capsys.readouterr().err


def test_qhat_caps_admit_their_bounds(tmp_path):
    code, cert = run_json(tmp_path, ["qhat", "--family", "g2", "--q",
                                     "9,16,25,49,64,81,121,4096", "--c", "16"])
    assert code == 0 and len(cert["result"]["rows"]) == 8
    assert main(["verify", str(tmp_path / "cert.json")]) == 0


def test_verify_refuses_malformed_input(tmp_path):
    assert main(["verify", str(tmp_path / "missing.json")]) == 2
    path = tmp_path / "bad.json"
    for text in ["nope", "[1, 2]", '{"command": "no-such-command"}',
                 '{"command": "alpha", "result": {}, "witnesses": {}}']:
        path.write_text(text)
        assert main(["verify", str(path)]) == 2, text


def test_verify_refuses_a_certificate_nested_too_deeply(tmp_path, capsys):
    # a certificate nested deeper than any command writes is malformed
    # (exit 2), whether reading it or comparing it would exhaust the stack
    # or not: not a traceback that exits 1, nor a verdict
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["verify", str(path)]) == 2
    assert "nests too deeply" in capsys.readouterr().err
    code, cert = run_json(tmp_path, ["alpha", "--spec", "S4"])
    text = json.dumps(dict(cert, result=dict(cert["result"], alpha="deep")))
    for depth in (cli.CERT_DEPTH, 995):
        path.write_text(text.replace('"deep"', "[" * depth + "3" + "]" * depth))
        assert main(["verify", str(path)]) == 2
        assert "nests too deeply" in capsys.readouterr().err


def test_verify_rederives_infinite_beta(tmp_path):
    path = tmp_path / "forged.json"
    forged = {"command": "beta", "seed": 1,
              "inputs": {"spec": "Q8", "order": 8},
              "result": {"beta": "infinity", "frattini_order": 1},
              "witnesses": {"core_orders_by_class": []}}
    path.write_text(json.dumps(forged))
    assert main(["verify", str(path)]) == 1  # Q8 has Frattini order 2
    # S6 has beta 4, so its claimed infinity must be rejected
    forged["inputs"] = {"spec": "S6", "order": 720}
    path.write_text(json.dumps(forged))
    assert main(["verify", str(path)]) == 1


def test_verify_checks_infinite_beta_by_subgroups(tmp_path, capsys):
    # Q8's maximal subgroups are its three cyclic subgroups of order 4, all
    # normal; each class is named again by other words for the same
    # subgroup: the inverse of its generator, or g^2 and then g^-1
    code, cert = run_json(tmp_path, ["beta", "--spec", "Q8"])
    assert code == 0
    classes = cert["witnesses"]["core_orders_by_class"]
    g = [parse_perm(entry["generators"][0], 8) for entry in classes]
    renamed = [
        classes[2],
        dict(classes[1], generators=[format_perm(compose(g[1], g[1])),
                                     format_perm(inverse(g[1]))]),
        dict(classes[0], generators=[format_perm(inverse(g[0]))]),
    ]
    assert [entry["generators"] for entry in renamed] != [e["generators"] for e in classes]
    _assert_verified(tmp_path, capsys, dict(cert, witnesses={"core_orders_by_class": renamed}))
    # a missing class, a repeated class, a wrong core order, a repeated word
    for listed in (classes[:2], classes + classes[:1],
                   [dict(classes[0], core_order=2)] + classes[1:],
                   [dict(classes[0], generators=classes[0]["generators"] * 2)] + classes[1:]):
        _assert_rejected(tmp_path, capsys, dict(cert, witnesses={"core_orders_by_class": listed}))


def test_verify_accepts_infinite_beta_evidence_by_conjugate_subgroups(tmp_path, capsys):
    # wr(2,3) has non-normal maximal subgroups: conjugating every word by
    # one element names another member of each class
    code, cert = run_json(tmp_path, ["beta", "--spec", "wr(2,3)"])
    assert code == 0 and cert["result"]["beta"] == "infinity"
    x = parse_perm("(1,3,5)(2,4,6)", 6)
    classes = cert["witnesses"]["core_orders_by_class"]
    conjugated = [
        dict(entry, generators=[
            format_perm(compose(compose(inverse(x), parse_perm(w, 6)), x))
            for w in entry["generators"]])
        for entry in classes
    ]
    assert conjugated != classes
    _assert_verified(tmp_path, capsys, dict(cert, witnesses={"core_orders_by_class": conjugated}))


def test_alpha_and_beta_raise_on_failed_self_check(monkeypatch):
    # each witness loses its last subgroup, so verify's checker says no on
    # the table the command built, and the command raises instead of printing
    alpha, beta = cli.alpha, cli.beta

    def short_alpha(lat):
        cert = alpha(lat)
        return AlphaCertificate(cert.value - 1, cert.witness[:-1], cert.frattini_order)

    def short_beta(lat):
        res = beta(lat)
        c = res.chosen
        return res._replace(value=res.value - 1, chosen=BaseSizeCertificate(
            c.value - 1, c.subgroup, c.conjugators[:-1], c.core_order))

    monkeypatch.setattr(cli, "alpha", short_alpha)
    monkeypatch.setattr(cli, "beta", short_beta)
    with pytest.raises(CertificationError):
        main(["alpha", "--spec", "S4"])
    with pytest.raises(CertificationError):
        main(["beta", "--spec", "A5"])


@pytest.mark.parametrize("argv", [
    ["partition-base", "-a", "7", "-b", "5"],
    ["base-size", "-a", "12", "-b", "4", "--mode", "upper", "--seed", "1"],
])
def test_emit_computes_the_accepted_familys_stabilizer_once(tmp_path, capsys, monkeypatch,
                                                            argv):
    # verify's checker, run before printing, asks for the stabilizer of the
    # family the construction or search has just accepted: the memo answers,
    # so the backtrack runs once on that family.  verify, with the memo
    # cleared, runs it again and says verified.
    runs = Counter()

    class Counted(partitions._StabContext):
        def __init__(self, family):
            runs[family] += 1
            super().__init__(family)

    monkeypatch.setattr(partitions, "_StabContext", Counted)
    partition_stabilizer.cache_clear()
    code, cert = run_json(tmp_path, argv)
    assert code == 0
    ground = cert["inputs"]["a"] * cert["inputs"]["b"]
    family = tuple(parse_partition(text, ground).canonical()
                   for text in cert["witnesses"]["partitions"])
    assert runs[family] == 1
    assert partition_stabilizer.cache_info().hits == 1
    partition_stabilizer.cache_clear()
    capsys.readouterr()
    assert main(["verify", str(tmp_path / "cert.json")]) == 0
    assert capsys.readouterr().out.endswith(": verified\n")
    assert runs[family] == 2


@pytest.mark.parametrize("command", ["alpha", "beta"])
def test_emit_computes_alpha_and_beta_once(tmp_path, capsys, command):
    # The command's check reads the certificate the command built: one
    # miss and no hit.  verify builds a lattice of its own and misses.
    engine = getattr(invariants, command)
    engine.cache_clear()
    code, cert = run_json(tmp_path, [command, "--spec", "S6"])
    assert code == 0
    assert engine.cache_info()[:2] == (0, 1)  # hits, misses
    engine.cache_clear()
    capsys.readouterr()
    assert main(["verify", str(tmp_path / "cert.json")]) == 0
    assert capsys.readouterr().out.endswith(": verified\n")
    assert engine.cache_info()[:2] == (0, 1)


@pytest.mark.parametrize("spec, classes", [("Q8", 3), ("wr(2,3)", 5)])
def test_infinite_beta_computes_each_maximal_core_once(tmp_path, capsys, monkeypatch,
                                                       spec, classes):
    # beta() computes one core per maximal class to find no class with core
    # Phi(G); the emit-time check reads those orders from its memo, and
    # verify from its own beta() call: one core per class each time
    calls = [0]
    original = lattice.core

    def counted(lat, H):
        calls[0] += 1
        return original(lat, H)

    # every module that could bind the name, cli included
    for module in (lattice, invariants, cli):
        monkeypatch.setattr(module, "core", counted, raising=False)
    invariants.beta.cache_clear()
    code, cert = run_json(tmp_path, ["beta", "--spec", spec])
    assert code == 0 and cert["result"]["beta"] == "infinity"
    listed = cert["witnesses"]["core_orders_by_class"]
    assert len(listed) == classes and calls[0] == classes
    invariants.beta.cache_clear()
    capsys.readouterr()
    assert main(["verify", str(tmp_path / "cert.json")]) == 0
    assert capsys.readouterr().out.endswith(": verified\n")
    assert calls[0] == 2 * classes
    for i, entry in enumerate(listed):
        forged = listed[:i] + [dict(entry, core_order=entry["core_order"] + 1)] + listed[i + 1:]
        _assert_rejected(tmp_path, capsys, dict(cert, witnesses={"core_orders_by_class": forged}))


def _tampered(value):
    """Each single-field edit of a result value, as (label, new value)."""
    if isinstance(value, bool):
        yield "", not value
    elif isinstance(value, (int, float)):
        yield "", value + 1
    elif isinstance(value, str):
        yield "", value + "0"
    elif value is None:
        yield "", 0
    elif isinstance(value, list):
        yield "[+]", value + [value[0] if value else {"delta": 1}]
        for i, item in enumerate(value):
            if isinstance(item, dict):
                edits = (
                    (f".{key}{label}", dict(item, **{key: new}))
                    for key in item
                    for label, new in _tampered(item[key])
                )
            else:
                edits = _tampered(item)
            for label, new in edits:
                yield f"[{i}]{label}", value[:i] + [new] + value[i + 1:]


@pytest.mark.parametrize(
    "argv",
    [["soluble", "--spec", "S4"], ["theorem4", "--spec", "S4"],
     ["theorem4", "--spec", "S5"], ["sp4", "--q", "5"], ["sp4", "--q", "9", "--triple"],
     ["orth", "--n", "7", "--q", "9"], ["orth", "--pair-check"],
     ["qhat", "--family", "g2", "--q", "9..25"],
     ["stabilizer", "--ground", "6", "--partitions", "{1,2,3}|{4,5,6}"],
     ["beta", "--spec", "Q8"]],
)
def test_verify_rejects_every_forged_result_field(tmp_path, capsys, argv):
    # every command here but stabilizer is verified by re-running it, so an
    # edit of any result or witness field, or an input it never reads, is
    # rejected.  stabilizer's generators are evidence, not its claim: the
    # one edit that keeps the claim true, its first generator listed again
    # at the end, verifies.
    code, cert = run_json(tmp_path, argv)
    assert code == 0
    assert main(["verify", str(tmp_path / "cert.json")]) == 0
    path = tmp_path / "forged.json"
    forged = 0
    for part in ("result", "witnesses"):
        for field, value in cert[part].items():
            for label, new in _tampered(value):
                path.write_text(json.dumps(dict(cert, **{part: dict(cert[part], **{field: new})})))
                capsys.readouterr()
                if (argv[0], field + label) == ("stabilizer", "generators[+]"):
                    assert main(["verify", str(path)]) == 0
                    continue
                assert main(["verify", str(path)]) == 1, field + label
                assert "REJECTED" in capsys.readouterr().out, field + label
                forged += 1
    assert forged >= len(cert["result"]) + len(cert["witnesses"])
    _assert_rejected(tmp_path, capsys, dict(cert, inputs=dict(cert["inputs"], extra=1)))


def _assert_verified(tmp_path, capsys, cert):
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(cert))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 0
    assert "verified" in capsys.readouterr().out


def _assert_rejected(tmp_path, capsys, cert):
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(cert))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    assert "REJECTED" in capsys.readouterr().out


@pytest.mark.parametrize("argv, part, edit", [
    (["stabilizer", "--ground", "6", "--partitions", "{1,2,3}|{4,5,6}"],
     "witnesses", {"generators": ["(1,4)"]}),
    (["beta", "--spec", "Q8"], "witnesses", {"core_orders_by_class": []}),
    (["partition-base", "-a", "5", "-b", "3"], "result", {"claimed_value": 7}),
])
def test_verify_rejects_named_forgeries(tmp_path, capsys, argv, part, edit):
    code, cert = run_json(tmp_path, argv)
    assert code == 0
    _assert_rejected(tmp_path, capsys, dict(cert, **{part: dict(cert[part], **edit)}))


_PAIR6 = ["stabilizer", "--ground", "6", "--partitions", "{1,2,3}|{4,5,6};{1,4}|{2,5}|{3,6}"]
_WR34_EVEN = ["stabilizer", "--ground", "12", "--partitions",
              "{1,2,3}|{4,5,6}|{7,8,9}|{10,11,12}", "--parity", "even"]


def _with_generators(cert, generators):
    return dict(cert, witnesses={"generators": generators})


@pytest.mark.parametrize("argv", [_PAIR6, _WR34_EVEN])
def test_verify_checks_the_stabilizer_claim_not_the_generator_list(tmp_path, capsys, argv):
    # Any list of stabilizing generators (even ones, under parity even)
    # that generates a group of the claimed order verifies: the list in
    # another order, or with a redundant product of two generators added.
    code, cert = run_json(tmp_path, argv)
    assert code == 0
    listed = cert["witnesses"]["generators"]
    product = format_perm(compose(*(parse_perm(w, cert["inputs"]["ground"]) for w in listed[:2])))
    _assert_verified(tmp_path, capsys, _with_generators(cert, listed[::-1]))
    _assert_verified(tmp_path, capsys, _with_generators(cert, listed + [product]))
    _assert_verified(tmp_path, capsys, _with_generators(cert, [product] + listed + ["()"]))
    # a list missing a generator it needs (each of the pair's three is),
    # a generator that moves a block of a partition onto no block, and an
    # order off by one are REJECTED
    ground, order = cert["inputs"]["ground"], cert["result"]["order"]
    gens = [parse_perm(w, ground) for w in listed]
    needed = [i for i in range(len(gens))
              if PermGroup(gens[:i] + gens[i + 1:], ground).order < order]
    assert needed and (argv != _PAIR6 or needed == [0, 1, 2])
    for i in needed:
        _assert_rejected(tmp_path, capsys, _with_generators(cert, listed[:i] + listed[i + 1:]))
    _assert_rejected(tmp_path, capsys, _with_generators(cert, listed + ["(1,4)(2,3)"]))
    _assert_rejected(tmp_path, capsys, _with_generators(cert, ["(1,4)(2,3)"] + listed[1:]))
    # conjugated by (3,4), the list generates a group of the claimed order
    # that is no stabilizer of the family
    c = parse_perm("(3,4)", ground)
    moved = [compose(compose(c, g), c) for g in gens]
    keys = [parse_partition(p, ground).canonical() for p in cert["inputs"]["partitions"]]
    assert any(apply_to_canonical(g, key) != key for g in moved for key in keys)
    _assert_rejected(tmp_path, capsys, _with_generators(cert, [format_perm(g) for g in moved]))
    for forged in (order - 1, order + 1):
        _assert_rejected(tmp_path, capsys, dict(cert, result={"order": forged}))


def test_verify_rejects_an_odd_generator_under_parity_even(tmp_path, capsys):
    # (1,2) stabilizes the partition but is odd; with it the list generates
    # the whole of S3 wr S4, twice the claimed order, so the claimed order
    # doubled is REJECTED too
    code, cert = run_json(tmp_path, _WR34_EVEN)
    assert code == 0
    odd = cert["witnesses"]["generators"] + ["(1,2)"]
    _assert_rejected(tmp_path, capsys, _with_generators(cert, odd))
    _assert_rejected(tmp_path, capsys, dict(
        _with_generators(cert, odd), result={"order": 2 * cert["result"]["order"]}))
    # S3^4 with the even block permutations: a stabilizing subgroup of the
    # claimed index 2, but holding odd elements
    other = [f"({3 * i + 1},{3 * i + 2})" for i in range(4)]
    other += [f"({3 * i + 1},{3 * i + 2},{3 * i + 3})" for i in range(4)]
    other += ["(1,4,7)(2,5,8)(3,6,9)", "(4,7,10)(5,8,11)(6,9,12)"]
    assert PermGroup([parse_perm(w, 12) for w in other]).order == cert["result"]["order"]
    _assert_rejected(tmp_path, capsys, _with_generators(cert, other))
    # under parity all, the same list is the whole stabilizer
    code, cert = run_json(tmp_path, _WR34_EVEN[:-2])
    assert code == 0 and cert["result"]["order"] == 31104
    _assert_verified(tmp_path, capsys, _with_generators(cert, odd))


@pytest.mark.parametrize("argv, result, witnesses", [
    (["alpha", "--spec", "S4"], {"alpha": 1, "frattini_order": 1},
     {"maximal_subgroups": [[]], "frattini_generators": []}),
    (["beta", "--spec", "S5"], {"beta": 1},
     {"subgroup_generators": [], "conjugator_words": [], "core_order": 1}),
])
def test_verify_rejects_a_non_maximal_witness(tmp_path, capsys, argv, result, witnesses):
    # the trivial subgroup stands in for a maximal one
    code, cert = run_json(tmp_path, argv)
    assert code == 0
    _assert_rejected(tmp_path, capsys, dict(
        cert, result=dict(cert["result"], **result),
        witnesses=dict(cert["witnesses"], **witnesses)))


@pytest.mark.parametrize("argv", [
    *(["alpha", "--spec", spec] for spec in ["C0", "wr(0,3)", "wr(2,0)", "C2xC0"]),
    ["alpha", "--spec", "missing.grp"],
    ["alpha", "--spec", "bare.grp"],
    *([command, "--spec", "S4", "--cap", "0"]
      for command in ["alpha", "beta", "soluble", "theorem4"]),
])
def test_malformed_input_is_refused(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bare.grp").write_text("degree\n(1,2)\n")
    assert main(argv) == 2


@pytest.mark.parametrize("a, b", [(6, 3), (7, 3), (7, 4), (7, 5)])
def test_alt_two_bases_share_one_cell(tmp_path, a, b):
    # The seeded search certifies these alt 2-bases, and each shares one
    # 2-point cell: its transposition is odd, so the alt stabilizer stays
    # trivial.  Cell-free partners were not found here, so the search keeps
    # drawing partners that may share a cell.
    code, cert = run_json(tmp_path, ["partition-base", "-a", str(a), "-b", str(b),
                                     "--ambient", "alt"])
    assert code == 0 and cert["result"]["base_size"] == 2
    parts = [parse_partition(s, a * b) for s in cert["witnesses"]["partitions"]]
    cells = Counter(zip(*(p.block_of() for p in parts)))
    assert [k for k in cells.values() if k > 1] == [2]
    assert partition_stabilizer(parts).order == 2
    assert main(["verify", str(tmp_path / "cert.json")]) == 0


@pytest.mark.parametrize("n", [8, 10, 12, 3, -1, 5, 129, 100001])
def test_orth_refuses_n_without_odd_construction(tmp_path, capsys, n):
    # the construction needs odd n >= 7, and so does the pair check, whose
    # (7,3) budget comes second; the command table refuses n outside
    # 7..127 before either (n = 100001 once ran past 20 s), and verify
    # refuses the rest too
    start = time.perf_counter()
    reason = (f"n must be odd and at least 7 (got {n})" if n in range(7, 128)
              else f"input n = {n} is outside range(7, 128)")
    for pair_check in ([], ["--pair-check"]):
        capsys.readouterr()
        assert main(["orth", "--n", str(n), "--q", "3"] + pair_check) == 2
        assert capsys.readouterr().err == f"refused: {reason}\n"
    code, cert = run_json(tmp_path, ["orth", "--n", "7", "--q", "3"])
    assert code == 0
    path = tmp_path / "even.json"
    path.write_text(json.dumps(dict(cert, inputs=dict(cert["inputs"], n=n))))
    assert main(["verify", str(path)]) == 2
    assert time.perf_counter() - start < 1


def test_verify_rejects_forged_orth_witness(tmp_path, capsys):
    code, cert = run_json(tmp_path, ["orth", "--n", "7", "--q", "9"])
    assert code == 0
    # W has the dimension of U, so only the witness itself gives it away
    _assert_rejected(tmp_path, capsys, dict(cert, witnesses=dict(
        cert["witnesses"], U=cert["witnesses"]["W"])))


def test_verify_rejects_consistently_shrunk_qhat_terms(tmp_path, capsys):
    code, cert = run_json(tmp_path, ["qhat", "--family", "g2", "--q", "9..81"])
    assert code == 0
    c = cert["inputs"]["c"]
    rows = []
    for row in cert["result"]["rows"]:
        terms = [dict(t, u=str(Fraction(t["u"]) / 10)) for t in row["terms"]]
        value = sum(t["multiplicity"] * Fraction(t["u"]) ** c / Fraction(t["v"]) ** (c - 1)
                    for t in terms)
        rows.append(dict(row, terms=terms, value=str(value),
                         value_float=float(value), certified=value < 1))
    result = {"all_certified": all(r["certified"] for r in rows), "rows": rows}
    _assert_rejected(tmp_path, capsys, dict(cert, result=result))


def test_sp4_pair_verify_checks_survivor_list(tmp_path, capsys):
    code, cert = run_json(tmp_path, ["sp4", "--q", "5"])
    assert code == 0
    assert cert["result"]["candidates"] == 2 * (25 - 1) * (25 - 5) * 4 == 3840
    survivors = cert["witnesses"]["survivors"]
    # cut down to one survivor, with a matching count
    _assert_rejected(tmp_path, capsys, dict(
        cert, result=dict(cert["result"], survivor_count=1),
        witnesses={"survivors": survivors[:1]}))
    # a repeated survivor in place of another
    _assert_rejected(tmp_path, capsys, dict(
        cert, witnesses={"survivors": survivors[:-1] + survivors[:1]}))
    # an entry outside 0..q-1
    bad = [[x - 5 if x else x for x in row] for row in survivors[0]]
    _assert_rejected(tmp_path, capsys, dict(
        cert, witnesses={"survivors": [bad] + survivors[1:]}))
    # a witness key the command never emits
    _assert_rejected(tmp_path, capsys, dict(
        cert, witnesses=dict(cert["witnesses"], extra=[])))
    # q = 3 is outside the check's domain: a refusal
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(dict(cert, inputs={"q": 3, "triple": False})))
    assert main(["verify", str(path)]) == 2


def _base_size_42(tmp_path):
    code, cert = run_json(tmp_path, ["base-size", "-a", "4", "-b", "2", "--mode", "exact"])
    assert code == 0
    return cert


def _non_uniform_forgery(cert):
    """Two partitions of 8 points with trivial joint stabilizer, but with
    blocks of sizes 1 to 3 instead of four pairs."""
    return dict(cert, result=dict(cert["result"], base_size=2), witnesses={
        "partitions": ["{1}|{2,3}|{4,5,6}|{7,8}", "{1,2,4}|{3,5,7}|{6}|{8}"]})


def test_verify_rejects_non_uniform_or_repeated_partitions(tmp_path, capsys):
    cert = _base_size_42(tmp_path)
    _assert_rejected(tmp_path, capsys, _non_uniform_forgery(cert))
    parts = cert["witnesses"]["partitions"]
    _assert_rejected(tmp_path, capsys, dict(
        cert, result=dict(cert["result"], base_size=4),
        witnesses={"partitions": parts + parts[:1]}))


def _padded(cert, size):
    """The certificate claiming an exact base size of `size` in mode exact,
    its witness padded with rotations of its first partition: a base
    still, but not a least one."""
    n = cert["inputs"]["a"] * cert["inputs"]["b"]
    parts = list(cert["witnesses"]["partitions"])
    seen = {parse_partition(p, n).canonical() for p in parts}
    first = parse_partition(parts[0], n)
    for shift in range(1, n):
        rotated = SetPartition.from_blocks(
            n, [[(x + shift) % n for x in blk] for blk in first.blocks])
        if len(parts) < size and rotated.canonical() not in seen:
            seen.add(rotated.canonical())
            parts.append(format_partition(rotated))
    return dict(cert, inputs=dict(cert["inputs"], mode="exact"),
                result=dict(cert["result"], base_size=size, exact=True),
                witnesses={"partitions": parts})


@pytest.mark.parametrize("argv, size", [
    (["-a", "4", "-b", "2", "--mode", "exact"], 4),
    (["-a", "3", "-b", "2", "--mode", "exact"], 5),
    (["-a", "3", "-b", "2", "--mode", "exact", "--ambient", "alt"], 4),
    # an exact claim above 2 is least only by the lemma, which proves 3
    # least here and no larger size
    (["-a", "5", "-b", "3", "--mode", "upper"], 4),
    (["-a", "10", "-b", "2", "--mode", "exact", "--ambient", "alt"], 4),
    (["-a", "7", "-b", "6", "--mode", "exact", "--ambient", "alt"], 4),
])
def test_verify_rejects_a_padded_exact_base_size(tmp_path, capsys, argv, size):
    code, cert = run_json(tmp_path, ["base-size", *argv])
    assert code == 0
    assert main(["verify", str(tmp_path / "cert.json")]) == 0
    _assert_rejected(tmp_path, capsys, _padded(cert, size))


@pytest.mark.parametrize("argv", [
    ["-a", "3", "-b", "2"],
    ["-a", "3", "-b", "2", "--ambient", "alt"],
    ["-a", "4", "-b", "2"],
    ["-a", "4", "-b", "3"],
    ["-a", "8", "-b", "3", "--ambient", "alt"],
    # ab > 12 with b = 2 or a - b <= 2: the no-pair lemma shows 3 least
    *(["-a", str(a), "-b", str(b)] for a, b in [(7, 2), (20, 2), (4, 4), (6, 4), (64, 2)]),
    # and under alt with b = 2, a = b or a = b + 1
    *(["-a", str(a), "-b", str(b), "--ambient", "alt"]
      for a, b in [(4, 4), (5, 5), (10, 2), (7, 6)]),
])
def test_verify_accepts_genuine_exact_base_sizes(tmp_path, argv):
    code, cert = run_json(tmp_path, ["base-size", *argv, "--mode", "exact"])
    assert code == 0 and cert["result"]["exact"] is True
    assert main(["verify", str(tmp_path / "cert.json")]) == 0


def test_verify_rejects_a_partition_base_above_the_claimed_value(tmp_path, capsys):
    # four partitions are still a base, but not of the paper's size 3
    code, cert = run_json(tmp_path, ["partition-base", "-a", "5", "-b", "3"])
    assert code == 0
    _assert_rejected(tmp_path, capsys, dict(
        cert, result=dict(cert["result"], base_size=4),
        witnesses=_padded(cert, 4)["witnesses"]))


def test_verify_accepts_an_upper_base_the_lemma_shows_exact(tmp_path):
    # sym (5,3): a - b = 2, so no pair is a base and 3 is least
    code, cert = run_json(tmp_path, ["base-size", "-a", "5", "-b", "3", "--mode", "upper"])
    assert code == 0 and cert["result"]["base_size"] == 3
    path = tmp_path / "exact.json"
    path.write_text(json.dumps(_padded(cert, 3)))
    assert main(["verify", str(path)]) == 0


# Values of every JSON type, out of range or unbounded (a qhat grid up to
# 10^7), written over each field by the field-edit test
FOREIGN = ("x", None, [], {}, -1, 0, 10**12, 2.5, True, [1], "9..10000000", 129)


def _field_edits(node, path):
    """(path, new value) for each single-field edit at or below node: the
    node replaced by each FOREIGN value other than itself, a bool flipped,
    an int + 1 or made a float, a 0 or 1 made a bool, a non-empty list's
    last item dropped, a dict given a key more."""
    for new in FOREIGN:
        if json.dumps(new) != json.dumps(node):
            yield path, new
    if isinstance(node, bool):
        yield path, not node
    elif isinstance(node, int):
        yield path, node + 1
        yield path, float(node)
        if node in (0, 1):
            yield path, bool(node)
    elif isinstance(node, (dict, list)):
        if isinstance(node, list) and node:
            yield path, node[:-1]
        if isinstance(node, dict):
            yield path, dict(node, unread=0)
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _field_edits(child, path + (key,))


def _edited(cert, path, new):
    cert = copy.deepcopy(cert)
    node = cert
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = new
    return cert


@pytest.mark.parametrize("argv", [
    ["partition-base", "-a", "5", "-b", "3"],
    ["partition-base", "-a", "8", "-b", "3"],
    ["base-size", "-a", "4", "-b", "2", "--mode", "exact"],
    ["base-size", "-a", "3", "-b", "2", "--mode", "exact", "--ambient", "alt"],
    ["base-size", "-a", "8", "-b", "3", "--mode", "exact", "--ambient", "alt"],
    ["base-size", "-a", "5", "-b", "3", "--mode", "upper"],
    ["base-size", "-a", "8", "-b", "3", "--mode", "upper"],
    ["alpha", "--spec", "S4"],
    ["alpha", "--spec", "A5"],
    ["beta", "--spec", "S4"],
    ["beta", "--spec", "A5"],
    # the re-run commands
    ["stabilizer", "--ground", "6", "--partitions", "{1,2,3}|{4,5,6};{1,4}|{2,5}|{3,6}"],
    ["sp4", "--q", "5"],
    ["sp4", "--q", "9", "--triple"],
    ["orth", "--n", "7", "--q", "3"],
    ["orth", "--n", "7", "--q", "3", "--pair-check"],
    ["qhat", "--family", "sp4", "--q", "64..81"],
    ["soluble", "--spec", "S4"],
    ["theorem4", "--spec", "S4"],
    ["beta", "--spec", "Q8"],
])
def test_verify_catches_every_single_field_edit(tmp_path, capsys, argv):
    # Each edit of an input, result or witness field is REJECTED or refused
    # (exit 2).  The command and seed are not claims.  No edit is let
    # through: the one that keeps its claim true, an upper-mode 2-base
    # flipped to exact (a 2-base is always least), is rejected because
    # exact must say whether the mode was exact.
    code, cert = run_json(tmp_path, argv)
    assert code == 0
    path = tmp_path / "edited.json"
    edits = [edit for part in ("inputs", "result", "witnesses")
             for edit in _field_edits(cert[part], (part,))]
    assert len(edits) >= 4
    for where, new in edits:
        path.write_text(json.dumps(_edited(cert, where, new)))
        capsys.readouterr()
        code = main(["verify", str(path)])
        assert code == 2 or (code == 1 and "REJECTED" in capsys.readouterr().out), where


@pytest.mark.parametrize("key", ["subgroup_generators", "conjugator_words"])
@pytest.mark.parametrize("word", ["(1,2)", "(1,2"])
def test_verify_rejects_a_beta_word_naming_no_element(tmp_path, capsys, key, word):
    # The string edits the field-edit test above leaves out: a word naming
    # a permutation outside A5 (the odd (1,2)) or no permutation at all is
    # a wrong witness, REJECTED, in either witness list of a finite beta.
    code, cert = run_json(tmp_path, ["beta", "--spec", "A5"])
    assert code == 0
    for i in range(len(cert["witnesses"][key])):
        _assert_rejected(tmp_path, capsys, _edited(cert, ("witnesses", key, i), word))


@pytest.mark.parametrize("spec, field, key", [
    ("S4", "alpha", "maximal_subgroups"), ("S5", "beta", "conjugator_words")])
def test_verify_rejects_a_repeated_alpha_or_beta_witness(tmp_path, capsys, spec, field, key):
    code, cert = run_json(tmp_path, [field, "--spec", spec])
    assert code == 0
    assert cert["result"][field] == 3
    listed = cert["witnesses"][key]
    _assert_rejected(tmp_path, capsys, dict(
        cert, result=dict(cert["result"], **{field: 4}),
        witnesses=dict(cert["witnesses"], **{key: listed + listed[:1]})))


def test_verify_under_python_O(tmp_path):
    # -O strips assert statements: verify must still accept the genuine
    # certificate and reject the forgery
    cert = _base_size_42(tmp_path)
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(_non_uniform_forgery(cert)))
    src = str(Path(minbase.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for path, expected in ((tmp_path / "cert.json", 0), (forged, 1)):
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "minbase.cli", "verify", str(path)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == expected, proc.stdout + proc.stderr


# Each forgery's witness passes every witness check -- maximal subgroups,
# irredundant, meeting in the claimed subgroup -- so only the re-derived
# alpha, beta or |Phi(G)| tells it from a genuine certificate.
@pytest.mark.parametrize("argv, result, witnesses", [
    # S4's point stabilizer S3 claimed as its Frattini subgroup
    (["alpha", "--spec", "S4"], {"alpha": 1, "frattini_order": 6},
     {"maximal_subgroups": [["(3,4)", "(2,3)"]],
      "frattini_generators": ["(3,4)", "(2,3)"]}),
    # a D8 whose two conjugates meet in the Klein four-group; beta(S4) = 3
    (["beta", "--spec", "S4"], {"beta": 2, "frattini_order": 4},
     {"subgroup_generators": ["(3,4)", "(1,3)(2,4)"], "conjugator_words": ["(2,3)"],
      "core_order": 4}),
    # three maximal subgroups of A5 meeting irredundantly in 1; alpha(A5) = 2
    (["alpha", "--spec", "A5"], {"alpha": 3},
     {"maximal_subgroups": [["(3,4,5)", "(1,2)(4,5)"], ["(1,2,3)", "(1,2)(4,5)"],
                            ["(2,3)(4,5)", "(1,2)(3,4)"]]}),
])
def test_verify_rejects_a_value_below_or_above_the_least(tmp_path, capsys, argv, result,
                                                         witnesses):
    code, cert = run_json(tmp_path, argv)
    assert code == 0
    _assert_rejected(tmp_path, capsys, dict(
        cert, result=dict(cert["result"], **result),
        witnesses=dict(cert["witnesses"], **witnesses)))


def test_verify_rejects_a_padded_a5_beta(tmp_path, capsys):
    # three conjugates of A4 (point stabilizers) meet irredundantly in 1, so
    # b(A5, A4) = 3; but beta(A5) = 2, through D10 or S3
    code, cert = run_json(tmp_path, ["beta", "--spec", "A5"])
    assert code == 0 and cert["result"]["beta"] == 2
    lat = Lattice(GroupTable(group_from_spec("A5")))
    table = lat.table
    a4 = next(rec for rec in lat.maximal_subgroups() if rec.order == 12)
    others = [(conj, g) for conj, g in table.conjugates(a4.elements).items()
              if conj != a4.elements][:2]
    sets = [a4.elements] + [conj for conj, _ in others]
    assert len(frozenset.intersection(*sets)) == 1
    assert all(len(x & y) == 3 for i, x in enumerate(sets) for y in sets[i + 1:])
    _assert_rejected(tmp_path, capsys, dict(
        cert, result=dict(cert["result"], beta=3),
        witnesses={"subgroup_generators": [table.word_of(g) for g in a4.generators],
                   "conjugator_words": [table.word_of(g) for _, g in others],
                   "core_order": 1}))


def test_verify_refuses_an_alpha_of_the_trivial_group(tmp_path):
    # an empty witness list meets in the whole group, which is Phi(1); but
    # the trivial group has no maximal subgroups and no alpha
    path = tmp_path / "forged.json"
    path.write_text(json.dumps({
        "command": "alpha", "seed": 1, "inputs": {"spec": "C1", "order": 1},
        "result": {"alpha": 0, "frattini_order": 1, "exhaustive": True},
        "witnesses": {"maximal_subgroups": [], "frattini_generators": []}}))
    assert main(["verify", str(path)]) == 2


@pytest.mark.parametrize("command", ["alpha", "soluble", "theorem4"])
def test_trivial_group_is_refused(capsys, command):
    # C1 has no maximal subgroups, so no intersection number
    assert main([command, "--spec", "C1"]) == 2
    assert capsys.readouterr().err == "refused: the trivial group has no maximal subgroups\n"


@pytest.mark.parametrize("command", ["alpha", "beta"])
@pytest.mark.parametrize("spec", BUILTIN_NAMES)
def test_genuine_alpha_and_beta_certificates_verify(tmp_path, command, spec):
    code, _ = run_json(tmp_path, [command, "--spec", spec])
    assert code == 0
    assert main(["verify", str(tmp_path / "cert.json")]) == 0


@pytest.mark.parametrize("argv, order", [
    (["alpha", "--spec", "S100"], math.factorial(100)),
    (["beta", "--spec", "S60xC2"], 2 * math.factorial(60)),
])
def test_over_cap_spec_is_refused_before_its_chain(capsys, argv, order):
    # building S100's stabilizer chain alone takes seconds
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == f"refused: group order {order} exceeds cap 1000\n"


@pytest.mark.parametrize("spec", [
    *BUILTIN_NAMES, "S1", "A1", "A2", "A3", "S7", "A7", "C1", "C9", "D4", "D14",
    "Q12", "wr(1,3)", "wr(3,1)", "wr(3,2)", "S3xS3", "A4xC2xC2",
    "S0", "C0", "D3", "D6x", "Q6", "Q4", "F30", "wr(0,3)", "wr(2,0)", "X5", "S4xC0",
    "L28", "PGL27xC2", "F20xF21", "D4xQ8", "A0",
])
def test_spec_order_is_the_order_built(spec):
    # None exactly where group_from_spec refuses the descriptor
    try:
        order = group_from_spec(spec).order
    except ValueError:
        order = None
    assert spec_order(spec) == order


# The cycle strings that once gave the Frobenius groups and L2(7), before
# they were built from their maps of the line over F_p
LINE_GROUP_GENERATORS = {
    "F20": (5, ["(1,2,3,4,5)", "(2,3,5,4)"]),
    "F21": (7, ["(1,2,3,4,5,6,7)", "(2,3,5)(4,7,6)"]),
    "F42": (7, ["(1,2,3,4,5,6,7)", "(2,4,3,7,5,6)"]),
    "L27": (8, ["(1,2,3,4,5,6,7)", "(1,8)(2,7)(3,4)(5,6)"]),
    "PGL27": (8, ["(1,2,3,4,5,6,7)", "(1,8)(2,7)(3,4)(5,6)", "(2,4,3,7,5,6)"]),
}


@pytest.mark.parametrize("name", sorted(LINE_GROUP_GENERATORS))
def test_line_groups_keep_their_cycle_string_generators(name):
    degree, words = LINE_GROUP_GENERATORS[name]
    G = group_from_spec(name)
    assert G.degree == degree
    assert G.generators == [parse_perm(word, degree) for word in words]
