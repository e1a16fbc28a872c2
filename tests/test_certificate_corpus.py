"""Stored certificates: every one verifies, and every deterministic command
re-emits its certificate byte for byte."""

import json
from pathlib import Path

import pytest

from minbase.cli import main

CORPUS = Path(__file__).parent / "data" / "certs"

# The command that emitted each stored certificate.  None marks alpha and
# beta, whose witness words follow the lattice walk, and certificates of
# older engines: they are only verified.  beta-wr-2-3-older-words.json was emitted before the lattice
# was walked one conjugacy class at a time, and names its maximal classes
# by other members and words than the current walk does.
ARGV = {
    "partition-base-7-5.json": ["partition-base", "-a", "7", "-b", "5"],
    "partition-base-7-6.json": ["partition-base", "-a", "7", "-b", "6"],
    "partition-base-7-7.json": ["partition-base", "-a", "7", "-b", "7"],
    "partition-base-6-4.json": ["partition-base", "-a", "6", "-b", "4"],
    **{f"orth-{n}-{q}.json": ["orth", "--n", str(n), "--q", str(q)]
       for n in (7, 9, 11) for q in (3, 9)},
    "orth-7-3-pair-check.json": ["orth", "--n", "7", "--q", "3", "--pair-check"],
    "sp4-5.json": ["sp4", "--q", "5"],
    "sp4-9-triple.json": ["sp4", "--q", "9", "--triple"],
    "stabilizer.json": ["stabilizer", "--ground", "6",
                        "--partitions", "{1,2,3}|{4,5,6};{1,4}|{2,5}|{3,6}"],
    # large cells, where the first path's branch cells pick each
    # generator: the rows and columns of the 4x4 grid, and S3 wr S4 meet
    # A12
    "stabilizer-grid-4.json": [
        "stabilizer", "--ground", "16", "--partitions",
        "{1,2,3,4}|{5,6,7,8}|{9,10,11,12}|{13,14,15,16};"
        "{1,5,9,13}|{2,6,10,14}|{3,7,11,15}|{4,8,12,16}"],
    # a family whose backtrack meets smallest cells of equal size, so a
    # branch rule breaking the tie other than by the least point (by color
    # label, say) finds other generators
    "stabilizer-first-path-21.json": [
        "stabilizer", "--ground", "21", "--partitions",
        "{1,2,3}|{4,5,6}|{7,8,9}|{10,11,12}|{13,14,15}|{16,17,18}|{19,20,21};"
        "{1,16,17}|{2,6,21}|{3,5,15}|{4,13,18}|{7,11,20}|{8,10,19}|{9,12,14}"],
    "stabilizer-wr-3-4-even.json": [
        "stabilizer", "--ground", "12", "--partitions",
        "{1,2,3}|{4,5,6}|{7,8,9}|{10,11,12}", "--parity", "even"],
    # seeded searches whose stabilizer backtracks stop almost every target
    # at its first differing refinement round, and the rows and columns of
    # the 6x6 grid, where every target has an image and a wrong stop would
    # change the generators
    "base-size-12-4-upper.json": ["base-size", "-a", "12", "-b", "4",
                                  "--mode", "upper", "--seed", "1"],
    "base-size-9-4-exact-alt.json": ["base-size", "-a", "9", "-b", "4", "--mode",
                                     "exact", "--ambient", "alt", "--seed", "1"],
    # the 2-bases of the two largest cases that uniform shuffles rejected
    # on a shared cell until the budget ran out
    "partition-base-16-8.json": ["partition-base", "-a", "16", "-b", "8"],
    "partition-base-8-6-alt.json": ["partition-base", "-a", "8", "-b", "6",
                                    "--ambient", "alt"],
    # an alt 3-base that only the no-pair lemma proves least
    "base-size-10-2-exact-alt.json": ["base-size", "-a", "10", "-b", "2", "--mode",
                                      "exact", "--ambient", "alt", "--seed", "1"],
    "stabilizer-grid-6.json": [
        "stabilizer", "--ground", "36", "--partitions",
        "|".join("{%s}" % ",".join(str(6 * i + j + 1) for j in range(6)) for i in range(6))
        + ";"
        + "|".join("{%s}" % ",".join(str(6 * i + j + 1) for i in range(6)) for j in range(6))],
    "qhat-g2.json": ["qhat", "--family", "g2", "--q", "9..81"],
    "soluble-S4.json": ["soluble", "--spec", "S4"],
    "theorem4-S4.json": ["theorem4", "--spec", "S4"],
    # groups built from their maps of the line over F_p
    "soluble-F20xC2.json": ["soluble", "--spec", "F20xC2"],
    "theorem4-F42.json": ["theorem4", "--spec", "F42"],
    "beta-PGL27.json": None,
    "alpha-A5.json": None,
    "beta-A5.json": None,
    "beta-Q8.json": None,
    "beta-wr-2-3.json": None,
    "beta-wr-2-3-older-words.json": None,
    # 2-bases the seeded search found when it dealt uniform shuffles,
    # before it drew each partner by its intersection matrix
    "base-size-12-4-upper-older-draws.json": None,
    "base-size-9-4-exact-alt-older-draws.json": None,
    # stabilizer certificates emitted by older engines: verify checks the
    # order and that the generators listed generate the stabilizer, not
    # that they are the ones the engine lists now.  The first four were
    # emitted before the backtrack grew each level's orbit under the
    # generators found below it; the 21-point one before the branch rule
    # broke ties by the least point.
    **{f"{name}-older-generators.json": None
       for name in ("stabilizer", "stabilizer-grid-4", "stabilizer-grid-6",
                    "stabilizer-wr-3-4-even", "stabilizer-first-path-21")},
}


def test_every_stored_certificate_is_listed():
    assert sorted(path.name for path in CORPUS.glob("*.json")) == sorted(ARGV)


@pytest.mark.parametrize("name", sorted(ARGV))
def test_stored_certificate_verifies(name, capsys):
    assert main(["verify", str(CORPUS / name)]) == 0
    assert capsys.readouterr().out.endswith(": verified\n")


@pytest.mark.parametrize("name", sorted(name for name, argv in ARGV.items() if argv))
def test_deterministic_command_re_emits_its_certificate(tmp_path, name):
    out = tmp_path / name
    assert main(ARGV[name] + ["--json", "--out", str(out)]) == 0
    assert out.read_bytes() == (CORPUS / name).read_bytes()


@pytest.mark.parametrize("name", sorted(ARGV))
def test_stored_certificate_top_level_keys_and_seed(tmp_path, capsys, name):
    # A certificate holds exactly command, seed, inputs, result and
    # witnesses.  A key more is a forged claim, REJECTED (exit 1); a key
    # missing, or a seed that is no JSON integer, is malformed, refused
    # (exit 2).  Any integer seed passes: the seed is not a claim.
    cert = json.loads((CORPUS / name).read_text())
    assert sorted(cert) == ["command", "inputs", "result", "seed", "witnesses"]
    edits = [(dict(cert, runtime="x"), 1), (dict(cert, seed=2), 0)]
    edits += [(dict(cert, seed=seed), 2) for seed in ("one", "1", True, 1.0, None)]
    edits += [({k: v for k, v in cert.items() if k != key}, 2) for key in cert]
    path = tmp_path / name
    for edited, code in edits:
        path.write_text(json.dumps(edited))
        capsys.readouterr()
        assert main(["verify", str(path)]) == code, edited
        if code == 1:
            assert capsys.readouterr().out.endswith(": REJECTED\n")
