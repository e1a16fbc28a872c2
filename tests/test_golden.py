"""Every distinct benchmark command at workload seed 1, re-run in-process
against tests/data/golden.json: its exit code, the sha256 of its --json
stdout, and the exit code and sha256 of the verify report on the
certificate it wrote.  A speed-up that claims byte identity proves it
here.

The argv lists live in the data file, so this test never imports the
benchmark.  To regenerate the file, when a change is meant to alter some
command's output (say which in the log):

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from minbase.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "golden.json"
CERT_PLACEHOLDER = "CERT"


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run_entry(argv, cert_path):
    """(exit code, sha256 of the --json stdout, [verify exit code, sha256
    of its report with the certificate path replaced by CERT_PLACEHOLDER]),
    the last None when the command wrote no certificate."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv) + ["--json", "--out", str(cert_path)])
    verified = None
    if cert_path.exists():
        report = io.StringIO()
        with contextlib.redirect_stdout(report), contextlib.redirect_stderr(io.StringIO()):
            verify_code = main(["verify", str(cert_path)])
        text = report.getvalue().replace(str(cert_path), CERT_PLACEHOLDER)
        verified = [verify_code, _sha(text)]
    return code, _sha(out.getvalue()), verified


ENTRIES = json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_workload():
    assert len({tuple(e["argv"]) for e in ENTRIES}) == len(ENTRIES)
    assert {e["workload"] for e in ENTRIES} == {
        "partition-search", "symmetric-families", "lattice-invariants", "classical-enum"}


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: " ".join(e["argv"]))
def test_command_output_matches_golden(entry, tmp_path):
    got = run_entry(entry["argv"], tmp_path / "cert.json")
    assert got == (entry["exit"], entry["stdout_sha256"], entry["verify"])


def regenerate():
    """Rewrite the golden file from the benchmark's command lists."""
    import tempfile

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    entries, seen = [], set()
    for name in workloads.WORKLOADS:
        for argv, _ in workloads.build(name, 1):
            if tuple(argv) in seen:
                continue
            seen.add(tuple(argv))
            with tempfile.TemporaryDirectory() as tmp:
                code, stdout_sha, verified = run_entry(argv, Path(tmp) / "cert.json")
            entries.append({"workload": name, "argv": argv, "exit": code,
                            "stdout_sha256": stdout_sha, "verify": verified})
    entries.sort(key=lambda e: (e["workload"], e["argv"]))
    # one entry a line, so a diff names the commands whose output moved
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(e) for e in entries) + "\n]\n")
    print(f"{len(entries)} entries written to {GOLDEN.relative_to(ROOT)}")


if __name__ == "__main__":
    regenerate()
