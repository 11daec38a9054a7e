"""scripts/replay_digests.py: the per-op digests of benchmark workload ops."""

import hashlib
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKLOADS = ("cohomology-mix", "fault-deep", "render-patch", "ap-random")


def test_replay_prints_one_digest_line_per_op():
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "replay_digests.py"),
                          "--ops", "2", *WORKLOADS],
                         capture_output=True, text=True, timeout=300)
    assert (run.returncode, run.stderr) == (0, "")
    lines = [line.split(" ") for line in run.stdout.splitlines()]
    assert [line[:2] for line in lines] == [[w, str(i)] for w in WORKLOADS for i in range(2)]
    empty = hashlib.sha256(b"").hexdigest()
    for _, _, code, out, err, written in lines:
        # every op writes its report to the output file, none to stdout
        assert (code, out, err) == ("0", empty, empty)
        assert re.fullmatch("[0-9a-f]{64}", written) and written != empty
