"""Replay the first ops of benchmark workloads in process and print digests.

    python scripts/replay_digests.py [--src DIR] [--seed S] [--ops N] WORKLOAD...

The ops are the ones the benchmark worker runs: the sequence of
``perfbench/gen.py`` for the workload and seed, which this script only reads.
faultline is imported from ``--src`` (default: this checkout's ``src``), and
each op is one call of ``faultline.cli.main(argv)`` writing its report or SVG
to a file, after the worker's warm-up op.  For each op one line is printed:

    <workload> <index> <exit code> <sha256 stdout> <sha256 stderr> <sha256 output>

with "-" for an output file that was not written.  The scratch directory's
path is replaced by "<work>" before hashing, so replays of two checkouts, for
example of a change and of its parent, print the same lines exactly when no
op moved a byte; diff the two outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WARMUP = ["cohomology", "-i", "bundled:doubling_swap", "--rounds", "6"]


def digest(data, work_dir):
    if data is None:
        return "-"
    return hashlib.sha256(data.replace(work_dir.encode(), b"<work>")).hexdigest()


def call(main, argv):
    """(exit code, stdout, stderr) of one in-process CLI call; an escaped
    exception is reported as its last traceback line, as the worker does."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
        except Exception:
            code = "traceback: " + traceback.format_exc().strip().splitlines()[-1]
    return code, out.getvalue().encode(), err.getvalue().encode()


def replay(main, gen, workload, seed, n_ops, data_dir, work_dir):
    """Yield the digest line of each of the first n_ops ops."""
    ops = gen.workload(workload, seed, data_dir)
    out_path = os.path.join(work_dir, "output")
    for i in range(n_ops):
        op = next(ops, None)
        if op is None:
            return
        argv = list(op.argv)
        if op.doc is not None:
            path = os.path.join(work_dir, f"input-{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(op.doc, fh)
            argv = [path if a == "{input}" else a for a in argv]
        if os.path.exists(out_path):
            os.remove(out_path)
        code, out, err = call(main, argv + ["-o", out_path])
        written = None
        if os.path.exists(out_path):
            with open(out_path, "rb") as fh:
                written = fh.read()
        code = str(code).replace(" ", "_")
        yield (f"{workload} {i} {code} {digest(out, work_dir)} {digest(err, work_dir)} "
               f"{digest(written, work_dir)}")


def main(argv=None):
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import gen

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="+", choices=gen.WORKLOADS, metavar="WORKLOAD")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="the src directory to import faultline from")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--ops", type=int, default=300, help="ops per workload")
    args = ap.parse_args(argv)

    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import faultline.cli

    data_dir = os.path.join(src, "faultline", "data")
    with tempfile.TemporaryDirectory() as work_dir:
        call(faultline.cli.main, WARMUP + ["-o", os.path.join(work_dir, "warmup.json")])
        for workload in args.workloads:
            for line in replay(faultline.cli.main, gen, workload, args.seed, args.ops,
                               data_dir, work_dir):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
