"""One benchmark worker: a fresh interpreter, one client, a closed loop.

The worker imports faultline from the checkout's `src/`, runs one untimed
warm-up op on a bundled document, and reports on its protocol stream (the
original stdout) `ready <monotonic clock>`.  With `--setup-only` it stops
there.  Otherwise it runs the workload's ops one after another until
`--seconds` have passed, each op being one in-process call of
`faultline.cli.main(argv)` that writes its report or SVG to a file.  Only
that call is timed; writing the input document, checking the output and a
garbage collection between ops are not.  Every REFERENCE_EVERY_S, between
ops, it also times a fixed reference loop; the run's op times are reported
relative to the mean of those samples as well.  The last protocol line is
the run's summary as JSON.

With `--trace 1` the layer functions are wrapped first (see spans.py) and
the summary carries per-layer figures per op.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction

import checks
import gen
from spans import COUNTERS, TARGETS, Tracer, span_cost

WARMUP = ["cohomology", "-i", "bundled:doubling_swap", "--rounds", "6"]
MAX_REASONS = 5
REFERENCE_EVERY_S = 0.5


def reference_work():
    """A fixed piece of pure-Python work (Fraction, int and dict operations,
    as in the program), timed between ops to measure the machine's speed.
    About 10 ms: long enough to average over the machine's second-scale
    speed flips, which a shorter probe catches in one state or the other."""
    x = Fraction(1, 3)
    table = {}
    for _ in range(5):
        acc = Fraction(0)
        for i in range(400):
            acc += x * i / (i + 1)
            table[(i % 7, i % 11)] = acc.numerator % 97
    return len(table)


def time_reference():
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def setup(root, work_dir):
    """Import faultline and run the warm-up op; returns (import_s, warmup_s)."""
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(root, "src"))
    import faultline.cli

    t1 = time.perf_counter()
    code = faultline.cli.main(WARMUP + ["-o", os.path.join(work_dir, "warmup.json")])
    t2 = time.perf_counter()
    if code != 0:
        raise RuntimeError(f"warm-up op exited with {code}")
    return t1 - t0, t2 - t1


def _argv(op, work_dir, i):
    if op.doc is None:
        return list(op.argv)
    path = os.path.join(work_dir, f"input-{i}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(op.doc, fh)
    return [path if a == "{input}" else a for a in op.argv]


def _size_summary(sizes):
    out = {}
    for key in sorted({k for s in sizes for k in s}):
        vals = [s[key] for s in sizes if isinstance(s.get(key), (int, float))]
        if vals:
            out[key] = {"min": min(vals), "median": statistics.median(vals), "max": max(vals)}
    return out


def run(workload, seed, seconds, trace, root, work_dir, golden_dir):
    """Run the timed loop of one workload; returns the summary dict."""
    import faultline.cli

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    data_dir = os.path.join(root, "src", "faultline", "data")
    ops = gen.workload(workload, seed, data_dir)
    # Everything alive now (modules, the warm-up's caches) moves to the
    # permanent generation: the collection before each op then costs
    # microseconds, not the 30-40 ms of walking sympy's objects, and the run
    # fits more ops into its time.
    gc.collect()
    gc.freeze()
    out_path = os.path.join(work_dir, "output")
    times, codes, sizes, kinds, reasons = [], [], [], {}, []   # kinds: op kind -> times
    failed = repeats = output_bytes = 0
    seen = set()
    refs = [time_reference()]
    next_ref = time.perf_counter() + REFERENCE_EVERY_S
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        if time.perf_counter() >= next_ref:
            refs.append(time_reference())
            next_ref = time.perf_counter() + REFERENCE_EVERY_S
        op = next(ops, None)
        if op is None:
            break
        key = op.key()
        repeats += key in seen
        seen.add(key)
        argv = _argv(op, work_dir, len(times)) + ["-o", out_path]
        if os.path.exists(out_path):
            os.remove(out_path)
        gc.collect()
        t0 = time.perf_counter()
        try:
            code = faultline.cli.main(argv)
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
        except Exception:
            code = "traceback: " + traceback.format_exc().strip().splitlines()[-1]
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.end_op()
        reason = checks.check(op, code, out_path, golden_dir)
        if reason is not None:
            failed += 1
            if len(reasons) < MAX_REASONS:
                reasons.append(f"{op.kind} {' '.join(argv[:-2])}: {reason}")
        if os.path.exists(out_path):
            output_bytes += os.path.getsize(out_path)
        codes.append(code)
        sizes.append(op.size)
        kinds.setdefault(op.kind, []).append(times[-1])
    summary = {
        "ops": len(times),
        "failed": failed,
        "undetermined": sum(1 for c in codes if c == 2),
        "op_times": times,
        "busy_s": sum(times),
        "reference_s": statistics.fmean(refs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "reasons": reasons,
        "repeats": repeats,
        "kinds": {k: {"ops": len(v), "p50_s": statistics.median(v)} for k, v in kinds.items()},
        "sizes": _size_summary(sizes),
        "output_bytes": output_bytes,
    }
    if tracer is not None:
        summary["layers"] = layer_metrics(tracer, summary)
    return summary


def layer_metrics(tracer, summary):
    """Per-op figures of each layer from the folded spans and counters."""
    n = summary["ops"]
    out = {}
    for name in sorted({t[0] for t in TARGETS}):
        out[f"{name}.calls"] = tracer.calls[name] / n
        out[f"{name}.s"] = tracer.incl[name] / n
        out[f"{name}.self_s"] = tracer.self_time[name] / n
    for name in COUNTERS:
        out[name] = tracer.counts[name] / n
    out["abelian.max_dim"] = tracer.max_dim
    calls = tracer.calls
    letters = tracer.counts["fault.letters_scanned"]
    distinct = tracer.counts["fault.distinct_discrepancies"]
    out["fault.traces_per_op"] = calls["fault.boundary_trace"] / n
    out["fault.distinct_per_kiloletter"] = 1000 * distinct / letters if letters else 0.0
    out["ap_complex.collar_per_op"] = calls["ap_complex.collar"] / n
    collars = calls["ap_complex.collar"]
    out["ap_complex.edges"] = tracer.counts["ap_complex.edges"] / collars if collars else 0.0
    out["cli.output_bytes"] = summary["output_bytes"] / n
    out["cli.undetermined_ratio"] = summary["undetermined"] / n
    out["trace.op_p50_s"] = statistics.median(summary["op_times"])
    out["trace.op_p50_ref"] = out["trace.op_p50_s"] / summary["reference_s"]
    out["trace.spans_per_op"] = tracer.n_spans / n
    out["trace.overhead_share"] = (span_cost() * tracer.n_spans) / summary["busy_s"]
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    proto = sys.stdout
    sys.stdout = sys.stderr      # nothing the program prints reaches the protocol
    import_s, warmup_s = setup(args.root, args.work_dir)
    proto.write(f"ready {time.monotonic()!r} {import_s!r} {warmup_s!r}\n")
    proto.flush()
    if args.setup_only:
        return 0
    golden_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
    summary = run(args.workload, args.seed, args.seconds, args.trace,
                  args.root, args.work_dir, golden_dir)
    import numpy
    import sympy

    summary["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                           "sympy": sympy.__version__}
    proto.write(json.dumps(summary) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
