"""faultline benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> [--seconds <s>]
    python3 perfbench/run.py --compare BASE.jsonl NEW.jsonl
    python3 perfbench/run.py --record-golden

One run starts fresh interpreters that import faultline from `src/` and run
one warm-up op: set-up is timed from spawn to ready, SETUP_SAMPLES times, and
`setup_s` is the median.  The last of them then runs the workload's ops in a
closed loop (one client, no threads) for `--seconds`.  The last stdout line
is the result: `correct`, `attempted`, `failed` and the metrics that
BENCHMARK.json names, end-to-end ones with `--trace 0` and per-layer ones
with `--trace 1`.  The gated op times are relative to a reference time the
worker measures during the run (see worker.reference_work), because CPU
speed on a shared machine can drift by more than any bound over minutes.  The lines
before the result give the same figures for people, plus the figures
BENCHMARK.json does not gate (wall-time op_p50_s and ops_per_s, op_p90_s,
fail_ratio, undetermined_ratio), the input-size summary and the environment.

`--append FILE` also appends the full record as one JSON line; `--compare`
reads two such files and judges every workload x end-to-end metric against
the bounds in BENCHMARK.json.  `--workload all` runs every workload untraced
and traced and reports the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402

SETUP_SAMPLES = 3
RUN_LIMIT_S = 170          # a run must end within 180 s
P90_MIN_OPS = 100          # p90 needs ten samples beyond it


class BenchError(Exception):
    pass


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check_source():
    if not os.path.isfile(os.path.join(ROOT, "src", "faultline", "__init__.py")):
        raise BenchError(f"no faultline source under {os.path.join(ROOT, 'src')}")


def environment(seed):
    env = {"nproc": os.cpu_count(), "seed": seed, "git_sha": "unknown", "git_dirty": None}
    if os.path.isdir(os.path.join(ROOT, ".git")):
        def git(*args):
            return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        env["git_sha"] = git("rev-parse", "HEAD") or "unknown"
        env["git_dirty"] = bool(git("status", "--porcelain", "--untracked-files=no"))
    return env


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def _spawn(work_dir, log, args, deadline):
    """Start a worker and wait for it; returns its set-up times and its
    summary (None for a set-up-only worker)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--work-dir", work_dir, *args]
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.monotonic()
    with open(log, "ab") as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError("worker did not finish within the run's time limit")
    lines = out.decode("utf-8").splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("ready "):
        with open(log, "rb") as fh:
            tail = fh.read().decode("utf-8", "replace").strip().splitlines()[-5:]
        raise BenchError(f"worker exited with {proc.returncode}: " + " | ".join(tail))
    _, ready_at, import_s, warmup_s = lines[0].split()
    setup = {"setup_s": float(ready_at) - started, "import_s": float(import_s),
             "warmup_s": float(warmup_s)}
    return setup, (json.loads(lines[1]) if len(lines) > 1 else None)


def run_workload(workload, seed, seconds, trace, bench):
    check_source()
    deadline = time.monotonic() + RUN_LIMIT_S
    work_dir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    log = os.path.join(work_dir, "worker.log")
    base = ["--workload", workload, "--seed", str(seed)]
    try:
        setups = [_spawn(work_dir, log, base + ["--seconds", "0", "--setup-only"], deadline)[0]
                  for _ in range(SETUP_SAMPLES - 1)]
        setup, summary = _spawn(work_dir, log, base + ["--seconds", str(seconds),
                                                       "--trace", str(trace)], deadline)
        setups.append(setup)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass
    if summary is None:
        raise BenchError("worker printed no summary")
    return record(workload, seed, seconds, trace, bench, setups, summary)


def record(workload, seed, seconds, trace, bench, setups, s):
    times = sorted(s["op_times"])
    n = s["ops"]
    ref = s["reference_s"]
    figures = {
        "setup_s": statistics.median(x["setup_s"] for x in setups),
        "op_p50_s": statistics.median(times),
        "ops_per_s": n / s["busy_s"],
        "op_p50_ref": statistics.median(times) / ref,
        "ops_per_ref": n * ref / s["busy_s"],
        "peak_rss_mb": s["peak_rss_mb"],
        "reference_s": ref,
    }
    extra = {
        "ops": n,
        "fail_ratio": s["failed"] / n,
        "undetermined_ratio": s["undetermined"] / n,
        "repeated_input_share": s["repeats"] / n,
        "op_p90_s": statistics.quantiles(times, n=10)[-1] if n >= P90_MIN_OPS else None,
        "setup_samples": [x["setup_s"] for x in setups],
        "kinds": s["kinds"],
        "sizes": s["sizes"],
        "reasons": s["reasons"],
    }
    if trace:
        layers = dict(s["layers"])
        layers["setup.import_s"] = statistics.median(x["import_s"] for x in setups)
        layers["setup.warmup_s"] = statistics.median(x["warmup_s"] for x in setups)
        specs = bench["per_layer"]
        source = layers
    else:
        specs = bench["end_to_end"]
        source = figures
    missing = [m["name"] for m in specs if m["name"] not in source]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in specs}
    env = environment(seed)
    env.update(s["versions"])
    env["ops"] = {workload: n}
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": s["failed"] == 0, "attempted": n, "failed": s["failed"],
        "metrics": metrics, "figures": figures, "extra": extra, "env": env,
    }


def print_record(rec, out=sys.stdout):
    ex = rec["extra"]
    out.write(f"faultline benchmark  workload={rec['workload']}  seed={rec['seed']}  "
              f"seconds={rec['seconds']}  trace={rec['trace']}\n")
    for name, m in rec["metrics"].items():
        out.write(f"  {name:<40} {m['value']:.6g} {m['unit']}\n")
    fig = rec["figures"]
    out.write(f"  wall time: op_p50_s {fig['op_p50_s']:.6g} s  ops_per_s {fig['ops_per_s']:.6g} 1/s  "
              f"reference_s {fig['reference_s']:.6g} s\n")
    p90 = ex["op_p90_s"]
    out.write(f"  op_p90_s {('%.6g s' % p90) if p90 is not None else 'n/a'} "
              f"(n={ex['ops']} ops; reported from {P90_MIN_OPS})\n")
    out.write(f"  fail_ratio {ex['fail_ratio']:.4g}  undetermined_ratio "
              f"{ex['undetermined_ratio']:.4g}  repeated_input_share "
              f"{ex['repeated_input_share']:.4g}\n")
    out.write(f"  ops by kind {json.dumps(ex['kinds'], sort_keys=True)}\n")
    out.write(f"  input sizes {json.dumps(ex['sizes'], sort_keys=True)}\n")
    for reason in ex["reasons"]:
        out.write(f"  FAILED {reason}\n")
    out.write(f"env {json.dumps(rec['env'], sort_keys=True)}\n")


def result_line(rec):
    return json.dumps({"correct": rec["correct"], "attempted": rec["attempted"],
                       "failed": rec["failed"], "metrics": rec["metrics"]})


def append(path, rec):
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(rec, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# compare mode
# ---------------------------------------------------------------------------

def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge(base, new, bound, better):
    """Verdict for one metric from two lists of per-run values keyed by seed.

    worse: the new median is worse by more than the bound.  unresolved: the
    run-to-run spread exceeds the bound, unless every new run beats every
    base run.  better: the medians differ by more than the base's quartile
    spread and the new side wins at least nine tenths of the seed pairs."""
    sign = 1 if better == "lower" else -1
    b1, bm, b3 = _quartiles(list(base.values()))
    n1, nm, n3 = _quartiles(list(new.values()))
    worse_by = sign * (nm - bm) / bm
    spread = max((b3 - b1) / bm, (n3 - n1) / nm)
    all_better = all(sign * (y - x) < 0 for y in new.values() for x in base.values())
    pairs = [(base[k], new[k]) for k in base if k in new]
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if worse_by > bound:
        return "worse"
    if spread > bound and not all_better:
        return "unresolved"
    if (all_better or (pairs and wins >= 0.9 * len(pairs))) and -worse_by * bm > (b3 - b1):
        return "better"
    return "within bound"


def compare(base_path, new_path, bench, out=sys.stdout):
    def load(path):
        runs = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                if rec["trace"] == 0:
                    runs.setdefault(rec["workload"], []).append(rec)
        return runs

    base, new = load(base_path), load(new_path)
    out.write(f"{'workload':<16}{'metric':<14}{'unit':<7}{'base median [q1, q3]':<34}"
              f"{'new median [q1, q3]':<34}{'change':>9}  verdict (bound)\n")
    for workload in sorted(set(base) & set(new)):
        for spec in bench["end_to_end"]:
            name = spec["name"]
            a = {r["seed"]: r["metrics"][name]["value"] for r in base[workload]}
            b = {r["seed"]: r["metrics"][name]["value"] for r in new[workload]}
            qa, qb = _quartiles(list(a.values())), _quartiles(list(b.values()))
            verdict = judge(a, b, spec["bound"], spec["better"])
            out.write(f"{workload:<16}{name:<14}{spec['unit']:<7}"
                      f"{f'{qa[1]:.4g} [{qa[0]:.4g}, {qa[2]:.4g}]':<34}"
                      f"{f'{qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}]':<34}"
                      f"{(qb[1] - qa[1]) / qa[1]:>+9.1%}  {verdict} ({spec['bound']:.0%})\n")


# ---------------------------------------------------------------------------
# golden files
# ---------------------------------------------------------------------------

def record_golden():
    """Write the outputs of every bundled-document op to golden/."""
    check_source()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import checks
    import faultline.cli

    golden_dir = os.path.join(HERE, "golden")
    os.makedirs(golden_dir, exist_ok=True)
    data_dir = os.path.join(ROOT, "src", "faultline", "data")
    tmp = os.path.join(ROOT, ".perfbench_work", "golden.out")
    os.makedirs(os.path.dirname(tmp), exist_ok=True)
    try:
        for workload in gen.WORKLOADS:
            for op in gen.workload(workload, 0, data_dir):
                if op.golden is None:
                    break
                code = faultline.cli.main(op.argv + ["-o", tmp])
                if code not in checks.ALLOWED_EXITS:
                    raise BenchError(f"{op.argv} exited with {code}")
                with open(tmp, "rb") as fh:
                    data = fh.read()
                svg = op.argv[0] == "render"
                with open(checks.golden_path(golden_dir, op.golden, svg), "wb") as fh:
                    fh.write(checks.svg_digest(data).encode() if svg else data)
                print(f"recorded {op.golden}")
    finally:
        shutil.rmtree(os.path.dirname(tmp), ignore_errors=True)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_all(seed, seconds, bench, append_path):
    """Every workload untraced and traced; returns True when all are correct."""
    ok = True
    rows = []
    for workload in gen.WORKLOADS:
        plain = run_workload(workload, seed, seconds, 0, bench)
        traced = run_workload(workload, seed, seconds, 1, bench)
        for rec in (plain, traced):
            print_record(rec)
            if append_path:
                append(append_path, rec)
            ok &= rec["correct"]
        overhead = traced["metrics"]["trace.op_p50_ref"]["value"] / plain["figures"]["op_p50_ref"] - 1
        rows.append((workload, plain, overhead))
    print("\nsummary (untraced runs; overhead = traced op_p50_ref / untraced op_p50_ref - 1)")
    for workload, plain, overhead in rows:
        cells = "  ".join(f"{name}={m['value']:.4g} {m['unit']}"
                          for name, m in plain["metrics"].items())
        print(f"  {workload:<16} {cells}  fail_ratio={plain['extra']['fail_ratio']:.3g}  "
              f"undetermined_ratio={plain['extra']['undetermined_ratio']:.3g}  "
              f"tracing_overhead={overhead:+.1%}")
    return ok


def main(argv=None):
    ap = argparse.ArgumentParser(description="faultline benchmark")
    ap.add_argument("--workload", choices=gen.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--append", metavar="FILE", help="append the full record as a JSON line")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args(argv)
    try:
        bench = load_benchmark()
        if args.compare:
            compare(*args.compare, bench)
            return 0
        if args.record_golden:
            record_golden()
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
        if args.workload == "all":
            return 0 if run_all(args.seed, seconds, bench, args.append) else 1
        rec = run_workload(args.workload, args.seed, seconds, args.trace, bench)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print_record(rec)
    if args.append:
        append(args.append, rec)
    print(result_line(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
