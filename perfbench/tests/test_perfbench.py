"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

They run the real program from src/, with short runs (about a minute in all).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_smoke_run_of_each_workload(workload):
    result = _result(_run("--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", "0"))
    assert result["attempted"] >= 1
    assert result["correct"] and result["failed"] == 0
    names = [m["name"] for m in BENCH["end_to_end"]]
    assert list(result["metrics"]) == names
    for m in BENCH["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


def test_traced_run_emits_every_per_layer_metric():
    result = _result(_run("--workload", "fault-deep", "--seed", "3", "--seconds", "1",
                          "--trace", "1"))
    assert list(result["metrics"]) == [m["name"] for m in BENCH["per_layer"]]
    # the first op is the paper pair; fault traces each boundary twice today
    assert result["metrics"]["fault.traces_per_op"]["value"] == 2


def test_traced_cohomology_structure():
    result = _result(_run("--workload", "cohomology-mix", "--seed", "3", "--seconds", "1",
                          "--trace", "1"))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["ap_complex.collar_per_op"] == 5
    assert metrics["dpv.essential_vertices.s"] > 0.5 * metrics["trace.op_p50_s"]


@pytest.mark.parametrize("workload,golden", [
    ("cohomology-mix", "cohomology-doubling_swap.json"),
    ("render-patch", "render-doubling_swap.svg.sha256"),
])
def test_tampered_golden_raises_fail_ratio(tmp_path, workload, golden):
    golden_dir = tmp_path / "golden"
    shutil.copytree(os.path.join(BENCH_DIR, "golden"), golden_dir)
    work = tmp_path / "work"
    work.mkdir()
    worker.setup(ROOT, str(work))
    # seconds=0 runs exactly the first op, which is the bundled document's
    clean = worker.run(workload, 3, 0, 0, ROOT, str(work), str(golden_dir))
    assert clean["ops"] == 1 and clean["failed"] == 0
    path = golden_dir / golden
    path.write_bytes(path.read_bytes().replace(b"1", b"2", 1))
    tampered = worker.run(workload, 3, 0, 0, ROOT, str(work), str(golden_dir))
    assert tampered["failed"] / tampered["ops"] == 1.0
    assert "golden" in tampered["reasons"][0]


def test_generators_are_seeded_and_never_repeat():
    data_dir = os.path.join(ROOT, "src", "faultline", "data")
    for workload in gen.WORKLOADS:
        def first(seed, n=40):
            ops = gen.workload(workload, seed, data_dir)
            return [next(ops).key() for _ in range(n)]
        a = first(5)
        assert a == first(5)
        assert a != first(6)
        assert len(set(a)) == len(a)


def test_needs_the_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("--workload", "fault-deep", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_compare_verdicts():
    base = {s: 1.0 + 0.01 * s for s in range(10)}
    assert run.judge(base, {s: v * 1.5 for s, v in base.items()}, 0.2, "lower") == "worse"
    assert run.judge(base, {s: v * 0.5 for s, v in base.items()}, 0.2, "lower") == "better"
    assert run.judge(base, {s: v * 1.01 for s, v in base.items()}, 0.2, "lower") == "within bound"
    noisy = {s: 1.0 + (s % 2) for s in range(10)}
    assert run.judge(base, noisy, 0.2, "higher") == "unresolved"


KNOWN_DEFECTS = [
    # legal_words stops at a letter whose image has length 1: collar builds
    # an empty complex, exit 1
    ("ap", {"a": "b", "b": "c", "c": "ab"}),
    # NumberField.with_largest_real_root takes the rational root 2 that ends
    # the isolating interval of the real Perron root: exit 1 in tile_lengths ...
    ("analyze", {"a": "eb", "b": "bba", "c": "aa", "d": "ec", "e": "ecdd"}),
    # ... or a report with Perron root 2 where it is 2.8312
    ("analyze", {"a": "ad", "b": "ccbb", "c": "ba", "d": "adc"}),
]


@pytest.mark.xfail(strict=True, reason="known program defects; ap-random keeps out of their inputs")
@pytest.mark.parametrize("command,rules", KNOWN_DEFECTS)
def test_known_defects(tmp_path, command, rules):
    import checks
    import faultline.cli

    doc = {"alphabets": {"x": sorted(rules)},
           "substitutions": {"s": {"alphabet": "x", "rules": rules}}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    code = faultline.cli.main([command, "-i", str(path), "--name", "s", "-o", str(out)])
    op = gen.Op(f"{command}/seeded", [command, "-i", "{input}", "--name", "s"], doc=doc)
    assert checks.check(op, code, str(out), os.path.join(BENCH_DIR, "golden")) is None


@pytest.mark.parametrize("command,rules", KNOWN_DEFECTS)
def test_ap_random_keeps_out_of_known_defect_inputs(command, rules):
    alphabet = sorted(rules)
    m = gen.matrix(alphabet, rules)
    assert gen.is_primitive(m)
    outside = (min(len(r) for r in rules.values()) < min(gen.AP_RULE_LENGTHS)
               or gen.has_positive_integer_eigenvalue(m))
    assert outside
