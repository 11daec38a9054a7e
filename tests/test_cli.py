"""Command-line behavior: subcommands, schemas, determinism, exit codes."""

import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from itertools import islice
from unittest import mock
from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st

from faultline import abelian, ap_complex, cli, fault, render
from faultline.cli import alg_json, main
from faultline import documents
from faultline.documents import (
    bundled_document,
    bundled_expected,
    bundled_names,
    load_document,
)
from faultline.errors import ValidationError
from faultline.fault import OverlapGraph, _ScanWidths, boundary_trace, classify_boundary
from faultline.substitution import Substitution

from conftest import iterate, number_json, reference_dump, scan_discrepancy_rounds


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_selftest_passes():
    code, out = run_cli("selftest")
    assert code == 0
    assert out.count("PASS") == 3
    assert "3/3 examples pass" in out


def test_cohomology_bundled_section4():
    code, out = run_cli("cohomology", "-i", "bundled:period_doubling")
    assert code == 0
    doc = json.loads(out)
    assert doc["H1"]["expr"] == "Z[1/2] (+) Z"
    assert doc["H2"]["expr"] == "Z[1/L:x^2-x-3]^2 (+) (Z[1/L:x^2-x-3] (x) Z[1/2])"
    assert doc["H3"]["expr"] == "(Z[1/L:x^2-x-3] (x) Z[1/L:x^2-x-3])^2"
    assert doc["H_above_3"] == "0"
    assert doc["essential_vertices"]["n"] == 2
    assert doc["d1"]["recognized"] == "Z[1/2] (+) Z^2"


def test_analyze_identity_degenerate(tmp_path):
    doc = {
        "alphabets": {"one": ["a"]},
        "substitutions": {"id": {"alphabet": "one", "rules": {"a": "a"}}},
    }
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli("analyze", "-i", str(path))
    assert code == 0
    rep = json.loads(out)["substitutions"]["id"]
    assert rep["perron_root"]["decimal"].startswith("1.0")
    assert rep["degenerate"] is True
    assert rep["spectral_class"] == "Unimodular"


def test_fault_subcommand_table():
    code, out = run_cli("fault", "-i", "bundled:doubling_swap",
                        "--top", "sigma1", "--bottom", "sigma2", "--rounds", "6")
    assert code == 0
    rep = json.loads(out)
    assert rep["classification"] == "RegularFault"
    assert len(rep["rounds"]) == 6
    assert rep["rounds"][0]["top"] == "ba"
    assert rep["rounds"][0]["bottom"] == "ab"
    assert rep["rounds"][5]["max_discrepancy"] == 6


def test_ap_subcommand():
    code, out = run_cli("ap", "-i", "bundled:period_doubling", "--name", "rho")
    assert code == 0
    rep = json.loads(out)
    assert sorted(rep["complex"]["edges"]) == ["0|0", "0|1", "1|0"]
    assert rep["complex"]["vertex_map"] == [1, 0]
    assert rep["border_forcing"] == {"right_forced_in": 1, "left_forced_in": None}


def test_mu_subcommand():
    code, out = run_cli("mu", "-i", "bundled:doubling_swap", "--name", "sigma1")
    assert code == 0
    rep = json.loads(out)
    assert rep["h1_of_tiling_space"]["expr"] == "Z[1/L:x^2-x-3]"
    assert rep["limit"]["a_prime"] == [[1, 1], [3, 0]]


@pytest.mark.parametrize("command", ["ap", "mu"])
def test_length_one_images_before_growth(tmp_path, command):
    # a -> b -> c -> ab: legal_words once stopped at b, and collar built an
    # empty complex
    doc = {"alphabets": {"x": ["a", "b", "c"]},
           "substitutions": {"s": {"alphabet": "x", "rules": {"a": "b", "b": "c", "c": "ab"}}}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(command, "-i", str(path), "--name", "s")
    assert code == 0
    rep = json.loads(out)
    if command == "ap":
        assert rep["complex"]["edges"] and rep["h1"]["rank"] >= 1
    else:
        assert rep["h1_of_tiling_space"]["rank"] >= 1


@pytest.mark.parametrize("command", ["ap", "mu"])
def test_collar_without_legal_words_is_one_validation_line(tmp_path, command):
    # a -> a, b -> b has no legal word of length 3, so no collared edge;
    # collar once passed the empty edge alphabet on to Substitution
    doc = {"alphabets": {"x": ["a", "b"]},
           "substitutions": {"s": {"alphabet": "x", "rules": {"a": "a", "b": "b"}}}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run_captured([command, "-i", str(path), "--name", "s"])
    assert (code, out) == (1, "")
    assert err == "error: substitution has no legal word of the collar width 3\n"


@pytest.mark.parametrize("command", ["ap", "mu"])
def test_collared_transition_of_an_early_image_only(tmp_path, command):
    # the collared letter b|a|d maps to b|a|b a|b|a, a transition no later
    # image repeats; legal_words once dropped it, and the complex failed its
    # own intertwining assertion (a traceback)
    doc = {"alphabets": {"x": ["a", "b", "c", "d"]},
           "substitutions": {"s": {"alphabet": "x",
                                   "rules": {"a": "ab", "b": "b", "c": "a", "d": "ad"}}}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run_captured([command, "-i", str(path), "--name", "s"])
    assert (code, out, err) == (1, "", "error: AP complex is not connected\n")


# sha256 of the JSON reports from before the non-primitive warning moved
# from a Python UserWarning to one stderr line
NONPRIMITIVE_REPORTS = {
    "ap": "1a11fb3aa7c2bb68897e1c7652c01455c9d47e98e2dece5aaabb923860628411",
    "mu": "98caef0fdb2561ce819702d8c996e481047d7d0020d5cecd0d5fd28e26e0e4cb",
}


@pytest.mark.parametrize("command", ["ap", "mu"])
def test_nonprimitive_warning_is_one_stderr_line(tmp_path, command):
    doc = {"alphabets": {"ab": ["a", "b"]},
           "substitutions": {"s": {"alphabet": "ab", "rules": {"a": "a", "b": "bb"}}}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "-i", str(path), "--name", "s"])
    assert code == 0
    assert err.getvalue() == ("warning: substitution 's' is not primitive; its legal "
                              "words are the union over all letters\n")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == NONPRIMITIVE_REPORTS[command]
    # a report that cannot be written leaves the error as the one line
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        assert main([command, "-i", str(path), "--name", "s", "-o", str(tmp_path)]) == 1
    assert err.getvalue().startswith("error: cannot write ") and err.getvalue().count("\n") == 1
    # a primitive substitution gets no warning
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        assert main([command, "-i", "bundled:doubling_swap", "--name", "sigma1"]) == 0
    assert err.getvalue() == ""


def test_cli_import_does_not_load_numpy():
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = "import sys, faultline.cli; print('numpy' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert run.stdout == "False\n"


def test_commands_without_complex_roots_do_not_load_sympy(tmp_path):
    # neither is imported by any command: root isolation, real and complex,
    # is pure-int code (faultline.zpoly); the complex-root case is the next test
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = str(tmp_path / "out")
    probe = "; ".join([
        "import sys, faultline.cli",
        f"assert faultline.cli.main(['cohomology', '-i', 'bundled:period_doubling', '-o', {out!r}]) == 0",
        f"assert faultline.cli.main(['fault', '-i', 'bundled:doubling_swap', '--top', 'sigma1', "
        f"'--bottom', 'sigma2', '--rounds', '8', '-o', {out!r}]) == 0",
        f"assert faultline.cli.main(['render', '-i', 'bundled:row_thirds', '--rounds', '3', '-o', {out!r}]) == 0",
        "print(sorted(m for m in ('sympy', 'numpy') if m in sys.modules))",
    ])
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert run.stdout == "[]\n"


# the two documents of test_report_digests whose charpolys have an
# irreducible factor of degree >= 3 with non-real roots
COMPLEX_ROOT_RULES = {
    "salem": {"a": "ac", "b": "d", "c": "ab", "d": "c"},
    "tribonacci": {"a": "ab", "b": "ac", "c": "a"},
}


def test_commands_with_complex_roots_load_neither_sympy_nor_numpy(tmp_path):
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = str(tmp_path / "out")
    lines = ["import sys, faultline.cli"]
    for name, rules in COMPLEX_ROOT_RULES.items():
        doc = {"alphabets": {"h": sorted(rules)},
               "substitutions": {name: {"alphabet": "h", "rules": rules}}}
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for command in ("analyze", "ap", "mu"):
            lines.append(f"assert faultline.cli.main([{command!r}, '-i', {str(path)!r}, "
                         f"'--name', {name!r}, '-o', {out!r}]) == 0")
    lines.append("print(sorted(m for m in ('sympy', 'numpy') if m in sys.modules))")
    run = subprocess.run([sys.executable, "-c", "; ".join(lines)], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert run.stdout == "[]\n"


def test_demos_run_cleanly(tmp_path):
    # each demo runs from a copy, so render_patches writes its SVGs under
    # tmp_path
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    demos = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
    assert len(demos) == 5
    for demo in demos:
        copy = tmp_path / demo.name
        copy.write_text(demo.read_text(encoding="utf-8"), encoding="utf-8")
        run = subprocess.run([sys.executable, str(copy)], env=env, cwd=tmp_path,
                             capture_output=True, text=True, timeout=120)
        assert (run.returncode, run.stderr) == (0, ""), demo.name
    assert len(list((tmp_path / "out").glob("*.svg"))) == 3


def _run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


LETTERS = "abcd"


@st.composite
def small_documents(draw):
    """1-4 letters, each with an image of 0-4 letters, primitive or not."""
    letters = LETTERS[:draw(st.integers(1, 4))]
    rules = {x: "".join(draw(st.lists(st.sampled_from(letters), max_size=4)))
             for x in letters}
    return {"alphabets": {"x": list(letters)},
            "substitutions": {"s": {"alphabet": "x", "rules": rules}}}


@settings(max_examples=100, deadline=None)
@given(doc=small_documents())
def test_analyze_fuzz_exits_cleanly_and_deterministically(doc, tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    first = _run_captured(["analyze", "-i", str(path)])
    code, _, err = first
    assert code in (0, 1, 2, 3), (doc, first)
    assert err.count("\n") <= 1, (doc, err)
    assert _run_captured(["analyze", "-i", str(path)]) == first, doc


@st.composite
def complex_documents(draw):
    """2-4 letters, each with an image of 1-3 letters, primitive or not."""
    letters = LETTERS[:draw(st.integers(2, 4))]
    rules = {x: "".join(draw(st.lists(st.sampled_from(letters), min_size=1, max_size=3)))
             for x in letters}
    return {"alphabets": {"x": list(letters)},
            "substitutions": {"s": {"alphabet": "x", "rules": rules}}}


@settings(max_examples=50, deadline=None)
@given(doc=complex_documents())
def test_ap_and_mu_fuzz_exit_cleanly_and_deterministically(doc, tmp_path_factory):
    # mu reaches recognize on the direct limit of the collared complex
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("ap", "mu"):
        argv = [command, "-i", str(path), "--name", "s"]
        first = _run_captured(argv)
        code, _, err = first
        event(f"{command} exit {code}")
        assert code in (0, 1, 2, 3), (doc, argv, first)
        assert err.count("\n") <= 1, (doc, argv, err)
        assert _run_captured(argv) == first, (doc, argv)


@st.composite
def fault_documents(draw):
    """2-3 letters, images of 1-3 letters, and the shuffled twin as bottom;
    optionally a modulus letter.  Primitive or not."""
    letters = LETTERS[:draw(st.integers(2, 3))]
    top = {x: "".join(draw(st.lists(st.sampled_from(letters), min_size=1, max_size=3)))
           for x in letters}
    bottom = {x: "".join(draw(st.permutations(img))) for x, img in top.items()}
    doc = {"alphabets": {"x": list(letters)},
           "substitutions": {"top": {"alphabet": "x", "rules": top},
                             "bottom": {"alphabet": "x", "rules": bottom}}}
    modulus = draw(st.sampled_from([None, *letters]))
    if modulus is not None:
        doc["options"] = {"modulus_letter": modulus}
    return doc


@settings(max_examples=100, deadline=None)
@given(doc=fault_documents(), data=st.data())
def test_fault_fuzz_exits_cleanly_and_deterministically(doc, data, tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["fault", "-i", str(path), "--top", "top", "--bottom", "bottom",
            "--seed", data.draw(st.sampled_from(doc["alphabets"]["x"])),
            "--rounds", str(data.draw(st.integers(4, 10)))]
    # a small state budget, drawn on purpose, trips the cap (exit 3)
    if data.draw(st.booleans()):
        argv += ["--max-states", str(data.draw(st.integers(1, 30)))]
    first = _run_captured(argv)
    code, _, err = first
    event(f"exit {code}")
    assert code in (0, 1, 2, 3), (doc, argv, first)
    assert err.count("\n") <= 1, (doc, argv, err)
    assert _run_captured(argv) == first, (doc, argv)


@st.composite
def dpv_documents(draw):
    """A vertical on 1-3 letters with images of 1-3 letters over 2-3
    horizontal members; each row of each vertical image picks a member.
    The members are the family a -> (a^p b in some order), b -> a^q, or
    shuffled twins of one primitive rule set on three letters, and either
    alphabet is listed in a drawn order.  Half of the verticals are
    primitive by construction (each letter's image holds the next letter,
    and the first letter's holds itself); the rest may not be."""
    letters = LETTERS[:draw(st.integers(1, 3))]
    primitive = draw(st.booleans())
    rules = {}
    for i, x in enumerate(letters):
        img = draw(st.lists(st.sampled_from(letters), min_size=0 if primitive else 1,
                            max_size=1 if primitive else 3))
        if primitive:
            img += [letters[(i + 1) % len(letters)]] + ([x] if i == 0 else [])
        rules[x] = "".join(draw(st.permutations(img)))
    if draw(st.booleans()):
        horizontal = ["a", "b"]
        p, q = draw(st.integers(1, 2)), draw(st.integers(1, 4))
        family = draw(st.lists(st.integers(0, p), min_size=2, max_size=3, unique=True))
        members = {f"s{j}": {"a": "a" * j + "b" + "a" * (p - j), "b": "a" * q} for j in family}
    else:
        # primitive: each letter's image holds the next letter, and a's holds a
        horizontal = ["a", "b", "c"]
        base = {x: draw(st.lists(st.sampled_from(horizontal), max_size=2))
                + ["bca"[i]] + (["a"] if i == 0 else []) for i, x in enumerate(horizontal)}
        members = {f"s{j}": {x: "".join(draw(st.permutations(img))) for x, img in base.items()}
                   for j in range(draw(st.integers(2, 3)))}
    subs = {"rho": {"alphabet": "v", "rules": rules}}
    subs.update((name, {"alphabet": "h", "rules": r}) for name, r in members.items())
    names = list(members)
    return {"alphabets": {"v": draw(st.permutations(letters)),
                          "h": draw(st.permutations(horizontal))},
            "substitutions": subs,
            "dpv": {"vertical": "rho", "horizontal": names,
                    "row_sigma": {x: [draw(st.sampled_from(names)) for _ in img]
                                  for x, img in rules.items()}}}


@settings(max_examples=50, deadline=None)
@given(doc=dpv_documents(), data=st.data())
def test_cohomology_fuzz_exits_cleanly_and_deterministically(doc, data, tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    # the budget guards every boundary trace behind essential_vertices
    argv = ["cohomology", "-i", str(path), "--rounds", str(data.draw(st.integers(4, 8))),
            "--max-states", str(data.draw(st.integers(1, 50) | st.integers(51, 5000)))]
    first = _run_captured(argv)
    code, _, err = first
    event(f"exit {code}")
    assert code in (0, 1, 2, 3), (doc, argv, first)
    assert err.count("\n") <= 1, (doc, argv, err)
    assert _run_captured(argv) == first, (doc, argv)


@settings(max_examples=100, deadline=None)
@given(doc=st.sampled_from(["doubling_swap", "period_doubling", "row_thirds"]) | dpv_documents(),
       data=st.data())
def test_render_fuzz_exits_cleanly_and_deterministically(doc, data, tmp_path_factory):
    if isinstance(doc, str):
        source, doc = f"bundled:{doc}", json.loads(resources.files("faultline").joinpath(
            "data", doc + ".json").read_text("utf-8"))
    else:
        source = str(tmp_path_factory.mktemp("fuzz") / "doc.json")
        pathlib.Path(source).write_text(json.dumps(doc), encoding="utf-8")
    vertical = doc["substitutions"][doc["dpv"]["vertical"]]["alphabet"]
    horizontal = doc["substitutions"][doc["dpv"]["horizontal"][0]]["alphabet"]
    # letters of the document, now and then one that no alphabet holds
    tile = st.builds("{},{}".format, *(st.sampled_from([*doc["alphabets"][name]] * 4 + ["z"])
                                       for name in (vertical, horizontal)))
    # deep patches trip the tile cap (exit 3) on purpose
    k = data.draw(st.integers(0, 3) | st.sampled_from([10 ** 5, 10 ** 9]))
    argv = ["render", "-i", source, "--rounds", str(k)]
    if data.draw(st.booleans()):
        argv += ["--seed", data.draw(tile)]
    if data.draw(st.booleans()):
        argv += ["--colors", ";".join(f"{t}=#102030" for t in data.draw(
            st.lists(tile, min_size=1, max_size=2)))]
    if data.draw(st.booleans()):
        argv += ["--overlay", str(data.draw(st.integers(1, 3) | st.sampled_from([0, 4])))]
    first = _run_captured(argv)
    code, _, err = first
    event(f"exit {code}")
    assert code in (0, 1, 2, 3), (doc, argv, first)
    assert err.count("\n") <= 1, (doc, argv, err)
    assert _run_captured(argv) == first, (doc, argv)


@pytest.mark.parametrize("rounds, message", [
    (10 ** 5, "patch would contain more than 200000 tiles (cap 200000)"),
    (10 ** 9, "patch depth 1000000000 is more than the tile cap 200000"),
])
def test_render_tile_cap_is_one_line_and_fast(rounds, message, monkeypatch):
    # the exact count of a 10^5-round patch has more digits than int() may
    # print, and a 10^9-round one took a minute to compute.  The count makes
    # one pass over the rows of the count matrix per level it expands, so
    # the passes count its levels.
    levels = []

    class Rows(list):
        def __iter__(self):
            levels.append(None)
            return super().__iter__()

    count = render._tile_count
    monkeypatch.setattr(render, "_tile_count",
                        lambda counts, *rest: count(Rows(counts), *rest))
    code, out, err = _run_captured(["render", "-i", "bundled:doubling_swap",
                                    "--rounds", str(rounds)])
    assert (code, out, err) == (3, "", f"resource cap: {message}\n")
    # a depth over the cap is refused before any count; doubling_swap's
    # patch has 185,600 tiles at depth 8 and 853,504 at depth 9, so the
    # count stops at the first level past the cap of 200,000
    assert len(levels) == (0 if rounds > 200_000 else 9)


def test_render_depth_without_growth(tmp_path):
    # u -> u over a -> a: one tile at every depth.  Placement and the overlay
    # once recursed once per level (a RecursionError at depth 5,000); a depth
    # over the tile cap is refused, since every level holds a tile.
    doc = {"alphabets": {"v": ["u"], "h": ["a"]},
           "substitutions": {"rho": {"alphabet": "v", "rules": {"u": "u"}},
                             "s": {"alphabet": "h", "rules": {"a": "a"}}},
           "dpv": {"vertical": "rho", "horizontal": ["s"], "row_sigma": {"u": ["s"]}}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run_captured(["render", "-i", str(path), "--rounds", "5000",
                                    "--overlay", "1"])
    assert (code, out.count("<rect"), err) == (0, 1, "")
    code, out, err = _run_captured(["render", "-i", str(path), "--rounds", str(10 ** 9)])
    assert (code, out) == (3, "")
    assert err == "resource cap: patch depth 1000000000 is more than the tile cap 200000\n"


def test_render_refuses_irrational_vertical_heights(tmp_path):
    # a Fibonacci vertical: its Perron field has degree 2, so its heights are
    # irrational and no integer row placement exists
    doc = {"alphabets": {"v": ["x", "y"], "h": ["a"]},
           "substitutions": {"rho": {"alphabet": "v", "rules": {"x": "xy", "y": "x"}},
                             "s": {"alphabet": "h", "rules": {"a": "aa"}}},
           "dpv": {"vertical": "rho", "horizontal": ["s"],
                   "row_sigma": {"x": ["s", "s"], "y": ["s"]}}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run_captured(["render", "-i", str(path), "--rounds", "2"])
    assert (code, out) == (1, "")
    assert err == ("error: rendering needs rational vertical tile heights "
                   "(irrational vertical expansion is unsupported)\n")


def test_render_refuses_members_of_different_abelianization(tmp_path):
    # rows of s0 and s1 over one letter differ in length, so a patch would
    # have ragged rows; cohomology refuses the document with the same line
    doc = {"alphabets": {"v": ["u"], "h": ["a", "b"]},
           "substitutions": {"rho": {"alphabet": "v", "rules": {"u": "uu"}},
                             "s0": {"alphabet": "h", "rules": {"a": "ab", "b": "a"}},
                             "s1": {"alphabet": "h", "rules": {"a": "abb", "b": "a"}}},
           "dpv": {"vertical": "rho", "horizontal": ["s0", "s1"],
                   "row_sigma": {"u": ["s0", "s1"]}}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for command in ("render", "cohomology"):
        code, out, err = _run_captured([command, "-i", str(path)])
        assert (code, out, err) == (1, "", "error: lengths-0-1: per-letter image lengths differ\n")


def test_fault_estimates_growth_once(monkeypatch):
    # the report's growth ratio is the one estimate; classification reads
    # only its checkpoints
    calls = []
    growth = fault.discrepancy_growth
    for module in (cli, fault):
        monkeypatch.setattr(module, "discrepancy_growth",
                            lambda t: calls.append(t) or growth(t))
    code, out = run_cli("fault", "-i", "bundled:doubling_swap", "--top", "sigma1",
                        "--bottom", "sigma2")
    assert code == 0 and len(calls) == 1
    assert json.loads(out)["growth_ratio"] == [str(x) for x in growth(calls[0])]


def test_render_writes_svg(tmp_path):
    out_path = tmp_path / "patch.svg"
    code, _ = run_cli("render", "-i", "bundled:doubling_swap",
                      "--rounds", "2", "--overlay", "1", "-o", str(out_path))
    assert code == 0
    svg = out_path.read_text()
    assert svg.count("<rect") == 20
    assert svg.count("<line") == 3


def test_reports_are_deterministic():
    runs = [run_cli("cohomology", "-i", "bundled:row_thirds", "--format", "json")[1]
            for _ in range(2)]
    assert runs[0] == runs[1]


def test_document_roundtrip():
    # a document loads the same from its JSON text and from the parsed dict
    for name in bundled_names():
        text = resources.files("faultline").joinpath("data", name + ".json").read_text("utf-8")
        doc = bundled_document(name)
        again = load_document(json.loads(text))
        assert again.alphabets == doc.alphabets
        assert again.substitutions == doc.substitutions
        assert again.dpv == doc.dpv
        assert again.options == doc.options


def test_unknown_fields_rejected(tmp_path):
    bad = {
        "alphabets": {"ab": ["a", "b"]},
        "substitutions": {"s": {"alphabet": "ab", "rules": {"a": "ab", "b": "a"}}},
        "extra": 1,
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _ = run_cli("analyze", "-i", str(path))
    assert code == 1
    with pytest.raises(ValidationError):
        load_document(bad)
    # conjugacy_max_len was an option that nothing read; its old bad-type
    # cases are in test_option_types_rejected_at_load
    del bad["extra"]
    bad["options"] = {"conjugacy_max_len": 8}
    path.write_text(json.dumps(bad))
    buf = io.StringIO()
    with redirect_stderr(buf):
        assert main(["analyze", "-i", str(path)]) == 1
    assert buf.getvalue() == "error: unknown fields in options: ['conjugacy_max_len']\n"


def test_missing_input_is_validation_error():
    code, _ = run_cli("cohomology")
    assert code == 1


def test_text_format():
    code, out = run_cli("analyze", "-i", "bundled:doubling_swap",
                        "--name", "sigma1", "--format", "text")
    assert code == 0
    assert "charpoly: x^2-x-3" in out
    assert "spectral_class: NonPisotExpanding" in out


def test_text_reports_pinned():
    # the text rendering of analyze, ap, mu and cohomology, with their
    # matrices, as written before reports carried tuple rows
    path = pathlib.Path(__file__).parent / "data" / "period_doubling_text_reports.txt"
    blocks = path.read_text(encoding="utf-8").split("$ faultline ")[1:]
    assert [b.split()[0] for b in blocks] == ["analyze", "ap", "mu", "cohomology"]
    for block in blocks:
        command, _, want = block.partition("\n")
        assert run_cli(*command.split()) == (0, want)


def _dumped(report):
    out = io.StringIO()
    cli.dump_report(report, "json", out)
    return out.getvalue()


_AWKWARD = st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n\t", "\u00e9", "\u2028",
                            "\U0001f600", "\ud800", 'a"b\\c', ""])
_TEXT = st.one_of(st.text(), _AWKWARD)
_LEAF = st.one_of(st.none(), st.booleans(), st.integers(),
                  st.integers(-2 ** 300, 2 ** 300), st.sampled_from((-1, 0, 10 ** 100)), _TEXT)
_REPORT = st.recursive(
    _LEAF,
    lambda kids: st.one_of(st.lists(kids, max_size=5), st.tuples(kids, kids),
                           st.lists(kids, max_size=3).map(tuple),
                           st.lists(st.integers(), max_size=4).map(tuple),
                           st.lists(_TEXT, max_size=4),
                           st.dictionaries(_TEXT, kids, max_size=5)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(_REPORT)
def test_report_writer_matches_the_stdlib_encoder(report):
    assert _dumped(report) == reference_dump(report) + "\n"


@pytest.mark.parametrize("name", bundled_names())
def test_report_writer_matches_the_stdlib_encoder_on_bundled_reports(name):
    src = ["-i", f"bundled:{name}"]
    argvs = [["analyze", *src], ["cohomology", *src]]
    argvs += [[cmd, *src, "--name", sub] for cmd in ("ap", "mu")
              for sub in ("sigma1", "sigma2", "rho")]
    argvs += [["fault", *src, "--top", "sigma1", "--bottom", "sigma2", "--seed", seed]
              for seed in ("a", "b")]
    for argv in argvs:
        args = cli._parser().parse_args(argv)
        report, _ = args.func(args)
        assert _dumped(report) == reference_dump(report) + "\n", argv


@pytest.mark.parametrize("report", [1.5, {"a": [1, 2.0]}, {1: "a"}, {"a": {2: None}},
                                    [Fraction(1, 2)], {"a": {1, 2}}])
def test_report_writer_rejects_what_reports_never_hold(report):
    with pytest.raises(TypeError):
        _dumped(report)


def test_undetermined_exit_code(tmp_path):
    doc = {
        "alphabets": {"abc": ["a", "b", "c"]},
        "substitutions": {
            "t1": {"alphabet": "abc", "rules": {"a": "cb", "b": "baa", "c": "b"}},
            "t2": {"alphabet": "abc", "rules": {"a": "cb", "b": "aab", "c": "b"}},
        },
    }
    path = tmp_path / "pisot3.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli("fault", "-i", str(path), "--top", "t1", "--bottom", "t2")
    assert code == 2
    assert json.loads(out)["classification"] == "Undetermined"


def test_env_cap_override(monkeypatch, capsys):
    # the paper pair has 134 overlap states over rounds 1-7, 650 over 1-12
    monkeypatch.setenv("FAULTLINE_MAX_STATES", "100")
    capsys.readouterr()
    assert main(["fault", "-i", "bundled:doubling_swap",
                 "--top", "sigma1", "--bottom", "sigma2", "--rounds", "12"]) == 3
    assert capsys.readouterr().err == (
        "resource cap: boundary trace exceeded the 100-state budget at round 7\n")
    # a flag overrides the environment
    assert main(["fault", "-i", "bundled:doubling_swap", "--top", "sigma1",
                 "--bottom", "sigma2", "--rounds", "12", "--max-states", "650",
                 "-o", os.devnull]) == 0


def test_schema_validation_messages():
    with pytest.raises(ValidationError):
        load_document({"alphabets": {"ab": ["a", "a"]}, "substitutions": {}})
    with pytest.raises(ValidationError):
        load_document({
            "alphabets": {"ab": ["a", "b"]},
            "substitutions": {"s": {"alphabet": "ab", "rules": {"a": "ab"}}},
        })
    with pytest.raises(ValidationError):
        load_document({
            "alphabets": {"ab": ["a", "b"]},
            "substitutions": {"s": {"alphabet": "ab", "rules": {"a": "ab", "b": ""}}},
        })
    # a list or a number where an object or a name belongs
    one = {"alphabets": {"x": ["a"]},
           "substitutions": {"s": {"alphabet": "x", "rules": {"a": "aa"}}}}
    for bad in ({"alphabets": 1}, dict(one, substitutions=[1]),
                dict(one, substitutions={"s": {"alphabet": ["x"], "rules": {"a": "aa"}}}),
                dict(one, dpv={"vertical": ["s"], "horizontal": ["s"], "row_sigma": {}}),
                dict(one, dpv={"vertical": "s", "horizontal": [{}], "row_sigma": {}})):
        with pytest.raises(ValidationError):
            load_document(bad)


@pytest.mark.parametrize("seed, traces", [("a", 1), ("b", 1)])
def test_fault_traces_once_for_seed_zero(monkeypatch, seed, traces):
    # the printed trace is the only one: from seed 0 the report classifies
    # its walk, and from another seed classify_boundary walks seed 0 too
    argv = ("fault", "-i", "bundled:doubling_swap", "--top", "sigma1",
            "--bottom", "sigma2", "--rounds", "8", "--seed", seed)
    _, plain = run_cli(*argv)
    calls = []
    trace = cli.boundary_trace
    monkeypatch.setattr(cli, "boundary_trace", lambda *a, **k: calls.append(a) or trace(*a, **k))
    code, counted = run_cli(*argv)
    assert code == 0
    assert len(calls) == traces
    assert counted == plain
    doc = bundled_document("doubling_swap")
    kind = classify_boundary(OverlapGraph(doc.substitution("sigma1"), doc.substitution("sigma2")),
                             cap=8)
    assert json.loads(counted)["classification"] == kind.value
    if seed == "a":
        assert run_cli(*argv[:-2])[1] == plain


@pytest.mark.parametrize("seed", ["a", "b"])
def test_fault_builds_no_word(monkeypatch, seed):
    # the report reads the rows only through their lengths and 77-letter
    # prefixes, which the row views give without applying a substitution
    traces, applied = [], []
    trace = cli.boundary_trace
    monkeypatch.setattr(cli, "boundary_trace",
                        lambda *a, **k: traces.append(trace(*a, **k)) or traces[-1])
    apply = Substitution.apply
    monkeypatch.setattr(Substitution, "apply", lambda s, w: applied.append(w) or apply(s, w))
    code, _ = run_cli("fault", "-i", "bundled:doubling_swap", "--top", "sigma1",
                      "--bottom", "sigma2", "--seed", seed)
    assert code == 0 and len(traces) == 1
    assert not applied
    monkeypatch.undo()
    for tr in traces:
        for st in tr.steps:
            top = iterate(tr.top_sub, (tr.seed,), st.round)
            bottom = iterate(tr.bottom_sub, (tr.seed,), st.round)
            assert (len(st.top), len(st.bottom)) == (len(top), len(bottom))
            assert tuple(islice(st.top, 77)) == top[:77]
            assert tuple(islice(st.bottom, 77)) == bottom[:77]


@pytest.mark.parametrize("seed", ["a", "b"])
def test_fault_from_any_seed_expands_each_state_once(monkeypatch, seed):
    # --seed a or b on the paper pair: one overlap graph, read by the trace
    # and by the classification.  From seed a the classification reads the
    # trace's walk, which does not close: it walks no round and expands no
    # state.  From seed b it walks seed a up to round 6, where that walk
    # first escapes, and no state is expanded twice
    graphs, expanded, walked = [], [], []
    phase = ["trace"]
    init, expand, step = OverlapGraph.__init__, OverlapGraph._expand, OverlapGraph._step

    def stepped(graph, walk):
        start = next(x for x, w in graph.walks.items() if w is walk)
        walked.append((phase[0], start, len(walk.rounds) + 1))
        return step(graph, walk)

    def classified(*args, **kw):
        phase[0] = "classify"
        return classify_boundary(*args, **kw)

    monkeypatch.setattr(OverlapGraph, "__init__",
                        lambda graph, *a: graphs.append(graph) or init(graph, *a))
    monkeypatch.setattr(OverlapGraph, "_expand",
                        lambda graph, *state: expanded.append((phase[0], state)) or
                        expand(graph, *state))
    monkeypatch.setattr(OverlapGraph, "_step", stepped)
    monkeypatch.setattr(cli, "classify_boundary", classified)
    argv = ("fault", "-i", "bundled:doubling_swap", "--top", "sigma1", "--bottom", "sigma2",
            "--seed", seed)
    code, out = run_cli(*argv)
    assert code == 0 and len(graphs) == 1 and phase == ["classify"]
    start = "ab".index(seed)
    assert [w for w in walked if w[0] == "trace"] == \
        [("trace", start, r) for r in range(1, 13)]
    states = [state for _, state in expanded]
    assert len(states) == len(set(states))
    walked_later = [w[1:] for w in walked if w[0] == "classify"]
    expanded_later = [state for when, state in expanded if when == "classify"]
    monkeypatch.undo()
    if seed == "a":
        assert walked_later == [] and expanded_later == []
    else:
        assert walked_later == [(0, r) for r in range(1, 7)]
        # the states of the walk from a up to round 5 are all states that
        # the 12 rounds of the trace from b expanded (to round 12 the walk
        # from a expanded states of its own)
        assert expanded_later == []
    assert json.loads(out)["classification"] == "RegularFault"
    assert (code, out) == run_cli(*argv)


@pytest.mark.parametrize("name, states", [("doubling_swap", 40), ("period_doubling", 6),
                                           ("row_thirds", 44)])
def test_cohomology_expands_few_states(monkeypatch, name, states):
    # a work count, not a wall time: the overlap states that ``cohomology``
    # expands on each bundled document.  A walk that escapes stops at its
    # first round that escapes; walked to the round cap, as before, these
    # were 222, 95 and 226
    expanded = []
    expand = OverlapGraph._expand
    monkeypatch.setattr(OverlapGraph, "_expand",
                        lambda graph, *state: expanded.append(state) or expand(graph, *state))
    assert run_cli("cohomology", "-i", f"bundled:{name}")[0] == 0
    assert len(expanded) == states


@settings(max_examples=100, deadline=None)
@given(doc=fault_documents(), data=st.data())
def test_fault_bytes_match_a_classification_on_a_fresh_graph(doc, data, tmp_path_factory):
    # the trace and the classification share one graph and so one field,
    # whose refinement the printed enclosures read: the report must be that
    # of a run whose classification walks a second, fresh graph, and that of
    # a run whose classification leaves the shared field refined far deeper
    # than any exact sign needs
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["fault", "-i", str(path), "--top", "top", "--bottom", "bottom",
            "--seed", data.draw(st.sampled_from("ab")),
            "--rounds", str(data.draw(st.integers(4, 10)))]
    shared = _run_captured(argv)
    event(f"exit {shared[0]}")

    def fresh(graph, *args, **kw):
        return classify_boundary(OverlapGraph(graph.top, graph.bottom, graph.max_states),
                                 *args, **kw)

    def deep(graph, *args, **kw):
        cls = classify_boundary(graph, *args, **kw)
        graph.scan.field.refined(Fraction(1, 2 ** 400))
        return cls

    for classify in (fresh, deep):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "classify_boundary", classify)
            assert _run_captured(argv) == shared, (doc, argv, classify.__name__)


def test_fault_traces_past_any_materialisable_row(tmp_path):
    # 24 rounds of the paper pair: 452,841,761 letters per row, which only
    # the letter lengths ever see, under the default state budget
    argv = ["fault", "-i", "bundled:doubling_swap", "--top", "sigma1", "--bottom", "sigma2",
            "--rounds", "24"]
    outs = []
    for i in range(2):
        path = tmp_path / f"deep{i}.json"
        assert main(argv + ["-o", str(path)]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    rows = json.loads(outs[0])["rounds"]
    assert len(rows) == 24
    doc = bundled_document("doubling_swap")
    s1, s2 = doc.substitution("sigma1"), doc.substitution("sigma2")
    trace = boundary_trace(OverlapGraph(s1, s2), "a", 24)
    assert len(trace.steps[-1].top) == 452841761
    widths = _ScanWidths(s1.tile_lengths())
    oracle = list(scan_discrepancy_rounds(s1, s2, 0, 12, widths))
    assert [st.discrepancy_values for st in trace.steps[:12]] == oracle
    assert [row["max_discrepancy"] for row in rows] == list(trace.max_abs_by_round())


def test_fault_prints_rows_longer_than_an_index():
    # equal substitutions keep two states a round, so 60 rounds fit the
    # default budget while the rows pass sys.maxsize letters at round 53
    code, out, err = _run_captured(["fault", "-i", "bundled:doubling_swap", "--top", "sigma1",
                                    "--bottom", "sigma1", "--rounds", "60"])
    assert (code, err) == (0, "")
    rows = json.loads(out)["rounds"]
    sigma1 = bundled_document("doubling_swap").substitution("sigma1")
    trace = boundary_trace(OverlapGraph(sigma1, sigma1), "a", 60)
    assert trace.steps[52].top.length > sys.maxsize >= trace.steps[51].top.length
    for row, st in zip(rows, trace.steps, strict=True):
        text = sigma1.text(islice(st.top, 81))
        assert row["top"] == row["bottom"] == (text if len(text) <= 80 else text[:77] + "...")


@pytest.mark.parametrize("key, value", [
    (key, value)
    for key in ("rounds", "max_states", "precision_bits", "max_tiles", "conjugacy_max_len")
    for value in ("x", True, 0, -3, 2.5, None)
] + [("modulus_letter", v) for v in ("z", 0, True, ["a"])] + [
    ("max_word_len", v) for v in ("x", True, 0, -3, 2.5, None)])
def test_option_types_rejected_at_load(tmp_path, capsys, key, value):
    doc = {
        "alphabets": {"ab": ["a", "b"]},
        "substitutions": {"s": {"alphabet": "ab", "rules": {"a": "ab", "b": "aaa"}}},
        "options": {key: value},
    }
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["fault", "-i", str(path), "--top", "s", "--bottom", "s"]) == 1
    err = capsys.readouterr().err
    if key in ("conjugacy_max_len", "max_word_len", "precision_bits"):
        # a removed option is an unknown field, whatever its value
        assert err == f"error: unknown fields in options: ['{key}']\n"
    else:
        assert err.startswith("error: options.") and err.count("\n") == 1


def test_option_types_accepted():
    doc = load_document({
        "alphabets": {"ab": ["a", "b"]},
        "substitutions": {"s": {"alphabet": "ab", "rules": {"a": "ab", "b": "aaa"}}},
        "options": {"rounds": 5, "max_tiles": 1, "modulus_letter": "b"},
    })
    assert doc.options["rounds"] == 5 and doc.options["modulus_letter"] == "b"
    load_document({
        "alphabets": {"ab": ["a", "b"]},
        "substitutions": {"s": {"alphabet": "ab", "rules": {"a": "ab", "b": "aaa"}}},
        "options": {"modulus_letter": None},
    })


def test_alg_json_interval_depends_on_field_refinement():
    # Reports print enclosures at the field's current refinement.  The same
    # number prints a different interval once an earlier stage (the fault
    # scan refines to 2^-96) has refined its field; pinned so that a change
    # to refinement cannot alter reports unnoticed.
    lam = Substitution(["a", "b"], {"a": "ab", "b": "aaa"}).perron().root
    before = number_json(lam)
    lam.field.refined(Fraction(1, 2 ** 96))
    after = number_json(lam)
    assert before["interval"] == ["648173719000479/281474976710656",
                                  "20255428718765/8796093022208"]
    assert after["interval"] == ["182444682460119172405552533303/79228162514264337593543950336",
                                 "22805585307514896550694066663/9903520314283042199192993792"]
    assert before["decimal"] == after["decimal"] == "2.302775637732"
    assert before["coeffs"] == after["coeffs"]


@pytest.mark.parametrize("colors", ["a", "v,a", "v", "=#112233", "v,a=#112233;", ";v,a=#112233",
                                    'v,a=red" onload="alert(1)', "v,a=<x>"])
def test_render_malformed_colors_rejected(capsys, colors):
    capsys.readouterr()
    code = main(["render", "-i", "bundled:doubling_swap", "--rounds", "1", "--colors", colors])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --colors entries must be") and err.count("\n") == 1


def test_render_colors_applied(tmp_path):
    out_path = tmp_path / "patch.svg"
    code, _ = run_cli("render", "-i", "bundled:doubling_swap", "--rounds", "1",
                      "--colors", "v,a=#112233;v,b=#abcdef", "-o", str(out_path))
    assert code == 0
    svg = out_path.read_text()
    assert svg.count('fill="#112233"') == 2 and svg.count('fill="#abcdef"') == 2


@pytest.mark.parametrize("argv", [
    ("fault", "-i", "bundled:doubling_swap", "--top", "sigma1", "--bottom", "sigma2",
     "--rounds", "-5"),
    ("cohomology", "-i", "bundled:doubling_swap", "--rounds", "0"),
    ("fault", "-i", "bundled:doubling_swap", "--top", "sigma1", "--bottom", "sigma2",
     "--rounds", "0"),
    ("fault", "-i", "bundled:doubling_swap", "--top", "sigma1", "--bottom", "sigma2",
     "--max-states", "-1"),
    ("cohomology", "-i", "bundled:doubling_swap", "--rounds", "-2"),
    ("render", "-i", "bundled:doubling_swap", "--rounds", "-1"),
    ("cohomology", "-i", "bundled:doubling_swap", "--max-states", "0"),
])
def test_bad_flag_values_rejected(capsys, argv):
    capsys.readouterr()
    assert main(list(argv)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --") and "must be an integer >=" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("var, value", [
    ("FAULTLINE_ROUNDS", "0"), ("FAULTLINE_ROUNDS", "-5"), ("FAULTLINE_MAX_STATES", "0"),
    ("FAULTLINE_MAX_TILES", "-1"), ("FAULTLINE_MAX_TILES", "x"),
])
def test_bad_env_caps_rejected(monkeypatch, capsys, var, value):
    monkeypatch.setenv(var, value)
    capsys.readouterr()
    assert main(["cohomology", "-i", "bundled:doubling_swap"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {var} must be an integer") and err.count("\n") == 1


def test_render_zero_rounds_is_the_seed_tile(tmp_path):
    out_path = tmp_path / "patch.svg"
    code, _ = run_cli("render", "-i", "bundled:doubling_swap", "--rounds", "0", "-o", str(out_path))
    assert code == 0
    assert out_path.read_text().count("<rect") == 1


@pytest.mark.parametrize("argv", [
    ("ap", "-i", "bundled:period_doubling", "--name", "rho", "--rounds", "-3",
     "--precision-bits", "-5"),
    ("ap", "-i", "bundled:period_doubling"),
    ("selftest", "--rounds", "-3"),
    ("mu", "-i", "bundled:row_thirds", "--name", "rho", "--max-word-len", "9"),
    ("render", "-i", "bundled:doubling_swap", "--precision-bits", "9"),
    ("frob",),
    ("render", "-i", "bundled:doubling_swap", "--rounds", "1", "--max-word-len", "0"),
    ("render", "-i", "bundled:doubling_swap", "--rounds", "1", "--format", "json"),
    ("selftest", "-o", "selftest.txt"),
    ("selftest", "--format", "text"),
    # the word-length cap that the state budget replaced has no alias
    ("fault", "-i", "bundled:doubling_swap", "--top", "sigma1", "--bottom", "sigma2",
     "--max-word-len", "1000"),
    ("cohomology", "-i", "bundled:doubling_swap", "--max-word-len", "1000"),
    # the precision override that exact spectral classes retired
    ("analyze", "-i", "bundled:doubling_swap", "--precision-bits", "64"),
    ("analyze", "-i", "bundled:doubling_swap", "--precision-bits", "5000"),
])
def test_usage_errors_are_one_line_exit_1(capsys, argv):
    capsys.readouterr()
    assert main(list(argv)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_main_builds_its_parser_once_per_process(monkeypatch):
    calls = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert run_cli("analyze", "-i", "bundled:doubling_swap")[0] == 0
        assert main(["frob"]) == 1
    finally:
        cli._parser.cache_clear()
    assert len(calls) == 1


def test_flags_only_where_a_command_reads_them():
    parser = cli.build_parser()
    commands = parser._subparsers._group_actions[0].choices
    flags = {
        name: sorted(opt for a in sp._actions for opt in a.option_strings
                     if opt.startswith("--") and opt != "--help")
        for name, sp in commands.items()
    }
    report = ["--format", "--input", "--output"]
    assert flags == {
        "analyze": sorted(report + ["--name"]),
        "ap": sorted(report + ["--name"]),
        "mu": sorted(report + ["--name"]),
        "selftest": [],
        "fault": sorted(report + ["--bottom", "--max-states", "--rounds", "--seed", "--top"]),
        "cohomology": sorted(report + ["--max-states", "--rounds"]),
        "render": ["--colors", "--input", "--output", "--overlay", "--rounds", "--seed"],
    }


@pytest.mark.parametrize("name", bundled_names())
def test_cohomology_matches_expected_file(name):
    doc = bundled_document(name)
    _, body = cli._cohomology_report(doc, doc.options)
    assert cli.cohomology_summary(doc.dpv, body) == bundled_expected(name)


@pytest.mark.parametrize("name", ["doubling_swap", "period_doubling", "row_thirds"])
def test_reversed_alphabets_give_the_bundled_groups(name):
    # rules name their letters, so listing every alphabet backwards changes
    # no tiling: the groups, n and the fault junctions are the bundled ones
    # (presentations are conjugated by the reversal)
    raw = json.loads(resources.files("faultline").joinpath("data", name + ".json")
                     .read_text("utf-8"))
    raw["alphabets"] = {key: names[::-1] for key, names in raw["alphabets"].items()}
    doc = load_document(raw)
    _, body = cli._cohomology_report(doc, doc.options)
    got, want = cli.cohomology_summary(doc.dpv, body), bundled_expected(name)

    def groups(summary):
        return {key: (summary[key]["expr"], summary[key]["rank"], summary[key]["det"])
                for key in ("H0", "H1", "H2", "H3", "mu", "nu")}

    assert groups(got) == groups(want)
    assert got["n"] == want["n"]
    assert sorted(got["fault_junction_cores"]) == sorted(want["fault_junction_cores"])


def _count_collars(monkeypatch):
    """Route every faultline reference to ``collar`` through a counter."""
    calls = []
    original = ap_complex.collar

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("faultline"):
            if getattr(module, "collar", None) is original:
                monkeypatch.setattr(module, "collar", counted)
    return calls


@pytest.mark.parametrize("name", bundled_names())
def test_cohomology_collars_the_vertical_substitution_once(monkeypatch, name):
    calls = _count_collars(monkeypatch)
    code, _ = run_cli("cohomology", "-i", f"bundled:{name}")
    assert code == 0
    doc = bundled_document(name)
    # the horizontal substitution for mu, the vertical one for everything else
    assert [s.alphabet for s in calls] == [doc.dpv.horizontal[0].alphabet,
                                           doc.dpv.vertical.alphabet]


def test_selftest_collars_twice_per_document(monkeypatch):
    calls = _count_collars(monkeypatch)
    code, _ = run_cli("selftest")
    assert code == 0
    assert len(calls) == 2 * len(bundled_names())


def test_perron_data_once_per_substitution(monkeypatch):
    # analyze reads the Perron root, the spectral class and the tile lengths
    # of each substitution; fault --seed b traces twice and classifies: one
    # characteristic polynomial per substitution either way
    calls = []
    charpoly = abelian.charpoly
    monkeypatch.setattr(abelian, "charpoly", lambda m: calls.append(m) or charpoly(m))
    code, out = run_cli("analyze", "-i", "bundled:doubling_swap")
    assert code == 0
    assert len(calls) == len(json.loads(out)["substitutions"]) == 3
    calls.clear()
    code, _ = run_cli("fault", "-i", "bundled:doubling_swap", "--top", "sigma1",
                      "--bottom", "sigma2", "--seed", "b")
    assert code == 0 and len(calls) == 1


def test_each_perron_consumer_gets_a_field_of_its_own():
    s = bundled_document("doubling_swap").substitution("sigma1")
    first, second = s.perron(), s.perron()
    assert first.root.field is not second.root.field
    before = second.root.field.root_ints
    first.root.interval(Fraction(1, 2 ** 80))
    assert second.root.field.root_ints == before
    assert s.tile_lengths().field is not s.tile_lengths().field
    assert s.tile_lengths().field.root_ints == before


CIRCLE_QUARTIC = {
    # x^4-x^3-x^2-x+1: a Salem quartic, whose non-real pair on |z| = 1 no
    # rectangle refinement separates from the circle
    "alphabets": {"abcd": ["a", "b", "c", "d"]},
    "substitutions": {"q": {"alphabet": "abcd",
                            "rules": {"a": "ac", "b": "d", "c": "ab", "d": "c"}}},
}


@pytest.mark.parametrize("case", ["missing input", "directory input", "missing output dir",
                                  "precision flag", "precision option"])
def test_unusable_paths_and_precision_are_one_error_line(tmp_path, capsys, case):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(dict(CIRCLE_QUARTIC, options={"precision_bits": 64})))
    argv = {
        "missing input": ["analyze", "-i", str(tmp_path / "nonexistent")],
        "directory input": ["analyze", "-i", str(tmp_path)],
        "missing output dir": ["analyze", "-i", "bundled:doubling_swap",
                               "-o", str(tmp_path / "nonexistent" / "dir" / "x")],
        "precision flag": ["analyze", "-i", "bundled:doubling_swap", "--precision-bits", "5000"],
        "precision option": ["analyze", "-i", str(doc)],
    }[case]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    # the retired precision override is an unknown flag and an unknown field
    if case == "precision flag":
        assert err == "error: unrecognized arguments: --precision-bits 5000\n"
    if case == "precision option":
        assert err == "error: unknown fields in options: ['precision_bits']\n"


def test_render_to_a_missing_directory_is_one_error_line(tmp_path, capsys):
    capsys.readouterr()
    assert main(["render", "-i", "bundled:doubling_swap", "--rounds", "1",
                 "-o", str(tmp_path / "nonexistent" / "x.svg")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and err.count("\n") == 1


FIBONACCI_PRODUCT = {
    # Fibonacci on every row under a Fibonacci vertical: the product of two
    # tiling spaces, whose one boundary is Rigid, so n = 0
    "alphabets": {"h": ["a", "b"], "v": ["v", "w"]},
    "substitutions": {"fib": {"alphabet": "h", "rules": {"a": "ab", "b": "a"}},
                      "rho": {"alphabet": "v", "rules": {"v": "vw", "w": "v"}}},
    "dpv": {"vertical": "rho", "horizontal": ["fib"],
            "row_sigma": {"v": ["fib", "fib"], "w": ["fib"]}},
}


def test_no_fault_vertices_leaves_h1_to_h3_null(tmp_path, capsys):
    # by Kuenneth H^1 is mu (+) nu = Z^4 here, not the nu of the fault formulas
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(FIBONACCI_PRODUCT))
    capsys.readouterr()
    assert main(["cohomology", "-i", str(doc)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    rep = json.loads(captured.out)
    assert rep["essential_vertices"]["n"] == 0
    assert rep["H1"] is None and rep["H2"] is None and rep["H3"] is None
    assert rep["mu"]["expr"] == rep["nu"]["expr"] == "Z^2"


def test_circle_quartic_is_salem(tmp_path):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(CIRCLE_QUARTIC))
    code, out = run_cli("analyze", "-i", str(doc))
    assert code == 0
    entry = json.loads(out)["substitutions"]["q"]
    assert entry["spectral_class"] == "Salem"
    # the printed enclosure is refined to 2^-64 as before, and holds 1
    lo, hi = map(Fraction, entry["second_eigenvalue_modulus"])
    assert lo == 1 - Fraction(1, 2 ** 64) and 1 < hi < 1 + Fraction(1, 2 ** 63)


def _readme_flag_table():
    """{command: (output flags, option flags)} from the command table of
    the README."""
    text = (pathlib.Path(__file__).parent.parent / "README.md").read_text("utf-8")
    table = {}
    for line in text.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 3 or not cells[0].startswith("`"):
            continue
        output, option = ({f for f in cell.split("`") if f.startswith("--")}
                          for cell in cells[1:])
        for command in cells[0].replace("`", "").split(","):
            table[command.strip()] = (output, option)
    return table


def test_readme_flag_table_matches_the_parser():
    # output flags are --output and --format; option flags override a
    # document option (render's --rounds is its patch depth)
    commands = cli.build_parser()._subparsers._group_actions[0].choices
    parser = {}
    for name, sp in commands.items():
        flags = [(opt, a.dest) for a in sp._actions for opt in a.option_strings]
        parser[name] = ({opt for opt, _ in flags if opt in ("--output", "--format")},
                        {opt for opt, dest in flags if dest in documents.DEFAULT_OPTIONS})
    assert _readme_flag_table() == parser


# raw argv: subcommands, flags and values drawn as a user might type them
_COUNTS = (st.integers(-3, 12).map(str)
           | st.sampled_from(["0", "-0", "10" * 20, str(-2 ** 70), "1e3", "1.5", "x", "",
                              "0x10", " 7", "٣", "--rounds", "None"]))
_SMALL_COUNTS = st.integers(-3, 40).map(str) | st.sampled_from(["0", "x", "", "1.0"])
_NAMES = st.sampled_from(["sigma1", "sigma2", "rho", "pd", "s", "", "zz", "a", "b", "a,b",
                          "v,a", "a=#fff", "a,a=red;", "--top"])


_OWN_FLAGS = {
    "analyze": ["-i", "-o", "--format", "--name"],
    "ap": ["-i", "-o", "--format", "--name"],
    "mu": ["-i", "-o", "--format", "--name"],
    "fault": ["-i", "-o", "--format", "--top", "--bottom", "--seed", "--rounds", "--max-states"],
    "cohomology": ["-i", "-o", "--format", "--rounds", "--max-states"],
    "render": ["-i", "-o", "--rounds", "--seed", "--overlay", "--colors"],
}


@st.composite
def raw_argvs(draw, inputs, outputs):
    """A subcommand, then flags mostly of that command and now and then of
    another, each usually with a value: negative, huge and non-numeric
    counts, names from the bundled documents and garbage, good and bad
    paths."""
    command = draw(st.sampled_from([*_OWN_FLAGS, "selftest", "frob", "", "--version", "-h"]))
    values = {
        "--input": inputs, "-i": inputs, "--output": outputs, "-o": outputs,
        "--format": st.sampled_from(["json", "text", "svg", ""]),
        "--name": _NAMES, "--top": _NAMES, "--bottom": _NAMES, "--seed": _NAMES,
        "--colors": _NAMES, "--rounds": _COUNTS, "--overlay": _COUNTS,
        # the state budget stays small, so that a huge --rounds trips it soon
        "--max-states": _SMALL_COUNTS, "--max-word-len": _COUNTS, "--precision-bits": _COUNTS,
    }
    own = _OWN_FLAGS.get(command, [])
    anything = st.sampled_from([*values, "--help", "--rou", "-x", "--", "stray"])
    argv = [command] if command else []
    if own and draw(st.integers(0, 4)):
        argv += ["-i", draw(inputs)]
    for _ in range(draw(st.integers(0, 6))):
        flag = draw(st.sampled_from(own)) if own and draw(st.integers(0, 4)) else draw(anything)
        argv.append(flag)
        if flag in values and draw(st.integers(0, 9)):
            argv.append(draw(values[flag]))
    return argv


@pytest.fixture(scope="module")
def raw_argv_files(tmp_path_factory):
    """Input and output choices: bundled names good and bad, a missing
    file, a directory, a file that is not JSON, a document with a
    non-primitive substitution, JSON text given inline, with a list or an
    object where a name belongs among it; an output file, a directory, a
    file in a missing directory and stdout."""
    root = tmp_path_factory.mktemp("argv")
    (root / "garbage.json").write_bytes(b"\xff\x00 not json")
    (root / "nonprimitive.json").write_text(json.dumps({
        "alphabets": {"x": ["a", "b"]},
        "substitutions": {"s": {"alphabet": "x", "rules": {"a": "ab", "b": "b"}}}}))
    inputs = st.sampled_from([
        "bundled:doubling_swap", "bundled:period_doubling", "bundled:row_thirds",
        "bundled:", "bundled:nope", "bundled:../data/row_thirds", str(root / "missing.json"),
        str(root), str(root / "garbage.json"), str(root / "nonprimitive.json"),
        "{", "{}", '{"alphabets": 1}', ""] + [json.dumps({
            "alphabets": {"x": ["a"]},
            "substitutions": {"s": {"alphabet": alphabet, "rules": {"a": "aa"}}},
            "dpv": {"vertical": vertical, "horizontal": [vertical], "row_sigma": {"a": [0, 0]}}})
            for alphabet, vertical in (("x", "s"), (["x"], "s"), ("x", ["s"]), ("x", {}))])
    outputs = st.sampled_from([str(root / "out"), str(root), str(root / "missing" / "out"), "-"])
    return inputs, outputs


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_raw_argv_fuzz_exits_cleanly(data, raw_argv_files):
    # every argv ends in exit 0-3 with at most one stderr line and no
    # traceback; --help and --version exit through argparse, as the
    # command does.  Environment caps keep every drawn case short.
    argv = data.draw(raw_argvs(*raw_argv_files))
    out, err = io.StringIO(), io.StringIO()
    caps = {"FAULTLINE_MAX_STATES": "300", "FAULTLINE_MAX_TILES": "300"}
    with mock.patch.dict(os.environ, caps), redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    err = err.getvalue()
    event(f"exit {code}")
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    assert err.count("\n") <= 1, (argv, err)
