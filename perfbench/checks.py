"""Output checks for benchmark operations.

Every op's output is checked after its timed call:

* outputs of bundled documents must equal, byte for byte, the golden files
  recorded from the parent program (`golden/`); SVGs are stored as their
  SHA-256 digest and size;
* every JSON report must parse and carry the keys its command promises, and
  its exit code must agree with its classification; `analyze` must report
  the generated matrix, and its largest eigenvalue (numpy) as Perron root;
* every SVG must hold exactly as many `<rect>` elements as the column sum of
  the power of the 2-d count matrix that the generator computed.

`check(op, code, path, golden_dir)` returns None when the output passes and a
one-line reason otherwise.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy

from gen import matrix

# exit codes an op may end with: success and undetermined
ALLOWED_EXITS = (0, 2)

REQUIRED_KEYS = {
    "analyze": {"command", "substitutions"},
    "ap": {"command", "substitution", "border_forcing", "complex", "h1"},
    "mu": {"command", "substitution", "h1_of_tiling_space", "limit", "complex_h1_rank"},
    "fault": {"command", "top", "bottom", "rounds", "classification", "spectral_class",
              "growth_ratio", "distinct_offsets_total"},
    "cohomology": {"command", "H0", "H1", "H2", "H3", "mu", "nu", "d0", "d1",
                   "essential_vertices", "hypotheses", "complex"},
}
CLASSES = {"Rigid", "RegularFault", "Undetermined"}


def golden_path(golden_dir, name, svg):
    return os.path.join(golden_dir, name + (".svg.sha256" if svg else ".json"))


def svg_digest(data):
    return f"{hashlib.sha256(data).hexdigest()} {len(data)}\n"


def check(op, code, path, golden_dir):
    if code not in ALLOWED_EXITS:
        return f"exit code {code}"
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        return f"no output: {exc}"
    command = op.argv[0]
    if op.golden is not None:
        reason = _check_golden(op, data, command == "render", golden_dir)
        if reason:
            return reason
    if command == "render":
        return _check_svg(op, code, data)
    return _check_report(op, code, data)


def _check_golden(op, data, svg, golden_dir):
    path = golden_path(golden_dir, op.golden, svg)
    try:
        with open(path, "rb") as fh:
            want = fh.read()
    except OSError as exc:
        return f"golden file missing: {exc}"
    got = svg_digest(data).encode() if svg else data
    if got != want:
        return f"output differs from golden {os.path.basename(path)}"
    return None


def _check_svg(op, code, data):
    if code != 0:
        return f"render exit code {code}"
    text = data.decode("utf-8")
    if not (text.startswith("<?xml") and text.endswith("</svg>\n")):
        return "SVG is not a complete document"
    rects = text.count("<rect ")
    if rects != op.rects:
        return f"{rects} rects, count matrix says {op.rects}"
    if "--overlay" in op.argv and "<line " not in text:
        return "overlay requested but no boundary lines drawn"
    return None


def _check_report(op, code, data):
    try:
        report = json.loads(data)
    except ValueError as exc:
        return f"invalid JSON: {exc}"
    command = op.argv[0]
    missing = REQUIRED_KEYS[command] - set(report)
    if missing:
        return f"missing keys {sorted(missing)}"
    if report["command"] != command:
        return f"report command {report['command']!r}"
    return getattr(_Structure, command)(op, code, report)


class _Structure:
    """Per-command consistency checks; each returns None or a reason."""

    @staticmethod
    def analyze(op, code, report):
        if code != 0:
            return f"analyze exit code {code}"
        for name, entry in report["substitutions"].items():
            if op.doc is not None:
                alphabet = op.doc["alphabets"]["x"]
                want = matrix(alphabet, op.doc["substitutions"][name]["rules"])
                if entry["matrix"] != want:
                    return f"matrix of {name} differs from its rules"
            if entry["primitive"] is not True or "tile_lengths" not in entry:
                return f"{name} not reported primitive with tile lengths"
            # the Perron root of a primitive matrix is its largest eigenvalue
            perron = max(numpy.linalg.eigvals(numpy.array(entry["matrix"], dtype=float)).real)
            got = float(entry["perron_root"]["decimal"])
            if abs(got - perron) > 1e-9 * max(1.0, perron):
                return f"perron root of {name} is {got}, largest eigenvalue {perron:.12f}"
        return None

    @staticmethod
    def ap(op, code, report):
        cx = report["complex"]
        if code != 0:
            return f"ap exit code {code}"
        if report["h1"]["rank"] != len(cx["edges"]) - len(cx["vertices"]) + 1:
            return "H^1 rank is not edges - vertices + 1"
        return None

    @staticmethod
    def mu(op, code, report):
        if code != 0:
            return f"mu exit code {code}"
        if not report["h1_of_tiling_space"].get("expr"):
            return "mu has no group expression"
        return None

    @staticmethod
    def fault(op, code, report):
        rounds = int(op.argv[op.argv.index("--rounds") + 1])
        if len(report["rounds"]) != rounds:
            return f"{len(report['rounds'])} rounds reported, {rounds} asked"
        cls = report["classification"]
        if cls not in CLASSES:
            return f"unknown classification {cls!r}"
        if (code == 2) != (cls == "Undetermined"):
            return f"exit code {code} with classification {cls}"
        return None

    @staticmethod
    def cohomology(op, code, report):
        if report["H0"]["expr"] != "Z":
            return f"H0 is {report['H0']['expr']}"
        if (code == 0) != (report["H2"] is not None):
            return f"exit code {code} with H2 {report['H2']}"
        return None
