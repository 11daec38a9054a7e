"""Command line: analyze, ap, mu, fault, cohomology, render, selftest.

Reports are JSON (canonical: sorted keys, exact rationals as strings) with a
human-readable text rendering layered on top.  Exit codes: 0 success,
1 validation failure, 2 undetermined classification, 3 resource cap.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii as _quote

from . import __version__
from .abelian import poly_str
from .algebra import clear_denominators, decimal_string
from .ap_complex import border_forcing, collar, graph_h1
from .documents import (
    bundled_document,
    bundled_expected,
    bundled_names,
    check_count,
    load_document,
)
from .dpv import cohomology, h1_limit
from .errors import FaultlineError, ResourceCapError, ValidationError
from .fault import (
    BoundaryKind,
    OverlapGraph,
    boundary_trace,
    classify_boundary,
    discrepancy_growth,
    min_gap_vector,
    offset_statistics,
)
from .render import emit_svg, generate_patch, overlay_boundaries
EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_UNDETERMINED = 2
EXIT_RESOURCE = 3

# an SVG fill the patch may carry: nothing that could end the attribute
_COLOR = re.compile(r"#[0-9A-Fa-f]{3}|#[0-9A-Fa-f]{6}|[A-Za-z]+")

_ENV_CAPS = {
    "FAULTLINE_MAX_STATES": "max_states",
    "FAULTLINE_MAX_TILES": "max_tiles",
    "FAULTLINE_ROUNDS": "rounds",
}


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _decimal12(q):
    q = Fraction(q)
    return decimal_string(q.numerator, q.denominator, 12)


def alg_json(field, nums, den):
    """The element of ``field`` with integer coefficient vector nums / den
    (den > 0), as reports print it."""
    # The enclosure is taken at the field's current refinement, so these
    # strings depend on how far earlier stages refined the field (the fault
    # scan refines it to 2^-96); changing that refinement changes reports.
    # Enclosures decide the same way on a positive multiple of (nums, den),
    # so a vector not in lowest terms prints and refines as its reduced form.
    a, b, e = field.enclose(nums, den, Fraction(1, 2 ** 48))
    return {
        "poly": poly_str(field.poly),
        "coeffs": [str(Fraction(c, den)) for c in nums],
        "interval": [str(Fraction(a, e)), str(Fraction(b, e))],
        "decimal": _decimal12(Fraction(a + b, 2 * e)),
    }


def group_json(expr):
    if expr is None:
        return None
    return {
        "expr": expr.canonical(),
        "rank": expr.rank(),
        "det": expr.det_class(),
        "presentation": expr.presentation_matrix(),
    }


def dlg_json(g, recognized):
    """A direct limit with ``recognized``, the caller's ``recognize(g)``."""
    return {
        "n": g.n,
        "a": g.a,
        "r": g.r,
        "a_prime": g.a_prime,
        "charpoly": poly_str(g.charpoly_prime),
        "det": g.det_prime,
        "recognized": recognized.canonical(),
    }


def complex_json(cx):
    slots = lambda cls: sorted(f"{cx.edge_names[e]}.{side}" for e, side in cls)
    return {
        "edges": cx.edge_names,
        "collared_left": cx.collared_left,
        "collared_right": cx.collared_right,
        "edge_map": {
            cx.edge_names[i]: [cx.edge_names[j] for j in img]
            for i, img in enumerate(cx.edge_map)
        },
        "edge_matrix": cx.edge_matrix,
        "vertices": [slots(cls) for cls in cx.vertices],
        "vertex_map": cx.vertex_map,
        "transitions": [[cx.edge_names[e], cx.edge_names[f]] for e, f in cx.transitions],
    }


def essential_json(ev):
    return {
        "eventual": ev.eventual,
        "n": ev.n,
        "vertices": [
            {
                "vertex": vb.vertex,
                "lower": vb.lower,
                "upper": vb.upper,
                "lower_core": vb.lower_core,
                "upper_core": vb.upper_core,
                "class": vb.kind.value,
                "cycle_length": vb.cycle_length,
                "top_sigmas": vb.top_sigmas,
                "bottom_sigmas": vb.bottom_sigmas,
            }
            for vb in ev.vertices
        ],
    }


def _json(node, pad):
    """``node`` as ``json.dumps(node, sort_keys=True, indent=2)`` writes it,
    with ``pad`` the indent of the line it starts on.  Reports hold only
    dicts with str keys, lists, tuples (written as lists), str, int, bool and
    None; anything else is a TypeError."""
    if isinstance(node, str):
        return _quote(node)
    if node is None:
        return "null"
    if node is True:
        return "true"
    if node is False:
        return "false"
    if isinstance(node, int):
        return int.__repr__(node)
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(node, dict):
        if not node:
            return "{}"
        if not all(isinstance(k, str) for k in node):
            raise TypeError("report keys must be str")
        body = sep.join([_quote(k) + ": " + _json(v, inner) for k, v in sorted(node.items())])
        return "{\n" + inner + body + "\n" + pad + "}"
    if isinstance(node, (list, tuple)):
        if not node:
            return "[]"
        kinds = set(map(type, node))
        if kinds == {int}:
            body = sep.join(map(int.__repr__, node))
        elif kinds == {str}:
            body = sep.join(map(_quote, node))
        else:
            body = sep.join([_json(v, inner) for v in node])
        return "[\n" + inner + body + "\n" + pad + "]"
    raise TypeError(f"a report cannot hold a {type(node).__name__}")


def dump_report(report, fmt, out):
    if fmt == "json":
        out.write(_json(report, ""))
        out.write("\n")
    else:
        _dump_text(report, out)


def _dump_text(node, out, indent=0):
    pad = "  " * indent
    if isinstance(node, dict):
        for k in sorted(node):
            v = node[k]
            if isinstance(v, (dict, list, tuple)):
                out.write(f"{pad}{k}:\n")
                _dump_text(v, out, indent + 1)
            else:
                out.write(f"{pad}{k}: {v}\n")
    elif isinstance(node, (list, tuple)):
        for v in node:
            if (isinstance(v, (list, tuple))
                    and all(not isinstance(x, (dict, list, tuple)) for x in v)):
                out.write(f"{pad}- [{', '.join(str(x) for x in v)}]\n")
            elif isinstance(v, (dict, list, tuple)):
                _dump_text(v, out, indent)
                out.write("\n" if indent == 0 else "")
            else:
                out.write(f"{pad}- {v}\n")
    else:
        out.write(f"{pad}{node}\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _load(args):
    if args.input is None:
        raise ValidationError("--input is required (a path or bundled:<name>)")
    if args.input.startswith("bundled:"):
        return bundled_document(args.input.split(":", 1)[1])
    return load_document(args.input)


def _apply_env(options):
    for var, key in _ENV_CAPS.items():
        if var in os.environ:
            try:
                val = int(os.environ[var])
            except ValueError:
                raise ValidationError(f"{var} must be an integer")
            options[key] = check_count(var, val)
    return options


def _options(doc, args, flags=("rounds", "max_states")):
    """Effective options: document options, then environment caps, then
    the command-line ``flags``."""
    opts = _apply_env(dict(doc.options))
    for key in flags:
        val = getattr(args, key, None)
        if val is not None:
            opts[key] = check_count("--" + key.replace("_", "-"), val)
    return opts


def cmd_analyze(args):
    doc = _load(args)
    names = [args.name] if args.name else sorted(doc.substitutions)
    report = {"command": "analyze", "substitutions": {}}
    for name in names:
        s = doc.substitution(name)
        pd = s.perron()
        sc = s.spectral_class()
        entry = {
            "alphabet": s.alphabet,
            "rules": {l.name: s.text(r) for l, r in zip(s.letters, s.rules)},
            "matrix": s.matrix(),
            "charpoly": poly_str(pd.charpoly),
            "perron_root": alg_json(pd.root.field, *clear_denominators(pd.root.coeffs)),
            "primitive": pd.primitive,
            "spectral_class": sc.kind.value,
            "second_eigenvalue_modulus": [str(sc.second_eigenvalue_modulus[0]),
                                          str(sc.second_eigenvalue_modulus[1])],
            "degenerate": bool(pd.root.is_rational() and pd.root.as_fraction() == 1),
        }
        if pd.primitive:
            lengths = s.tile_lengths()
            entry["tile_lengths"] = {
                l.name: alg_json(lengths.field, v, lengths.den)
                for l, v in zip(s.letters, lengths.vectors)
            }
        report["substitutions"][name] = entry
    return report, EXIT_OK


def _warn_nonprimitive(args, s):
    """A one-line stderr warning when the substitution that ``ap``/``mu``
    collared is not primitive; the report is the same either way.  ``main``
    prints ``args.warning`` once the report is written, so an error stays
    the only stderr line."""
    if not s.is_primitive():
        args.warning = (f"warning: substitution {args.name!r} is not primitive; its legal "
                        "words are the union over all letters")


def cmd_ap(args):
    s = _load(args).substitution(args.name)
    _, cx = collar(s)
    data = graph_h1(cx)
    right, left = border_forcing(s)
    report = {
        "command": "ap",
        "substitution": args.name,
        "border_forcing": {"right_forced_in": right, "left_forced_in": left},
        "complex": complex_json(cx),
        "h1": {
            "rank": data.h1_rank,
            "basis": data.h1_basis,
            "induced": data.induced_h1,
        },
    }
    _warn_nonprimitive(args, s)
    return report, EXIT_OK


def cmd_mu(args):
    s = _load(args).substitution(args.name)
    expr, dl, note, data = h1_limit(collar(s)[1])
    report = {
        "command": "mu",
        "substitution": args.name,
        "h1_of_tiling_space": group_json(expr),
        "limit": dlg_json(dl, expr),
        "complex_h1_rank": data.h1_rank,
        "note": note["detail"],
    }
    _warn_nonprimitive(args, s)
    return report, EXIT_OK


def cmd_fault(args):
    doc = _load(args)
    opts = _options(doc, args)
    top = doc.substitution(args.top)
    bottom = doc.substitution(args.bottom)
    rounds = opts["rounds"]
    seed = args.seed or top.alphabet[0]
    modulus = None
    if opts.get("modulus_letter") is not None:
        modulus = top.word([opts["modulus_letter"]])[0]
    graph = OverlapGraph(top, bottom, opts["max_states"])
    trace = boundary_trace(graph, seed, rounds, modulus=modulus)
    growth = discrepancy_growth(trace)
    stats = offset_statistics(trace)
    field, den = trace.widths.field, trace.widths.den

    def number(v):
        return alg_json(field, v, den) if v is not None else None

    rows = []
    prev_max = None
    # the first 80 letters of both rows (one alphabet), read off the round before's
    heads = zip(top.prefixes(trace.seed, 81), bottom.prefixes(trace.seed, 81))
    next(heads)
    for st in trace.steps:
        shown = [top.text(w) if len(w) <= 80 else top.text(w[:77]) + "..." for w in next(heads)]
        gap = min_gap_vector(field, den, st.offset_vectors)
        step_ratio = _decimal12(Fraction(st.max_abs_discrepancy, prev_max)) if prev_max else None
        prev_max = st.max_abs_discrepancy
        rows.append({
            "round": st.round,
            "top": shown[0],
            "bottom": shown[1],
            "max_discrepancy": st.max_abs_discrepancy,
            "distinct_offsets": len(st.offset_vectors),
            "min_gap": number(gap),
            "growth_step": step_ratio,
            "offsets": ([number(o) for o in st.offset_vectors]
                        if len(st.offset_vectors) <= 12 else None),
        })
    report = {
        "command": "fault",
        "top": args.top,
        "bottom": args.bottom,
        "seed": seed,
        "rounds": rows,
        "growth_ratio": [str(growth[0]), str(growth[1])],
        "distinct_offsets_total": stats.distinct_count,
        "min_offset_gap": number(stats.min_gap_vector),
    }
    # the classification reads the trace's walks and walks the other seeds on
    # the same graph, whose exact signs refine the field printed above: it
    # comes after everything that prints an enclosure
    kind = classify_boundary(graph, rounds)
    report["classification"] = kind.value
    report["spectral_class"] = top.spectral_class().kind.value
    code = EXIT_UNDETERMINED if kind is BoundaryKind.UNDETERMINED else EXIT_OK
    return report, code


def _cohomology_report(doc, opts):
    rep = cohomology(doc.dpv, cap=opts["rounds"], max_states=opts["max_states"])
    body = {
        "H0": group_json(rep.h0),
        "H1": group_json(rep.h1),
        "H2": group_json(rep.h2),
        "H3": group_json(rep.h3),
        "H_above_3": rep.hk_above_3.canonical(),
        "mu": group_json(rep.mu),
        "mu_presentation": rep.mu_group.a_prime,
        "nu": group_json(rep.nu),
        "nu_presentation": rep.nu_group.a_prime,
        "d0": dlg_json(rep.d0, rep.d0_recognized),
        "d1": dlg_json(rep.d1, rep.d1_recognized),
        "d1_recognized": rep.d1_recognized.canonical(),
        "essential_vertices": essential_json(rep.essential),
        "hypotheses": rep.hypothesis_log,
    }
    if rep.variants:
        body["variants"] = [
            {"n": n, "H2": group_json(h2), "H3": group_json(h3)} for (n, h2, h3) in rep.variants
        ]
    return rep, body


def cmd_cohomology(args):
    doc = _load(args)
    if doc.dpv is None:
        raise ValidationError("document has no dpv section")
    opts = _options(doc, args)
    rep, body = _cohomology_report(doc, opts)
    body["command"] = "cohomology"
    body["complex"] = complex_json(doc.dpv.vertical_complex)
    code = EXIT_OK if rep.determinate else EXIT_UNDETERMINED
    return body, code


def cmd_render(args):
    doc = _load(args)
    if doc.dpv is None:
        raise ValidationError("document has no dpv section")
    # --rounds is the patch depth here, not the rounds option; 0 is the seed tile
    opts = _options(doc, args, flags=())
    k = 3 if args.rounds is None else check_count("--rounds", args.rounds, least=0)
    d = doc.dpv
    if args.seed:
        if "," not in args.seed:
            raise ValidationError("--seed must be '<vertical>,<horizontal>'")
        vn, hn = args.seed.split(",", 1)
        seed = (d.vertical.word([vn])[0], d.horizontal[0].word([hn])[0])
    else:
        seed = (0, 0)
    colors = {}
    if args.colors:
        for part in args.colors.split(";"):
            tile, _, color = part.partition("=")
            if "," not in tile or not _COLOR.fullmatch(color):
                raise ValidationError(f"--colors entries must be '<vertical>,<horizontal>="
                                      f"<color>' with a color #rgb, #rrggbb or a name, "
                                      f"got {part!r}")
            vn, hn = tile.split(",", 1)
            colors[(d.vertical.word([vn])[0], d.horizontal[0].word([hn])[0])] = color
    patch = generate_patch(d, seed, k, max_tiles=opts["max_tiles"])
    overlay = ()
    if args.overlay is not None:
        overlay = overlay_boundaries(d, seed, k, args.overlay)
    svg = emit_svg(patch, colors=colors, overlay=overlay)
    _write(args.output, lambda fh: fh.write(svg))
    return None, EXIT_OK


# ---------------------------------------------------------------------------
# selftest: the three bundled examples against their expected reports
# ---------------------------------------------------------------------------

def cohomology_summary(d, body):
    """The figures of the cohomology report body ``body`` of the DPV ``d``
    that ``data/<name>.expected.json`` pins for each bundled document."""
    cx = d.vertical_complex
    essential = body["essential_vertices"]
    summary = {key: body[key] for key in
               ("H0", "H1", "H2", "H3", "mu", "mu_presentation", "nu", "d1_recognized")}
    summary.update(
        n=essential["n"],
        eventual=len(essential["eventual"]),
        edges=cx.n_edges,
        vertices=cx.n_vertices,
        fault_junction_cores=[
            [vb["lower_core"], vb["upper_core"]] for vb in essential["vertices"]
            if vb["class"] == BoundaryKind.REGULAR_FAULT.value
        ],
    )
    # as the expected file holds it: matrices as lists of lists
    return json.loads(_json(summary, ""))


def _check_example(name, out):
    doc = bundled_document(name)
    opts = _apply_env(dict(doc.options))
    _, body = _cohomology_report(doc, opts)
    got = cohomology_summary(doc.dpv, body)
    want = bundled_expected(name)
    failures = [
        f"{key}: got {got.get(key)!r}, want {want.get(key)!r}"
        for key in sorted(set(got) | set(want)) if got.get(key) != want.get(key)
    ]
    if failures:
        out.write(f"FAIL {name}\n")
        for f in failures:
            out.write(f"  {f}\n")
        return False
    out.write(f"PASS {name}\n")
    return True


def cmd_selftest(args):
    out = sys.stdout
    ok = 0
    names = bundled_names()
    for name in names:
        if _check_example(name, out):
            ok += 1
    out.write(f"{ok}/{len(names)} examples pass\n")
    return None, (EXIT_OK if ok == len(names) else EXIT_VALIDATION)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors are validation errors: one line on stderr, exit 1."""

    def error(self, message):
        raise ValidationError(message)


_FLAG_HELP = {
    "rounds": "iteration cap override",
    "max_states": "overlap-state budget per trace override",
}


def build_parser():
    p = _Parser(
        prog="faultline",
        description="Fault lines and Cech cohomology of DPV substitution tiling spaces",
    )
    p.add_argument("--version", action="version", version=f"faultline {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, *flags, report=True):
        """Input and output, the report format when the command writes a
        ``report``, plus the option overrides ``flags`` that it reads."""
        sp.add_argument("--input", "-i", help="input document path or bundled:<name>")
        sp.add_argument("--output", "-o", help="output path (default stdout)")
        if report:
            sp.add_argument("--format", choices=("json", "text"), default="json")
        for key in flags:
            sp.add_argument("--" + key.replace("_", "-"), type=int, dest=key,
                            help=_FLAG_HELP[key])

    sp = sub.add_parser("analyze", help="spectral report for substitutions")
    common(sp)
    sp.add_argument("--name", help="substitution to analyze (default: all)")
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("ap", help="Anderson-Putnam complex of a substitution")
    common(sp)
    sp.add_argument("--name", required=True)
    sp.set_defaults(func=cmd_ap)

    sp = sub.add_parser("mu", help="H^1 of a substitution tiling space as a direct limit")
    common(sp)
    sp.add_argument("--name", required=True)
    sp.set_defaults(func=cmd_mu)

    sp = sub.add_parser("fault", help="boundary trace and classification for a pair")
    common(sp, "rounds", "max_states")
    sp.add_argument("--top", required=True, help="substitution above the boundary")
    sp.add_argument("--bottom", required=True, help="substitution below the boundary")
    sp.add_argument("--seed", help="seed letter (default: first letter)")
    sp.set_defaults(func=cmd_fault)

    sp = sub.add_parser("cohomology", help="H^0..H^3 of the DPV tiling space")
    common(sp, "rounds", "max_states")
    sp.set_defaults(func=cmd_cohomology)

    sp = sub.add_parser("render", help="SVG patch of the DPV tiling")
    common(sp, report=False)
    sp.add_argument("--rounds", type=int, help="patch depth in substitution rounds (default 3)")
    sp.add_argument("--seed", help="seed tile as '<vertical>,<horizontal>'")
    sp.add_argument("--overlay", type=int, help="draw boundaries of order-j supertile rows")
    sp.add_argument("--colors", help="tile colors: 'v,h=#rrggbb;...'")
    sp.set_defaults(func=cmd_render)

    sp = sub.add_parser("selftest", help="run the bundled examples against expected reports")
    sp.set_defaults(func=cmd_selftest)
    return p


@cache
def _parser():
    """The parser of ``main``, built once per process."""
    return build_parser()


def _write(path, emit):
    """``emit(fh)`` on stdout, or on the file ``path`` unless that is None or
    "-"; a file that cannot be opened or written is a ValidationError."""
    if not path or path == "-":
        emit(sys.stdout)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            emit(fh)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror}") from None


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        report, code = args.func(args)
        if report is not None:
            _write(args.output, lambda fh: dump_report(report, args.format, fh))
        if getattr(args, "warning", None):
            print(args.warning, file=sys.stderr)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except FaultlineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return code


if __name__ == "__main__":
    sys.exit(main())
