"""Patch generation exactness and SVG output."""

import hashlib
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import event, given, settings, strategies as st

from faultline.abelian import matpow
from faultline.algebra import times_root
from faultline.cli import main
from faultline.documents import bundled_document, load_document
from faultline.errors import FaultlineError, ResourceCapError, ValidationError
from faultline.algebra import NumberField
from faultline.render import (
    _PALETTE,
    Lattice,
    Patch,
    PlacedTile,
    _tile_count,
    emit_svg,
    generate_patch,
    overlay_boundaries,
)
from faultline.substitution import Substitution

from conftest import (
    enclosure_emit_svg,
    gen,
    numbers,
    one,
    reference_interval,
    tile_emit_svg,
    zero,
)


@pytest.fixture
def doubling_swap():
    return bundled_document("doubling_swap").dpv


@pytest.fixture
def pd_dpv():
    return bundled_document("period_doubling").dpv


def rows_by_height(patch):
    """The tiles of a patch by bottom edge, each row in placement order."""
    by_row = {}
    for t in patch.tiles:
        by_row.setdefault(t.yn, []).append(t)
    return by_row


def test_patch_first_round(doubling_swap):
    patch = generate_patch(doubling_swap, (0, 0), 1)
    assert len(patch) == 4
    lattice = patch.lattice
    widths = lattice.widths
    # lambda is (0, 1) and 3 is (3, 0) over the denominator 1
    assert lattice.den_x == 1 and lattice.vector(widths[0]) == (0, 1)
    by_row = rows_by_height(patch)
    assert sorted(by_row) == [0, 1]
    bottom, top = by_row[0], by_row[1]
    # bottom row: b then a; top row: a then b
    assert [t.tile[1] for t in bottom] == [1, 0]
    assert [t.tile[1] for t in top] == [0, 1]
    for row in (bottom, top):
        # contiguous: next left edge is exactly the previous right edge
        assert row[0].xn == 0
        assert row[0].xn + widths[row[0].tile[1]] == row[1].xn
        # the full row spans lambda^2 exactly (the eigen-identity lambda+3)
        right = lattice.vector(row[1].xn + widths[row[1].tile[1]])
        assert right == times_root((0, 1), lattice.field.poly) == (3, 1)


def test_patch_zero_rounds(doubling_swap):
    patch = generate_patch(doubling_swap, (0, 1), 0)
    assert len(patch) == 1
    assert patch.tiles[0].tile == (0, 1)
    lattice, lengths = patch.lattice, doubling_swap.horizontal[0].tile_lengths()
    assert lattice.den_x == lengths.den
    assert lattice.vector(lattice.widths[1]) == lengths.vectors[1]


def test_patch_counts_match_matrix_powers(doubling_swap, pd_dpv):
    for d, kmax in ((doubling_swap, 5), (pd_dpv, 4)):
        cm = d.count_matrix()
        for k in range(kmax + 1):
            patch = generate_patch(d, (0, 0), k)
            counts = Counter(t.tile for t in patch.tiles)
            power = matpow(cm, k)
            col = d.tile_index(0, 0)
            for v in range(d.vertical.size):
                for h in range(d.horizontal[0].size):
                    assert counts.get((v, h), 0) == power[d.tile_index(v, h)][col]


def test_patch_rows_tile_exactly(doubling_swap):
    for k in (2, 3):
        patch = generate_patch(doubling_swap, (0, 0), k)
        lattice = patch.lattice
        by_row = rows_by_height(patch)
        assert len(by_row) == 2 ** k
        # lambda^k times the width of the seed tile a
        width_target = lattice.vector(lattice.widths[0])
        for _ in range(k):
            width_target = times_root(width_target, lattice.field.poly)
        for row in by_row.values():
            assert row[0].xn == 0
            for t1, t2 in zip(row, row[1:]):
                assert t1.xn + lattice.widths[t1.tile[1]] == t2.xn
            last = row[-1]
            assert lattice.vector(last.xn + lattice.widths[last.tile[1]]) == width_target
        assert lattice.vector(patch.right) == width_target


def test_patch_resource_cap(doubling_swap):
    with pytest.raises(ResourceCapError):
        generate_patch(doubling_swap, (0, 0), 6, max_tiles=100)


def test_overlay_boundaries(doubling_swap):
    assert overlay_boundaries(doubling_swap, (0, 0), 2, 1) == (
        Fraction(1), Fraction(2), Fraction(3),
    )
    assert overlay_boundaries(doubling_swap, (0, 0), 2, 2) == (Fraction(2),)
    with pytest.raises(ValidationError):
        overlay_boundaries(doubling_swap, (0, 0), 2, 3)


def test_svg_single_tile(doubling_swap):
    svg = emit_svg(generate_patch(doubling_swap, (0, 0), 0))
    assert svg.count("<rect") == 1
    assert svg.startswith("<?xml")
    assert svg.rstrip().endswith("</svg>")


def test_svg_first_round(doubling_swap):
    svg = emit_svg(generate_patch(doubling_swap, (0, 0), 1))
    assert svg.count("<rect") == 4
    fills = {line.split('fill="')[1].split('"')[0] for line in svg.splitlines() if "<rect" in line}
    assert len(fills) == 2


def test_svg_overlay_lines(doubling_swap):
    patch = generate_patch(doubling_swap, (0, 0), 2)
    svg = emit_svg(patch, overlay=overlay_boundaries(doubling_swap, (0, 0), 2, 1))
    assert svg.count("<line") == 3


def test_svg_deterministic(doubling_swap):
    patch = generate_patch(doubling_swap, (0, 0), 2)
    assert emit_svg(patch) == emit_svg(patch)


def test_svg_custom_colors(doubling_swap):
    patch = generate_patch(doubling_swap, (0, 0), 1)
    svg = emit_svg(patch, colors={(0, 0): "#112233"})
    assert "#112233" in svg


# ---------------------------------------------------------------------------
# reference renderer: Fraction / AlgebraicNumber placement and Fraction
# interval enclosures, the bodies the integer lattice replaced
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReferenceTile:
    tile: tuple
    x: object
    y: Fraction
    width: object
    height: Fraction


def reference_generate_patch(d, seed, k):
    v0, h0 = seed
    widths = numbers(d.horizontal[0].tile_lengths())
    heights = tuple(h.as_fraction() for h in numbers(d.vertical.tile_lengths()))
    field = widths[0].field
    lam_v = d.vertical.perron().root.as_fraction()
    lam_h = gen(field)
    lam_h_pow = [one(field)]
    for _ in range(k):
        lam_h_pow.append(lam_h_pow[-1] * lam_h)
    out = []

    def place(v, h, x, y, rounds):
        if rounds == 0:
            out.append(ReferenceTile(tile=(v, h), x=x, y=y,
                                     width=widths[h], height=heights[v]))
            return
        y_cursor = y
        for row in d.image_array(v, h):
            x_cursor = x
            row_height = heights[row[0][0]] * lam_v ** (rounds - 1)
            for (v2, h2) in row:
                place(v2, h2, x_cursor, y_cursor, rounds - 1)
                x_cursor = x_cursor + widths[h2] * lam_h_pow[rounds - 1]
            y_cursor = y_cursor + row_height

    place(v0, h0, zero(field), Fraction(0), k)
    return out


def reference_fmt(q):
    q = Fraction(q)
    scaled = q * 10 ** 9
    n = scaled.numerator // scaled.denominator
    if scaled - n >= Fraction(1, 2):
        n += 1
    sign = "-" if n < 0 else ""
    n = abs(n)
    whole, frac = divmod(n, 10 ** 9)
    return f"{sign}{whole}.{frac:09d}".rstrip("0").rstrip(".") or "0"


def reference_round(x, scale):
    """reference_fmt of the exact x * scale: an enclosure of x refined until
    both its ends print alike, so every value between prints so too."""
    width = Fraction(1, 10 ** 12)
    while True:
        iv = reference_interval(x, width)
        lo, hi = reference_fmt(iv.lo * scale), reference_fmt(iv.hi * scale)
        if lo == hi:
            return lo
        width /= 2 ** 32


def reference_emit_svg(patch, colors=None, overlay=(), scale=24):
    right = max(t.x + t.width for t in patch)
    height_frac = max(t.y + t.height for t in patch)
    w = reference_round(right, scale)
    h = reference_fmt(height_frac * scale)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w} {h}" '
        f'width="{w}" height="{h}">',
    ]
    tile_ids = sorted({t.tile for t in patch})
    color_of = {}
    for i, tid in enumerate(tile_ids):
        color_of[tid] = (colors or {}).get(tid) or _PALETTE[i % len(_PALETTE)]
    for t in patch:
        y = (height_frac - t.y - t.height) * scale
        th = t.height * scale
        lines.append(
            f'<rect x="{reference_round(t.x, scale)}" y="{reference_fmt(y)}" '
            f'width="{reference_round(t.width, scale)}" height="{reference_fmt(th)}" '
            f'fill="{color_of[t.tile]}" stroke="#202020" stroke-width="0.7"/>'
        )
    for cut in overlay:
        y = (height_frac - cut) * scale
        lines.append(
            f'<line x1="0" y1="{reference_fmt(y)}" x2="{w}" y2="{reference_fmt(y)}" '
            f'stroke="#d02020" stroke-width="1.6" stroke-dasharray="6,3"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


@st.composite
def small_dpvs(draw):
    """A DPV document with a primitive constant-length vertical on 1-2
    letters and either members of the horizontal family a -> (a^p b in some
    order), b -> a^q: Pisot (q <= p), rational (q = p+1, a degree-1 field) or
    non-Pisot (q > p+1); or a random three-letter horizontal and its twin."""
    n = draw(st.integers(1, 2))
    letters = ["u", "w"][:n]
    length = draw(st.integers(2, 3))
    rules = {}
    for letter in letters:
        img = draw(st.lists(st.sampled_from(letters), min_size=length, max_size=length))
        rules[letter] = img
    # u -> (both letters), w -> (u, ...) makes the square of the matrix positive
    if n == 2 and not (set(rules["u"]) == {"u", "w"} and "u" in rules["w"]):
        rules = {"u": ["u", "w"] + ["u"] * (length - 2), "w": ["w", "u"] + ["w"] * (length - 2)}
    subs = {"rho": {"alphabet": "v", "rules": rules}}
    if draw(st.booleans()):
        p = draw(st.integers(1, 3))
        q = draw(st.sampled_from(sorted({1, p, p + 1, p + 2, p + 3})))
        members = draw(st.lists(st.integers(0, p), min_size=1, max_size=2))
        horizontal = ["a", "b"]
        for j in members:
            subs[f"s{j}"] = {"alphabet": "h",
                             "rules": {"a": "a" * j + "b" + "a" * (p - j), "b": "a" * q}}
    else:
        # a primitive substitution on three letters and a twin with every
        # image permuted: same abelianization, widths in a field of degree
        # up to 3 whose coordinates can have coefficients of both signs
        horizontal = ["a", "b", "c"]
        base = {x: draw(st.lists(st.sampled_from(horizontal), min_size=1, max_size=3))
                for x in horizontal}
        try:
            Substitution(horizontal, base).tile_lengths()
        except FaultlineError:
            # repair it: a -> b a ..., b -> c ..., c -> a ...  The cycle
            # a b c and the loop at a make the matrix primitive; every image
            # keeps its length, but a's has at least two letters
            base = {x: [y] + img[1:] for (x, img), y in zip(base.items(), "bca")}
            base["a"] = ["b", "a"] + base["a"][2:]
        twin = {x: list(draw(st.permutations(img))) for x, img in base.items()}
        subs["s0"] = {"alphabet": "h", "rules": base}
        subs["s1"] = {"alphabet": "h", "rules": twin}
    names = sorted(name for name in subs if name != "rho")
    row_sigma = {letter: [draw(st.sampled_from(names)) for _ in range(length)]
                 for letter in letters}
    return {
        "alphabets": {"v": letters, "h": horizontal},
        "substitutions": subs,
        "dpv": {"vertical": "rho", "horizontal": names, "row_sigma": row_sigma},
    }


def first_difference(new, old):
    """None for equal SVGs, else the first pair of lines that differ (line
    ends kept, so None means equal strings): a failure reports one line,
    where a diff of every line makes hypothesis shrink for minutes."""
    pairs = enumerate(zip_longest(new.splitlines(True), old.splitlines(True)))
    return next(((i, a, b) for i, (a, b) in pairs if a != b), None)


def assert_matches_reference(d, ref_d, seed, k, max_tiles=200_000, **kwargs):
    """Same SVG bytes from both renderers."""
    patch = generate_patch(d, seed, k, max_tiles=max_tiles)
    ref_patch = reference_generate_patch(ref_d, seed, k)
    assert first_difference(emit_svg(patch, **kwargs),
                            reference_emit_svg(ref_patch, **kwargs)) is None


@settings(max_examples=60, deadline=None)
@given(doc=small_dpvs(), data=st.data())
def test_svg_matches_reference_renderer(doc, data):
    k = data.draw(st.integers(0, 3))
    n_vertical, n_horizontal = len(doc["alphabets"]["v"]), len(doc["alphabets"]["h"])
    seed = (data.draw(st.integers(0, n_vertical - 1)),
            data.draw(st.integers(0, n_horizontal - 1)))
    order = data.draw(st.integers(0, k))
    colors = data.draw(st.dictionaries(
        st.tuples(st.integers(0, n_vertical - 1), st.integers(0, n_horizontal - 1)),
        st.sampled_from(["#112233", "#abcdef"]), max_size=2))
    # At scale 24 a midpoint moves the 9-digit output only near a rounding
    # boundary; at 10^7 every change in the refinement an enclosure was
    # taken at shows.
    scale = data.draw(st.sampled_from([24, 10 ** 7]))
    # each side loads the document afresh, so both start from the same
    # root interval refinement
    d = load_document(doc).dpv
    overlay = overlay_boundaries(d, seed, k, order) if order else ()
    ref_d = load_document(doc).dpv
    assert_matches_reference(d, ref_d, seed, k, colors=colors, overlay=overlay, scale=scale)


@pytest.mark.parametrize("name, k", [("doubling_swap", 4), ("row_thirds", 3)])
@pytest.mark.parametrize("scale", [24, 10 ** 7])
def test_bundled_svg_matches_reference_renderer(name, k, scale):
    d, ref_d = bundled_document(name).dpv, bundled_document(name).dpv
    overlay = overlay_boundaries(d, (0, 0), k, 1)
    assert_matches_reference(d, ref_d, (0, 0), k, overlay=overlay, scale=scale)


# tribonacci and its twin with every image reversed: a degree-3 field in
# which the widths have coefficients of both signs, (0, 1, 0), (0, -1, 1)
# and (1, 0, 0) on the power basis
TRIBONACCI_DPV = {
    "alphabets": {"v": ["u", "w"], "h": ["a", "b", "c"]},
    "substitutions": {
        "rho": {"alphabet": "v", "rules": {"u": "uw", "w": "wu"}},
        "s0": {"alphabet": "h", "rules": {"a": "ab", "b": "ac", "c": "a"}},
        "s1": {"alphabet": "h", "rules": {"a": "ba", "b": "ca", "c": "a"}},
    },
    "dpv": {"vertical": "rho", "horizontal": ["s0", "s1"],
            "row_sigma": {"u": ["s0", "s1"], "w": ["s1", "s0"]}},
}


@pytest.mark.parametrize("max_tiles", [60, 500])
@pytest.mark.parametrize("scale", [24, 10 ** 7])
def test_mixed_sign_cubic_field_matches_reference_at_the_tile_cap(max_tiles, scale):
    # the largest depth the cap allows, where the packing shift is sized
    # from a tile count close to the cap
    d = load_document(TRIBONACCI_DPV).dpv
    k = 0
    while True:
        try:
            generate_patch(d, (0, 0), k + 1, max_tiles=max_tiles)
        except ResourceCapError:
            break
        k += 1
    assert k >= 2
    patch = generate_patch(d, (0, 0), k, max_tiles=max_tiles)
    assert patch.lattice.field.degree == 3
    vectors = [patch.lattice.vector(t.xn) for t in patch.tiles]
    assert min(map(min, vectors)) < 0 < max(map(max, vectors))
    overlay = overlay_boundaries(d, (0, 0), k, 1)
    new = emit_svg(patch, scale=scale, overlay=overlay)
    assert first_difference(new, tile_emit_svg(patch, scale=scale, overlay=overlay)) is None
    d, ref_d = load_document(TRIBONACCI_DPV).dpv, load_document(TRIBONACCI_DPV).dpv
    assert_matches_reference(d, ref_d, (0, 0), k, max_tiles=max_tiles, scale=scale,
                             overlay=overlay)


def _twin_dpv(base, twin):
    return {
        "alphabets": {"v": ["u", "w"], "h": ["a", "b", "c"]},
        "substitutions": {
            "rho": {"alphabet": "v", "rules": {"u": "uw", "w": "wu"}},
            "s0": {"alphabet": "h", "rules": base},
            "s1": {"alphabet": "h", "rules": twin},
        },
        "dpv": {"vertical": "rho", "horizontal": ["s0", "s1"],
                "row_sigma": {"u": ["s0", "s1"], "w": ["s1", "s0"]}},
    }


# Patches whose root interval is bisected late.  In the first two, a width
# that no right edge needed bisects it between rects, so the x and width
# strings read before and after differ; in the third, right edges bisect it
# one after another, so their order shows in the viewBox.
LATE_REFINEMENT_DPVS = [
    _twin_dpv({"a": "bc", "b": "c", "c": "aac"}, {"a": "bc", "b": "c", "c": "aca"}),
    _twin_dpv({"a": "cbc", "b": "a", "c": "cb"}, {"a": "ccb", "b": "a", "c": "cb"}),
    _twin_dpv({"a": "cb", "b": "c", "c": "bba"}, {"a": "bc", "b": "c", "c": "bab"}),
]


@pytest.mark.parametrize("doc", LATE_REFINEMENT_DPVS)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_late_refinement_matches_reference(doc, k):
    for h in range(3):
        d, ref_d = load_document(doc).dpv, load_document(doc).dpv
        assert_matches_reference(d, ref_d, (0, h), k, scale=10 ** 7)


# ---------------------------------------------------------------------------
# the last expansion level: emit_svg walks nodes x children, and its bytes
# are those of the per-tile emitter over ``Patch.tiles``
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(doc=small_dpvs(), data=st.data())
def test_svg_matches_the_per_tile_emitter(doc, data):
    k = data.draw(st.integers(0, 4))
    n_vertical, n_horizontal = len(doc["alphabets"]["v"]), len(doc["alphabets"]["h"])
    seed = (data.draw(st.integers(0, n_vertical - 1)),
            data.draw(st.integers(0, n_horizontal - 1)))
    order = data.draw(st.integers(0, k))
    colors = data.draw(st.dictionaries(
        st.tuples(st.integers(0, n_vertical - 1), st.integers(0, n_horizontal - 1)),
        st.sampled_from(["#112233", "#abcdef"]), max_size=2))
    scale = data.draw(st.sampled_from([24, 10 ** 7]))
    d = load_document(doc).dpv
    overlay = overlay_boundaries(d, seed, k, order) if order else ()
    kwargs = dict(colors=colors, overlay=overlay, scale=scale)
    new = emit_svg(generate_patch(d, seed, k), **kwargs)
    old = tile_emit_svg(generate_patch(load_document(doc).dpv, seed, k), **kwargs)
    assert first_difference(new, old) is None


@pytest.mark.parametrize("doc", LATE_REFINEMENT_DPVS)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_late_refinement_matches_the_per_tile_emitter(doc, k):
    for h in range(3):
        new = emit_svg(generate_patch(load_document(doc).dpv, (0, h), k), scale=10 ** 7)
        old = tile_emit_svg(generate_patch(load_document(doc).dpv, (0, h), k), scale=10 ** 7)
        assert first_difference(new, old) is None


@contextmanager
def tile_reads():
    """The patches whose ``tiles`` are read inside the block, in order."""
    reads, tiles = [], Patch.tiles
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Patch, "tiles", property(lambda patch: reads.append(patch) or tiles.fget(patch)))
        yield reads


def test_render_never_expands_the_tiles(tmp_path):
    out = tmp_path / "patch.svg"
    with tile_reads() as reads:
        assert main(["render", "-i", "bundled:doubling_swap", "--rounds", "6", "--overlay", "2",
                     "-o", str(out)]) == 0
        assert out.read_text().count("<rect") == 8768
        assert reads == []
        # the recorder records: the per-tile emitter reads the tiles once
        tile_emit_svg(generate_patch(bundled_document("doubling_swap").dpv, (0, 0), 2))
        assert len(reads) == 1


@settings(max_examples=60, deadline=None)
@given(doc=small_dpvs(), data=st.data())
def test_patch_len_counts_the_tiles_without_expanding(doc, data):
    d = load_document(doc).dpv
    k = data.draw(st.integers(0, 4))
    seed = (data.draw(st.integers(0, len(doc["alphabets"]["v"]) - 1)),
            data.draw(st.integers(0, len(doc["alphabets"]["h"]) - 1)))
    patch = generate_patch(d, seed, k)
    with tile_reads() as reads:
        count = len(patch)
    assert reads == []
    assert count == len(patch.tiles) == _tile_count(d.count_matrix(), d.tile_index(*seed), k,
                                                    200_000)
    # the last level is the children of the nodes, each at its offset
    assert len(patch.nodes) == (_tile_count(d.count_matrix(), d.tile_index(*seed), k - 1,
                                            200_000) if k else 1)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_lattice_vector_inverts_pack(data):
    field = data.draw(st.sampled_from([
        bundled_document("row_thirds").dpv.vertical.perron().root.field,      # degree 1
        bundled_document("doubling_swap").dpv.horizontal[0].perron().root.field,  # degree 2
        load_document(TRIBONACCI_DPV).dpv.horizontal[0].perron().root.field,  # degree 3
    ]))
    lattice = Lattice(field, 1, data.draw(st.integers(1, 80)), (), ())
    bound = 2 ** (lattice.shift - 1) - 1
    coefficients = st.lists(st.integers(-bound, bound), min_size=field.degree,
                            max_size=field.degree).map(tuple)
    u, v = data.draw(coefficients), data.draw(coefficients)
    assert lattice.vector(lattice.pack(u)) == u
    # packing is additive, so the sum of two packed values unpacks to the
    # vector sum while that stays in range
    total = tuple(map(sum, zip(u, v)))
    if max(map(abs, total)) <= bound:
        assert lattice.vector(lattice.pack(u) + lattice.pack(v)) == total


@pytest.mark.parametrize("argv, digest", [
    (("doubling_swap",), "fd7f292b0a8e110af352ccb49e000065ffdd0cd574e72c94416122fc1b594d40"),
    (("period_doubling",), "7595dd2054786fa558b2de2764e8e58730dc8d891db43f74dc02060c7a176250"),
    (("row_thirds",), "0ea530a9f2dfc437bb4dc59ff0273e9172e8bb83227bd7136faae23e1526029e"),
    (("period_doubling", "--overlay", "2"),
     "abcd76fe96d36690433eee23244614a407e445ef6b72ede82243e05524b0914d"),
    (("doubling_swap", "--rounds", "6"),
     "fc8b090440fac88b46c8e23b4bce7ef348df3c1a86866e109e8427ee5662a12f"),
    (("period_doubling", "--rounds", "6"),
     "d51289f3b5b370ddb262293f17e3a007eab88dc2c1f699a5f35a5b45ec28ebfc"),
    (("row_thirds", "--rounds", "6"),
     "508279168f0224b73e8aaefb2de9454fcc0d63ce812059249831b8a5485d7475"),
    (("doubling_swap", "--rounds", "8"),
     "237a447dab0d8c1fabd786a528e557132c6fe98523098aa77ca0b068da045903"),
    (("period_doubling", "--rounds", "8"),
     "4717cf8b09840fd1e6d3f081843568e8ae39d630010d4e7a07d8556d71bf4f1f"),
    (("row_thirds", "--rounds", "8"),
     "b201fe7089506b6c392cc61774b0e77495c989d959a02b4be7eba718b628db96"),
])
def test_bundled_svg_bytes_pinned(tmp_path, argv, digest):
    # depth 5 recorded with the Fraction renderer, depths 6 and 8 with the
    # per-tile emitter; the renderer must not change a byte
    out = tmp_path / "patch.svg"
    name, *rest = argv
    if "--rounds" not in rest:
        rest = ["--rounds", "5", *rest]
    assert main(["render", "-i", f"bundled:{name}", *rest, "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (("doubling_swap",), "fd7f292b0a8e110af352ccb49e000065ffdd0cd574e72c94416122fc1b594d40"),
    (("period_doubling", "--overlay", "2"),
     "abcd76fe96d36690433eee23244614a407e445ef6b72ede82243e05524b0914d"),
])
def test_enclosure_renderer_gives_the_pinned_bytes(argv, digest):
    # the oracle below is the renderer these digests were recorded with
    d = bundled_document(argv[0]).dpv
    overlay = overlay_boundaries(d, (0, 0), 5, int(argv[2])) if len(argv) > 1 else ()
    svg = enclosure_emit_svg(generate_patch(d, (0, 0), 5), overlay=overlay)
    assert hashlib.sha256(svg.encode()).hexdigest() == digest


# The enclosure renderer misrounded x here: 24 * x = 405.40225717850014...,
# a tie to within 2e-13, and the enclosure midpoint fell below it.
MISROUNDED_DPV = _twin_dpv({"a": "ca", "b": "aab", "c": "bcc"},
                           {"a": "ca", "b": "aab", "c": "bcc"})


def test_enclosure_renderer_misrounded_a_near_tie():
    d = load_document(MISROUNDED_DPV).dpv
    new = emit_svg(generate_patch(d, (0, 0), 2))
    old = enclosure_emit_svg(generate_patch(load_document(MISROUNDED_DPV).dpv, (0, 0), 2))
    ref = reference_emit_svg(reference_generate_patch(load_document(MISROUNDED_DPV).dpv,
                                                      (0, 0), 2))
    assert new == ref
    changed = [(a, b) for a, b in zip(old.splitlines(), new.splitlines()) if a != b]
    assert len(changed) == 4
    assert all('x="405.402257178"' in a and b == a.replace("178", "179") for a, b in changed)


def test_bundled_depth_8_rounds_a_near_tie_down():
    # x = 264 + 221 lambda, 24 * x = 18549.9219825304996...: the enclosure
    # renderer printed 18549.921982531 here and at x + 3j in 374 rects
    patch = generate_patch(bundled_document("doubling_swap").dpv, (0, 0), 8)
    field = patch.lattice.field
    unit = 2 * 24 * 10 ** 9
    assert field.sign((unit * 264 - (2 * 18549921982530 + 1), unit * 221)) < 0
    svg = emit_svg(patch)
    assert 'x="18549.92198253"' in svg and "921982531" not in svg


@settings(max_examples=100, deadline=None)
@given(doc=small_dpvs(), data=st.data())
def test_svg_bytes_match_the_enclosure_renderer(doc, data):
    # at scale 24 the bytes are the enclosure renderer's, x, widths and the
    # viewBox width (the upper end of an enclosure there) alike, except
    # where that renderer misrounded a value close to a tie
    k = data.draw(st.integers(0, 4))
    n_vertical, n_horizontal = len(doc["alphabets"]["v"]), len(doc["alphabets"]["h"])
    seed = (data.draw(st.integers(0, n_vertical - 1)),
            data.draw(st.integers(0, n_horizontal - 1)))
    order = data.draw(st.integers(0, k))
    colors = data.draw(st.dictionaries(
        st.tuples(st.integers(0, n_vertical - 1), st.integers(0, n_horizontal - 1)),
        st.sampled_from(["#112233", "#abcdef"]), max_size=2))
    d = load_document(doc).dpv
    overlay = overlay_boundaries(d, seed, k, order) if order else ()
    patch = generate_patch(d, seed, k)
    old = enclosure_emit_svg(generate_patch(load_document(doc).dpv, seed, k),
                             colors=colors, overlay=overlay)
    new = emit_svg(patch, colors=colors, overlay=overlay)
    if new != old:
        event("the enclosure renderer misrounded")
        ref_patch = reference_generate_patch(load_document(doc).dpv, seed, k)
        assert first_difference(
            new, reference_emit_svg(ref_patch, colors=colors, overlay=overlay)) is None


@pytest.mark.parametrize("doc", LATE_REFINEMENT_DPVS)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_svg_bytes_do_not_depend_on_earlier_refinement(doc, k):
    # the enclosure renderer printed other bytes here once the field had
    # been refined before it ran
    for h in range(3):
        fresh = emit_svg(generate_patch(load_document(doc).dpv, (0, h), k), scale=10 ** 7)
        patch = generate_patch(load_document(doc).dpv, (0, h), k)
        patch.lattice.field.refined(Fraction(1, 2 ** 400))
        assert first_difference(emit_svg(patch, scale=10 ** 7), fresh) is None


def test_svg_rounds_near_ties_exactly(monkeypatch):
    # x = 1 + eps_n with eps_n = F_n * phi - F_(n+1) = -(-1/phi)^n, at the
    # scale that puts 10^9 * scale * x at (1 + eps_n) / 2: within 2^-77 of
    # the tie 1/2, far inside the error of the fixed-point image, so only
    # the exact sign decides whether x prints as 1e-9 (eps_n > 0, n odd) or 0
    field = NumberField((-1, -1, 1), (1, 2))
    # one tile type of width 1 and height 1; the packed 1 and 2 are 1 and 2
    lattice = Lattice(field, 1, 100, (1,), (1,))
    fib = [0, 1]
    while len(fib) < 142:
        fib.append(fib[-1] + fib[-2])
    ns = range(110, 140)
    # the one-level form: each tile is a node and its own only child
    tiles = [PlacedTile((0, 0), lattice.pack((1 - fib[n + 1], fib[n])), 0) for n in ns]
    patch = Patch(lattice, tiles, {(0, 0): (((0, 0), 0, 0),)}, 2, 1, ((0, 0),))
    assert patch.tiles == tiles
    signs = []
    sign = NumberField.sign
    monkeypatch.setattr(NumberField, "sign", lambda self, nums: signs.append(nums) or
                        sign(self, nums))
    svg = emit_svg(patch, scale=Fraction(1, 2 * 10 ** 9))
    rects = [line for line in svg.splitlines() if "<rect" in line]
    assert [r.split(' x="')[1].split('"')[0] for r in rects] == [
        "0.000000001" if n % 2 else "0" for n in ns]
    # the width 1 is the rational tie itself, so it goes to the sign too,
    # and rounds up
    assert {r.split(' width="')[1].split('"')[0] for r in rects} == {"0.000000001"}
    assert len(signs) == len(ns) + 1


@settings(max_examples=60, deadline=None)
@given(doc=small_dpvs(), data=st.data())
def test_patch_bounds_match_the_tiles(doc, data):
    d = load_document(doc).dpv
    k = data.draw(st.integers(0, 4))
    seed = (data.draw(st.integers(0, len(doc["alphabets"]["v"]) - 1)),
            data.draw(st.integers(0, len(doc["alphabets"]["h"]) - 1)))
    patch = generate_patch(d, seed, k)
    lattice = patch.lattice
    rights = {t.xn + lattice.widths[t.tile[1]] for t in patch.tiles}
    # the greatest right edge, compared by exact signs
    assert patch.right in rights
    assert all(lattice.field.sign(lattice.vector(patch.right - x)) >= 0 for x in rights)
    assert patch.top == max(t.yn + lattice.heights[t.tile[0]] for t in patch.tiles)
    assert patch.tile_ids == tuple(sorted({t.tile for t in patch.tiles}))


def test_svg_rejects_tiles_of_different_patches(doubling_swap):
    # tiles of two patches make a list, not a Patch
    other = bundled_document("doubling_swap").dpv
    mixed = generate_patch(doubling_swap, (0, 0), 1).tiles + generate_patch(other, (0, 0), 1).tiles
    with pytest.raises(ValidationError):
        emit_svg(mixed)
