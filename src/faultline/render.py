"""Exact-coordinate DPV patches and SVG output.

A patch is the k-fold image of a seed tile, placed by recursive subdivision:
the image array of each tile fills its parent rectangle row by row (bottom
row first).  Coordinates are exact integer lattice vectors: a horizontal
position is an integer coefficient vector on the power basis of Q(lambda)
over one denominator per patch, a vertical position an integer over another.
Placement only adds integers.  SVG output renders coordinates at 1e-9
precision from the exact values and is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import NamedTuple

from .algebra import clear_denominators, decimal_string, integer_vectors, times_root
from .errors import ResourceCapError, ValidationError

DEFAULT_MAX_TILES = 200_000

_PALETTE = (
    "#4878a8", "#e8b04a", "#78b478", "#c85a5a", "#9268ac",
    "#50b8c8", "#c8789a", "#a8a848", "#7890c8", "#c89058",
)


@dataclass(frozen=True)
class Lattice:
    """Coordinates shared by the tiles of one patch: x = X / den_x with X an
    integer vector on the power basis of ``field``, y = Y / den_y."""
    field: object
    den_x: int
    den_y: int
    widths: tuple      # den_x * width of each horizontal letter, integer vectors
    heights: tuple     # den_y * height of each vertical letter, integers

    def element(self, nums):
        return self.field.element([Fraction(c, self.den_x) for c in nums])


class PlacedTile(NamedTuple):
    tile: tuple        # (vertical letter id, horizontal letter id)
    xn: tuple          # den_x * left edge
    yn: int            # den_y * bottom edge
    lattice: Lattice

    @property
    def x(self):
        """Left edge, an AlgebraicNumber."""
        return self.lattice.element(self.xn)

    @property
    def width(self):
        """An AlgebraicNumber."""
        return self.lattice.element(self.lattice.widths[self.tile[1]])

    @property
    def y(self):
        """Bottom edge, a Fraction."""
        return Fraction(self.yn, self.lattice.den_y)

    @property
    def height(self):
        """A Fraction."""
        return Fraction(self.lattice.heights[self.tile[0]], self.lattice.den_y)


def _vertical_heights(d):
    heights = d.vertical.tile_lengths()
    for h in heights:
        if not h.is_rational():
            raise ValidationError(
                "rendering needs rational vertical tile heights "
                "(irrational vertical expansion is unsupported)"
            )
    return tuple(h.as_fraction() for h in heights)


def generate_patch(d, seed, k, max_tiles=DEFAULT_MAX_TILES):
    """All tiles of the k-fold image of ``seed`` = (vertical, horizontal)
    letter ids, with exact coordinates; the seed's lower-left corner is the
    origin."""
    if k < 0:
        raise ValidationError("rounds must be >= 0")
    v0, h0 = seed
    widths = d.horizontal[0].tile_lengths()
    heights = _vertical_heights(d)
    field = widths[0].field
    lam_v = d.vertical.perron().root
    if not lam_v.is_rational():
        raise ValidationError("rendering needs a rational vertical expansion factor")
    # a rational root of a monic integer polynomial is an integer
    lam_v = int(lam_v.as_fraction())

    # count guard before any recursion
    counts = d.count_matrix()
    from .abelian import matpow

    col = d.tile_index(v0, h0)
    total = sum(row[col] for row in matpow(counts, k))
    if total > max_tiles:
        raise ResourceCapError(f"patch would contain {total} tiles (cap {max_tiles})")

    width_nums, den_x = integer_vectors(widths)
    height_nums, den_y = clear_denominators(heights)
    lattice = Lattice(field, den_x, den_y, width_nums, height_nums)
    # step[r][h] = den_x * width_h * lambda^r: integer vectors, since the
    # widths live in the Perron field, whose root lambda is an algebraic integer
    step = [width_nums]
    for _ in range(k - 1):
        step.append(tuple(times_root(v, field.poly) for v in step[-1]))
    images = {(v, h): d.image_array(v, h)
              for v in range(d.vertical.size) for h in range(len(widths))}

    origin = (0,) * field.degree
    out = []

    def place(tile, x, y, rounds):
        """The rounds-fold image (rounds >= 1) of ``tile`` placed at (x, y)."""
        row_step = step[rounds - 1]
        lam_v_pow = lam_v ** (rounds - 1)
        for row in images[tile]:
            x_cursor = x
            for sub in row:
                if rounds == 1:
                    out.append(PlacedTile(sub, x_cursor, y, lattice))
                else:
                    place(sub, x_cursor, y, rounds - 1)
                x_cursor = tuple(map(add, x_cursor, row_step[sub[1]]))
            y += height_nums[row[0][0]] * lam_v_pow

    if k == 0:
        out.append(PlacedTile((v0, h0), origin, 0, lattice))
    else:
        place((v0, h0), origin, 0, k)
    return out


def overlay_boundaries(d, seed, k, order):
    """Interior y-coordinates separating rows of order-``order`` supertiles
    in the k-round patch of ``seed``."""
    if not 1 <= order <= k:
        raise ValidationError("overlay order must be between 1 and the round count")
    heights = _vertical_heights(d)
    lam_v = d.vertical.perron().root.as_fraction()
    cuts = set()

    def walk(v, y, rounds):
        # rounds counts remaining subdivisions down to order-(order) blocks
        if rounds == 0:
            return
        y_cursor = y
        rows = d.vertical.rules[v]
        for j, v2 in enumerate(rows):
            row_height = heights[v2] * lam_v ** (order - 1) * lam_v ** (rounds - 1)
            if j > 0:
                cuts.add(y_cursor)
            walk(v2, y_cursor, rounds - 1)
            y_cursor += row_height
        return

    walk(seed[0], Fraction(0), k - order + 1)
    cuts.discard(Fraction(0))
    return tuple(sorted(cuts))


def _fmt(num, den):
    """num/den (den > 0) to 9 fractional digits, trailing zeros dropped."""
    return decimal_string(num, den, 9).rstrip("0").rstrip(".")


def emit_svg(patch, colors=None, overlay=(), scale=24):
    """One rect per tile; y flipped so the patch displays with y increasing
    upward; optional horizontal overlay lines.  Deterministic output.  The
    tiles must come from one ``generate_patch`` call."""
    if not patch:
        raise ValidationError("empty patch")
    lattice = patch[0].lattice
    if any(t.lattice is not lattice for t in patch):
        raise ValidationError("tiles from different patches")
    field, den_x, den_y = lattice.field, lattice.den_x, lattice.den_y
    widths, heights = lattice.widths, lattice.heights
    fine = Fraction(1, 10 ** 12)
    # Each enclosure is taken at the field's current root interval, which is
    # bisected only when an enclosure is wider than 1e-12.  So the printed
    # midpoints depend on the order of requests: every right edge first, then
    # x and width tile by tile.  A request repeated while the root interval
    # is unchanged gets the same answer, so answers are kept until it changes.
    cache, root = {}, field.root_ints

    def enclosure(nums):
        """(hi numerator, denominator, scaled midpoint) of nums / den_x."""
        nonlocal root
        got = cache.get(nums)
        if got is None:
            a, b, e = field.enclose(nums, den_x, fine)
            got = (b, e, _fmt((a + b) * scale, 2 * e))
            if field.root_ints is not root:
                cache.clear()
                root = field.root_ints
            cache[nums] = got
        return got

    right_num, right_den = 0, 1
    for t in patch:
        b, e, _ = enclosure(tuple(map(add, t.xn, widths[t.tile[1]])))
        if b * right_den > right_num * e:
            right_num, right_den = b, e
    top = max(t.yn + heights[t.tile[0]] for t in patch)
    w = _fmt(right_num * scale, right_den)
    h = _fmt(top * scale, den_y)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w} {h}" '
        f'width="{w}" height="{h}">',
    ]
    tile_ids = sorted({t.tile for t in patch})
    color_of = {}
    for i, tid in enumerate(tile_ids):
        color_of[tid] = (colors or {}).get(tid) or _PALETTE[i % len(_PALETTE)]
    tile_height = tuple(_fmt(hn * scale, den_y) for hn in heights)
    flipped = {}   # top edge numerator -> flipped y
    for t in patch:
        v, hz = t.tile
        x = enclosure(t.xn)[2]
        tw = enclosure(widths[hz])[2]
        edge = t.yn + heights[v]
        y = flipped.get(edge)
        if y is None:
            y = flipped[edge] = _fmt((top - edge) * scale, den_y)
        lines.append(
            f'<rect x="{x}" y="{y}" width="{tw}" height="{tile_height[v]}" '
            f'fill="{color_of[t.tile]}" stroke="#202020" stroke-width="0.7"/>'
        )
    for cut in overlay:
        q = (Fraction(top, den_y) - cut) * scale
        y = _fmt(q.numerator, q.denominator)
        lines.append(
            f'<line x1="0" y1="{y}" x2="{w}" y2="{y}" '
            f'stroke="#d02020" stroke-width="1.6" stroke-dasharray="6,3"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
