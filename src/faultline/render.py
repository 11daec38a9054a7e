"""Exact-coordinate DPV patches and SVG output.

A patch is the k-fold image of a seed tile, placed by recursive subdivision:
the image array of each tile fills its parent rectangle row by row (bottom
row first).  Coordinates are exact integer lattice points: a horizontal
position is an integer coefficient vector on the power basis of Q(lambda)
over one denominator per patch, packed into one int (``Lattice``), and a
vertical position an integer.  Placement expands the patch one
level at a time from tables of child offsets, so a placed tile costs one int
add per coordinate.  SVG output renders coordinates at 1e-9 precision from
the exact values and is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from operator import mul
from typing import NamedTuple

from .algebra import decimal_string, times_root
from .errors import ResourceCapError, ValidationError

DEFAULT_MAX_TILES = 200_000

_PALETTE = (
    "#4878a8", "#e8b04a", "#78b478", "#c85a5a", "#9268ac",
    "#50b8c8", "#c8789a", "#a8a848", "#7890c8", "#c89058",
)


@dataclass(frozen=True)
class Lattice:
    """Coordinates shared by the tiles of one patch: x = X / den_x with X an
    integer vector on the power basis of ``field``, and y an integer.

    X is stored packed as the one int sum(X[i] * 2**(shift * i)) (Kronecker
    substitution), so adding packed values adds the vectors.  Every vector a
    patch stores has |X[i]| < 2**(shift - 1), which makes unpacking exact."""
    field: object
    den_x: int
    shift: int
    widths: tuple      # den_x * width of each horizontal letter, packed
    heights: tuple     # height of each vertical letter, an integer

    def pack(self, nums):
        return sum(c << (self.shift * i) for i, c in enumerate(nums))

    def vector(self, packed):
        """The integer vector X of a packed value: its signed base-2**shift
        digits, lowest first."""
        unit = 1 << self.shift
        nums = []
        for _ in range(self.field.degree):
            c = packed & (unit - 1)
            if c >= unit >> 1:
                c -= unit
            nums.append(c)
            packed = (packed - c) >> self.shift
        return tuple(nums)


class PlacedTile(NamedTuple):
    tile: tuple        # (vertical letter id, horizontal letter id)
    xn: int            # den_x * left edge, packed (``Lattice``)
    yn: int            # bottom edge
    lattice: Lattice


def _tile_count(counts, col, k, cap):
    """min(tiles in the k-fold image of tile ``col``, cap + 1), one level at
    a time.  Every tile's image holds a tile, so the count never falls and
    may stop once it passes the cap."""
    vec = [int(i == col) for i in range(len(counts))]
    for _ in range(k):
        vec = [sum(map(mul, row, vec)) for row in counts]
        if sum(vec) > cap:
            return cap + 1
    return sum(vec)


def generate_patch(d, seed, k, max_tiles=DEFAULT_MAX_TILES):
    """All tiles of the k-fold image of ``seed`` = (vertical, horizontal)
    letter ids, with exact coordinates; the seed's lower-left corner is the
    origin."""
    if k < 0:
        raise ValidationError("rounds must be >= 0")
    v0, h0 = seed
    widths = d.horizontal[0].tile_lengths()
    heights, lam_v = d.vertical_heights
    field, width_nums, den_x = widths.field, widths.vectors, widths.den

    # guards before any placement; every level of the expansion holds at
    # least one tile, so the depth check bounds the count's loop
    if k > max_tiles:
        raise ResourceCapError(f"patch depth {k} is more than the tile cap {max_tiles}")
    total = _tile_count(d.count_matrix(), d.tile_index(v0, h0), k, max_tiles)
    if total > max_tiles:
        raise ResourceCapError(f"patch would contain more than {max_tiles} tiles "
                               f"(cap {max_tiles})")

    # step[r][h] = den_x * width_h * lambda^r: integer vectors, since the
    # widths live in the Perron field, whose root lambda is an algebraic integer
    step = [width_nums]
    for _ in range(k - 1):
        step.append(tuple(times_root(v, field.poly) for v in step[-1]))
    # A right edge sums at most ``total`` steps, so its coefficients stay
    # under (total + 1) * bound < 2**(shift - 1) in absolute value.
    bound = max(abs(c) for level in step for v in level for c in v)
    lattice = Lattice(field, den_x, ((total + 1) * bound).bit_length() + 1, (), heights)
    step = [tuple(map(lattice.pack, level)) for level in step]
    lattice = replace(lattice, widths=step[0])
    if k == 0:
        return [PlacedTile((v0, h0), 0, 0, lattice)]
    images = {(v, h): d.image_array(v, h)
              for v in range(d.vertical.size) for h in range(len(width_nums))}

    def offsets(rounds):
        """(child, dx, dy) per child of each tile's rounds-fold image: its
        offset from the parent's lower-left corner, dx packed."""
        row_step = step[rounds - 1]
        lam_v_pow = lam_v ** (rounds - 1)
        table = {}
        for tile, rows in images.items():
            children, dy = [], 0
            for row in rows:
                dx = 0
                for sub in row:
                    children.append((sub, dx, dy))
                    dx += row_step[sub[1]]
                dy += heights[row[0][0]] * lam_v_pow
            table[tile] = children
        return table

    # Expanding every node of a level in place keeps the leaves in
    # depth-first order.
    nodes = [((v0, h0), 0, 0)]
    for rounds in range(k, 1, -1):
        table = offsets(rounds)
        nodes = [(sub, x + dx, y + dy)
                 for tile, x, y in nodes for sub, dx, dy in table[tile]]
    table = offsets(1)
    # tuple.__new__ directly: PlacedTile(...) wraps this one call in a frame
    new_tile = partial(tuple.__new__, PlacedTile)
    return [new_tile((sub, x + dx, y + dy, lattice))
            for tile, x, y in nodes for sub, dx, dy in table[tile]]


def overlay_boundaries(d, seed, k, order):
    """Interior y-coordinates separating rows of order-``order`` supertiles
    in the k-round patch of ``seed``."""
    if not 1 <= order <= k:
        raise ValidationError("overlay order must be between 1 and the round count")
    heights, lam_v = d.vertical_heights
    # one level of order-``order`` blocks at a time, down from the seed
    cuts, nodes = set(), [(seed[0], 0)]
    for rounds in range(k - order + 1, 0, -1):
        block = lam_v ** (order - 1) * lam_v ** (rounds - 1)
        children = []
        for v, y in nodes:
            for j, v2 in enumerate(d.vertical.rules[v]):
                if j > 0:
                    cuts.add(y)
                children.append((v2, y))
                y += heights[v2] * block
        nodes = children
    cuts.discard(0)
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
    field, den_x = lattice.field, lattice.den_x
    widths, heights = lattice.widths, lattice.heights
    fine = Fraction(1, 10 ** 12)
    rights, tile_ids, top = {}, set(), 0
    for tile, xn, yn, tile_lattice in patch:
        if tile_lattice is not lattice:
            raise ValidationError("tiles from different patches")
        rights[xn + widths[tile[1]]] = None
        tile_ids.add(tile)
        edge = yn + heights[tile[0]]
        if edge > top:
            top = edge
    # Each enclosure is taken at the field's current root interval, which is
    # bisected only when an enclosure is wider than 1e-12.  So the printed
    # midpoints depend on the order of requests: every right edge first, then
    # x and width tile by tile.  A request repeated while the root interval
    # is unchanged gets the same answer, so enclosures, x strings and each
    # tile type's rect tail (width, height, fill) are kept until it changes.
    cache, xs, tails, root = {}, {}, {}, field.root_ints

    def enclosure(packed):
        """Enclosure (a, b, e) of packed / den_x, at most 1e-12 wide."""
        nonlocal root
        got = cache.get(packed)
        if got is None:
            got = field.enclose(lattice.vector(packed), den_x, fine)
            if field.root_ints is not root:
                cache.clear()
                xs.clear()
                tails.clear()
                root = field.root_ints
            cache[packed] = got
        return got

    def midpoint(packed):
        a, b, e = enclosure(packed)
        return _fmt((a + b) * scale, 2 * e)

    # A right edge repeated after a bisection would get an enclosure inside
    # its first one (interval Horner is inclusion isotonic): no bisection
    # and no larger hi.  So each distinct right edge is enclosed once.
    right_num, right_den = 0, 1
    for packed in rights:
        _, b, e = enclosure(packed)
        if b * right_den > right_num * e:
            right_num, right_den = b, e
    w = _fmt(right_num * scale, right_den)
    h = _fmt(top * scale, 1)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w} {h}" '
        f'width="{w}" height="{h}">',
    ]
    color_of = {}
    for i, tid in enumerate(sorted(tile_ids)):
        color_of[tid] = (colors or {}).get(tid) or _PALETTE[i % len(_PALETTE)]
    tile_height = tuple(_fmt(hn * scale, 1) for hn in heights)
    flipped = {}   # top edge numerator -> flipped y
    for tile, xn, yn, _ in patch:
        x = xs.get(xn)
        if x is None:
            x = xs[xn] = midpoint(xn)
        tail = tails.get(tile)
        if tail is None:
            tw = midpoint(widths[tile[1]])
            tail = tails[tile] = (f'width="{tw}" height="{tile_height[tile[0]]}" '
                                  f'fill="{color_of[tile]}" stroke="#202020" '
                                  f'stroke-width="0.7"/>')
        edge = yn + heights[tile[0]]
        y = flipped.get(edge)
        if y is None:
            y = flipped[edge] = _fmt((top - edge) * scale, 1)
        lines.append(f'<rect x="{x}" y="{y}" {tail}')
    for cut in overlay:
        q = (top - Fraction(cut)) * scale
        y = _fmt(q.numerator, q.denominator)
        lines.append(
            f'<line x1="0" y1="{y}" x2="{w}" y2="{y}" '
            f'stroke="#d02020" stroke-width="1.6" stroke-dasharray="6,3"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
