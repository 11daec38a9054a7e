"""Exact-coordinate DPV patches and SVG output.

A patch is the k-fold image of a seed tile, placed by recursive subdivision:
the image array of each tile fills its parent rectangle row by row (bottom
row first).  Coordinates are exact integer lattice points: a horizontal
position is an integer coefficient vector on the power basis of Q(lambda)
over one denominator per patch, packed into one int (``Lattice``), and a
vertical position an integer.  Placement expands the patch one
level at a time from tables of child offsets, and stops one level short: a
``Patch`` holds the placed tiles of level k - 1 and the offsets of each
tile type's children, so a tile of level k costs one int add per coordinate
where it is read.  SVG output walks those two tables and prints each
coordinate as its exact value correctly rounded to 9 decimals, so its bytes
depend on the values alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
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


@dataclass(frozen=True)
class Patch:
    """The tiles of one ``generate_patch`` call, kept one level short: the
    placed tiles of level k - 1 as (tile, xn, yn) ``nodes``, and for each tile
    type its ``children`` in its one-fold image, as (tile, dx, dy) offsets
    from its lower-left corner, dx packed.  At k = 0, and in a patch built by
    hand, each node is its own only child at offset 0.  ``tiles`` expands
    the two into ``PlacedTile``s in depth-first order; ``len`` counts them
    without expanding.  What the substitution fixes for them: every row
    spans the seed's image, so each ends at the packed right edge ``right`` =
    den_x * width(seed) * lambda^k; the top edge is ``top`` = height(seed) *
    lambda_v^k; and ``tile_ids`` are the sorted distinct tiles."""
    lattice: Lattice
    nodes: list
    children: dict
    right: int
    top: int
    tile_ids: tuple

    @property
    def tiles(self):
        children = self.children
        return [PlacedTile(sub, x + dx, y + dy)
                for tile, x, y in self.nodes for sub, dx, dy in children[tile]]

    def __len__(self):
        children = self.children
        return sum(len(children[tile]) for tile, _, _ in self.nodes)


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
    """The ``Patch`` of the k-fold image of ``seed`` = (vertical, horizontal)
    letter ids, with exact coordinates; the seed's lower-left corner is the
    origin.  The horizontal members must share one abelianization, as
    ``validate_dpv`` checks: otherwise rows of one patch differ in width."""
    if k < 0:
        raise ValidationError("rounds must be >= 0")
    d.check_members()
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
    for _ in range(k):
        step.append(tuple(times_root(v, field.poly) for v in step[-1]))
    # A right edge sums at most ``total`` steps, so its coefficients stay
    # under (total + 1) * bound < 2**(shift - 1) in absolute value.
    bound = max(abs(c) for level in step for v in level for c in v)
    lattice = Lattice(field, den_x, ((total + 1) * bound).bit_length() + 1, (), heights)
    step = [tuple(map(lattice.pack, level)) for level in step]
    lattice = replace(lattice, widths=step[0])
    images = {(v, h): d.image_array(v, h)
              for v in range(d.vertical.size) for h in range(len(width_nums))}
    # the tiles of each level are the children of those of the level above
    tile_ids = {(v0, h0)}
    for _ in range(k):
        tile_ids = {sub for tile in tile_ids for row in images[tile] for sub in row}
    right, top, tile_ids = step[k][h0], heights[v0] * lam_v ** k, tuple(sorted(tile_ids))
    if k == 0:
        tile = (v0, h0)
        return Patch(lattice, [(tile, 0, 0)], {tile: ((tile, 0, 0),)}, right, top, tile_ids)

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
    # depth-first order; the last level is left to ``Patch.tiles`` and
    # ``emit_svg``.
    nodes = [((v0, h0), 0, 0)]
    for rounds in range(k, 1, -1):
        table = offsets(rounds)
        nodes = [(sub, x + dx, y + dy)
                 for tile, x, y in nodes for sub, dx, dy in table[tile]]
    return Patch(lattice, nodes, offsets(1), right, top, tile_ids)


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


_UNIT = 10 ** 9    # the printed precision
_GUARD = 40        # bits of a fixed-point image beyond its error bound


def _rounder(lattice, scale):
    """The printed string of scale * packed / den_x for the packed values of
    ``lattice`` and a positive Fraction ``scale``: the exact value rounded
    half up to 9 fractional digits, a function of the value alone.

    With X the vector of a packed value, 10^9 * value = sum(X[i] * c[i]) for
    c[i] = 10^9 * scale * lambda^i / den_x.  F[i] is c[i] * 2^bits rounded
    from an enclosure of lambda^i, with |F[i] - c[i] * 2^bits| < 2.  Every
    |X[i]| < 2^(shift - 1), so the image sum(X[i] * F[i]) lies within
    err = degree * 2^shift < 2^(bits - 40) of 2^bits times the exact value.
    The rounding is read off the image unless a tie (an odd multiple of 1/2
    in units of 10^-9) lies within err of it; then the exact sign of the
    value minus that tie decides, and a rational value at the tie rounds up."""
    field = lattice.field
    num, den = scale.numerator, lattice.den_x * scale.denominator
    err = field.degree << lattice.shift
    bits = err.bit_length() + _GUARD
    width = Fraction(den, num * _UNIT << bits)
    images = []
    for i in range(field.degree):
        a, b, e = field.enclose((0,) * i + (1,), 1, width)
        images.append(((a + b) * num * _UNIT << bits) // (2 * e * den))
    half, vector = 1 << (bits - 1), lattice.vector

    def text(packed):
        x = vector(packed)
        image = sum(map(mul, x, images)) + half
        n = (image - err) >> bits
        if (image + err) >> bits != n:
            # n + 1 when 10^9 * value >= n + 1/2
            tie = [2 * _UNIT * num * c for c in x]
            tie[0] -= (2 * n + 1) * den
            n += field.sign(tie) >= 0
        return _fmt(n, _UNIT)

    return text


def emit_svg(patch, colors=None, overlay=(), scale=24):
    """One rect per tile of the ``Patch`` ``patch``; y flipped so the patch
    displays with y increasing upward; optional horizontal overlay lines.
    Every coordinate prints as its exact value rounded half up to 9 digits."""
    if not isinstance(patch, Patch):
        raise ValidationError("emit_svg draws one Patch from generate_patch")
    scale = Fraction(scale)
    if scale <= 0:
        raise ValidationError("scale must be positive")
    lattice, top, children = patch.lattice, patch.top, patch.children
    widths, heights = lattice.widths, lattice.heights
    text = _rounder(lattice, scale)
    num, den = scale.numerator, scale.denominator
    w = text(patch.right)
    h = _fmt(top * num, den)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w} {h}" '
        f'width="{w}" height="{h}">',
    ]
    colors = colors or {}
    tails = {}    # tile -> its rect's width, height and fill
    for i, tile in enumerate(patch.tile_ids):
        color = colors.get(tile) or _PALETTE[i % len(_PALETTE)]
        tails[tile] = (f'width="{text(widths[tile[1]])}" '
                       f'height="{_fmt(heights[tile[0]] * num, den)}" '
                       f'fill="{color}" stroke="#202020" stroke-width="0.7"/>')
    # A rect is the prefix of its packed x and the suffix from its y on:
    # packed x -> '<rect x="x'; top edge -> flipped y; a node's (tile, y) ->
    # (dx, suffix) of each of its children.
    starts, flipped, ends = {}, {}, {}
    for tile, xn, yn in patch.nodes:
        kids = ends.get((tile, yn))
        if kids is None:
            kids = ends[tile, yn] = []
            for sub, dx, dy in children[tile]:
                edge = yn + dy + heights[sub[0]]
                y = flipped.get(edge)
                if y is None:
                    y = flipped[edge] = _fmt((top - edge) * num, den)
                kids.append((dx, f'" y="{y}" {tails[sub]}'))
        for dx, end in kids:
            x = xn + dx
            start = starts.get(x)
            if start is None:
                start = starts[x] = '<rect x="' + text(x)
            lines.append(start + end)
    for cut in overlay:
        q = (top - Fraction(cut)) * scale
        y = _fmt(q.numerator, q.denominator)
        lines.append(
            f'<line x1="0" y1="{y}" x2="{w}" y2="{y}" '
            f'stroke="#d02020" stroke-width="1.6" stroke-dasharray="6,3"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
