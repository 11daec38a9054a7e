"""Exact-coordinate patches of DPV tilings, written as SVG.

Coordinates are exact: horizontal positions live in Q(lambda) and vertical
positions in Q, so adjacent tiles meet exactly and the row widths satisfy the
eigenvalue identity lambda^k * width(seed) on the nose.  The overlay marks
boundaries between rows of order-j supertiles; shears across those lines are
where the fault lines develop.
"""

import pathlib

from faultline import bundled_document, emit_svg, generate_patch
from faultline.algebra import times_root
from faultline.render import overlay_boundaries

out_dir = pathlib.Path(__file__).resolve().parent / "out"
out_dir.mkdir(exist_ok=True)

for name, seed, rounds in (
    ("doubling_swap", (0, 0), 4),
    ("period_doubling", (0, 0), 4),
    ("row_thirds", (0, 0), 4),
):
    d = bundled_document(name).dpv
    patch = generate_patch(d, seed, rounds)
    print(f"{name}: {len(patch)} tiles at {rounds} rounds")

    # verify the exact row identity before writing anything: a tile's left
    # edge and width are packed integer vectors over one denominator, so two
    # tiles meet exactly when the left edge plus the width is the next left edge
    lattice = patch.lattice
    rows = {}
    for t in patch.tiles:
        rows.setdefault(t.yn, []).append(t)
    target = lattice.vector(lattice.widths[seed[1]])
    for _ in range(rounds):
        target = times_root(target, lattice.field.poly)
    assert lattice.vector(patch.right) == target, "the patch's right edge is lambda^k * seed"
    for y, row in rows.items():
        assert row[0].xn == 0, "every row starts at the seed's left edge"
        for t1, t2 in zip(row, row[1:]):
            assert t1.xn + lattice.widths[t1.tile[1]] == t2.xn, "tiles must meet exactly"
        last = row[-1]
        right = lattice.vector(last.xn + lattice.widths[last.tile[1]])
        assert right == target, "every row spans lambda^k times the seed width"
    print("  exact tiling verified:", len(rows), "rows, each spanning lambda^k * seed")

    overlay = overlay_boundaries(d, seed, rounds, 1)
    svg = emit_svg(patch, overlay=overlay)
    path = out_dir / f"{name}_k{rounds}.svg"
    path.write_text(svg)
    print("  wrote", path)

print("\nopen the SVGs to see the sheared rows: equal rows of tiles slide")
print("against each other across the dashed lines by exact algebraic offsets.")
