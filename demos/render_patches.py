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
    # tiles meet exactly when the left edge plus the width is the next left
    # edge.  A tile is a child of a placed node, at the node's corner plus
    # the child's offset.
    lattice = patch.lattice
    rows = {}
    for tile, xn, yn in patch.nodes:
        for sub, dx, dy in patch.children[tile]:
            rows.setdefault(yn + dy, []).append((sub, xn + dx))
    target = lattice.vector(lattice.widths[seed[1]])
    for _ in range(rounds):
        target = times_root(target, lattice.field.poly)
    assert lattice.vector(patch.right) == target, "the patch's right edge is lambda^k * seed"
    for y, row in rows.items():
        assert row[0][1] == 0, "every row starts at the seed's left edge"
        for (t1, x1), (_, x2) in zip(row, row[1:]):
            assert x1 + lattice.widths[t1[1]] == x2, "tiles must meet exactly"
        last, x = row[-1]
        right = lattice.vector(x + lattice.widths[last[1]])
        assert right == target, "every row spans lambda^k times the seed width"
    print("  exact tiling verified:", len(rows), "rows, each spanning lambda^k * seed")

    overlay = overlay_boundaries(d, seed, rounds, 1)
    svg = emit_svg(patch, overlay=overlay)
    path = out_dir / f"{name}_k{rounds}.svg"
    path.write_text(svg)
    print("  wrote", path)

print("\nopen the SVGs to see the sheared rows: equal rows of tiles slide")
print("against each other across the dashed lines by exact algebraic offsets.")
