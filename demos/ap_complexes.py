"""Anderson-Putnam complexes of 1-d substitutions.

The period-doubling substitution 0 -> 01, 1 -> 00 forces its border on the
right (every image starts with 0), so collaring on the left is enough.  The
resulting complex has three edges and two vertices, and the substitution
swaps the vertices.
"""

from faultline import Substitution, border_forcing, collar, graph_h1
from faultline.abelian import charpoly, direct_limit, recognize, transpose

pd = Substitution(["0", "1"], {"0": "01", "1": "00"})
print("border forcing (right, left):", border_forcing(pd))

collared, cx = collar(pd)
print("collared letters:", cx.edge_names)   # 0|1, 0|0, 1|0: core with left context
print("collared substitution:")
for i, img in enumerate(cx.edge_map):
    print("  ", cx.edge_names[i], "->", " ".join(cx.edge_names[j] for j in img))
print("vertices:", cx.n_vertices, "| vertex map:", cx.vertex_map)
print("edge matrix:", cx.edge_matrix)
print("charpoly of its transpose:", charpoly(transpose(cx.edge_matrix)), " (roots 2, -1, -1)")

# H^1 of the complex is free of rank E - V + 1 = 2; the substitution acts on
# it and the direct limit is H^1 of the tiling space
data = graph_h1(cx)
print("H1 rank:", data.h1_rank, "| induced action:", data.induced_h1)
nu = recognize(direct_limit(data.induced_h1))
print("H1 of the period-doubling tiling space:", nu.canonical())

# the same machinery on the horizontal substitution gives Z[1/lambda]
sigma = Substitution(["a", "b"], {"a": "ba", "b": "aaa"})
print("\nsigma:", sigma, "| border forcing:", border_forcing(sigma))
collared_s, cx_s = collar(sigma)
print("collared letters:", cx_s.edge_names, "| vertices:", cx_s.n_vertices)
data_s = graph_h1(cx_s)
g = direct_limit(data_s.induced_h1)
print("H1 limit: rank", g.r, "| charpoly", g.charpoly_prime,
      "| recognized:", recognize(g).canonical())

# a one-letter doubling substitution gives the circle with a degree-2 map
dbl = Substitution(["v"], {"v": "vv"})
_, cx_d = collar(dbl)
print("\ndoubling complex: edges", cx_d.n_edges, "vertices", cx_d.n_vertices)
print("H1 of the dyadic solenoid:",
      recognize(direct_limit(graph_h1(cx_d).induced_h1)).canonical())
