"""Fault-line dynamics in one dimension, step by step.

Two substitutions act on the rows touching a horizontal boundary: sigma1 on
the row just above, sigma2 on the row just below.  Because sigma2 is a cyclic
shift of sigma1 (same tiling space), the two rows drift against each other,
and the drift is controlled by the second eigenvalue of the substitution
matrix.
"""

from fractions import Fraction

from faultline import (OverlapGraph, Substitution, boundary_trace, classify_boundary,
                       discrepancy_growth)
from faultline.fault import offset_statistics


def approx(field, nums, den=1):
    """A decimal near the element nums / den of field, where nums is an
    integer coefficient vector on the basis 1, lambda, ... (the midpoint of
    a tight enclosure)."""
    a, b, e = field.enclose(nums, den, Fraction(1, 2 ** 60))
    return float(Fraction(a + b, 2 * e))


sigma1 = Substitution(["a", "b"], {"a": "ba", "b": "aaa"})
sigma2 = Substitution(["a", "b"], {"a": "ab", "b": "aaa"})

print("sigma1:", sigma1)
print("sigma2:", sigma2)
print("abelianization:", sigma1.matrix())

# Perron data: the expansion factor is the larger root of x^2 - x - 3
pd = sigma1.perron()
print("charpoly coefficients (ascending):", pd.charpoly)
print("expansion factor lambda ~", approx(pd.root.field, (0, 1)))   # lambda is (0, 1)

# tile widths making the substitution self-similar: a is lambda wide, b is 3.
# They are integer coefficient vectors on the basis 1, lambda over one
# denominator: (0, 1) is lambda and (3, 0) is 3.
widths = sigma1.tile_lengths()
print("tile widths as vectors over", widths.den, ":", widths.vectors)
print("tile widths:", [str(round(approx(widths.field, v, widths.den), 6))
                       for v in widths.vectors])

# the second eigenvalue 1 - lambda has modulus > 1, so letter-count
# discrepancies between the two rows grow without bound
sc = sigma1.spectral_class()
print("spectral class:", sc.kind.value,
      "| second eigenvalue modulus ~", float(sc.second_eigenvalue_modulus[0]))

# the overlap graph of the boundary: pairs of a top tile and a bottom tile
# that overlap, walked round by round from aligned seed tiles.  Traces and
# the classifier read its walks, so each round is walked once.
graph = OverlapGraph(sigma1, sigma2)

# start from an aligned pair of a tiles and substitute four times
trace = boundary_trace(graph, "a", 4)
for step in trace.steps:
    print(f"round {step.round}:")
    print("   top:", sigma1.text(step.top))
    print("   bot:", sigma2.text(step.bottom))
    print("   max |discrepancy|:", step.max_abs_discrepancy)

# over twelve rounds the max discrepancy multiplies by about |1 - lambda|
trace12 = boundary_trace(graph, "a", 12)   # walks only rounds 5-12 anew
lo, hi = discrepancy_growth(trace12)
print("max |discrepancy| by round:", trace12.max_abs_by_round())
print("geometric-mean growth over the last half:", float(lo), "..", float(hi))
print("(compare lambda - 1 ~ 1.302776)")

# the shear offsets lambda*m mod 3 keep accumulating new exact values:
# evidence for density in the limit.  They are integer vectors too, and so
# is the least gap between two of them.
stats = offset_statistics(trace12)
print("distinct offsets per round:", stats.per_round_counts)
print("total distinct offsets:", stats.distinct_count,
      "| smallest positive gap ~", approx(stats.field, stats.min_gap_vector, stats.den))

# the classifier puts it together and returns the boundary's kind.  It reads
# the walk from a that the trace took, and prints last, since its exact signs
# refine the graph's field.  The walk from a does not close: one of its
# states has |x_2| > C_2 / (|1 - lambda| - 1) in the conjugate 1 - lambda,
# and from there x_2 only grows, so the rows meet in infinitely many ways
print("classify(sigma1, sigma2):", classify_boundary(graph).value)
print("classify(sigma1, sigma1):", classify_boundary(OverlapGraph(sigma1, sigma1)).value)
