"""Direct limits of Z^n under integer matrices, and the group algebra that
assembles cohomology answers.

A direct limit lim->(Z^n, A) is presented by (n, A); quotienting by the
saturated eventual kernel leaves an injective bonding map whose invariants
(rank, charpoly, determinant) classify the recognized cases.
"""

from faultline.abelian import (
    GroupExpr,
    direct_limit,
    direct_sum,
    invariants,
    mat,
    recognize,
    smith_normal_form,
    tensor,
)

# Smith normal form: the backbone of all the lattice computations
snf = smith_normal_form(mat([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]))
print("diagonal:", snf.diagonal)
print("u a v == d holds with unimodular u, v")

# multiplication by 2 on Z gives the dyadic rationals
g = direct_limit(mat([[2]]))
print("\nlim(Z, *2):", recognize(g).canonical())

# the horizontal H^1 matrix: irreducible charpoly means a localized ring
mu_dl = direct_limit(mat([[1, 1], [3, 0]]))
mu = recognize(mu_dl)
print("lim(Z^2, [[1,1],[3,0]]):", mu.canonical(), "| rank", mu_dl.r)

# integer eigenvalues 2, -1, -1 with eigen-lattice index 3 (coprime to 2):
# the limit splits as Z[1/2] (+) Z^2
d1 = direct_limit(mat([[0, 1, 1], [1, 0, 1], [1, 1, 0]]))
print("lim(Z^3, exchange+):", recognize(d1).canonical())

# a nilpotent map kills everything
print("lim(Z^2, nilpotent):", recognize(direct_limit(mat([[0, 1], [0, 0]]))).canonical())

# tensor algebra: Z[1/a] (x) Z[1/b] multiplies the localizations; tensoring
# raw limit presentations takes the Kronecker product
print("\nZ[1/2] (x) Z[1/3] =", tensor(GroupExpr.zloc(2), GroupExpr.zloc(3)).canonical())
mu_lim = GroupExpr.limit(mu_dl)
t = tensor(mu_lim, GroupExpr.zloc(2))
print("mu (x) Z[1/2] as a presentation:", t.canonical())

# recognized atoms stay symbolic, with the Kronecker presentation attached
h2 = tensor(mu, GroupExpr.zloc(2))
print("mu (x) Z[1/2] symbolically:", h2.canonical())
print("  presentation:", h2.presentation_matrix())
print("  invariants:", invariants(h2))

# direct sums collect equal summands into powers, localized parts first
s = direct_sum(GroupExpr.z(), direct_sum(GroupExpr.zloc(2), GroupExpr.z()))
print("\nZ (+) Z[1/2] (+) Z =", s.canonical())
print("mu (x) (that sum) =", tensor(mu, s).canonical())
