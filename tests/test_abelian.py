"""Smith normal form, direct limits, recognition, group expressions."""

from itertools import combinations
from math import gcd

from faultline.abelian import (
    GroupExpr,
    charpoly,
    det,
    direct_limit,
    direct_sum,
    eye,
    integer_roots,
    invariants,
    kernel_basis,
    kron,
    mat,
    matpow,
    rank_q,
    recognize,
    smith_normal_form,
    tensor,
)

from conftest import rng_for


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def minors_gcd(m, k):
    """gcd of all k x k minors (brute force)."""
    rows = range(m.shape[0])
    cols = range(m.shape[1])
    g = 0
    for ri in combinations(rows, k):
        for ci in combinations(cols, k):
            sub = m[list(ri)][:, list(ci)]
            g = gcd(g, abs(det(sub)))
    return g


def brute_invariant_factors(m):
    """Determinantal-divisor quotients d_k / d_{k-1}."""
    out = []
    prev = 1
    for k in range(1, min(m.shape) + 1):
        dk = minors_gcd(m, k)
        if dk == 0:
            break
        out.append(dk // prev)
        prev = dk
    return out


def test_snf_examples():
    assert smith_normal_form(mat([[2, 0], [0, 3]])).diagonal == (1, 6)
    assert smith_normal_form(eye(3)).diagonal == (1, 1, 1)
    assert smith_normal_form(mat([[0]])).diagonal == (0,)


def test_snf_properties_random():
    rng = rng_for("snf")
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = mat([[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)])
        snf = smith_normal_form(a)
        assert (snf.u @ a @ snf.v == snf.d).all()
        assert abs(det(snf.u)) == 1 and abs(det(snf.v)) == 1
        diag = snf.diagonal
        for x, y in zip(diag, diag[1:]):
            if x != 0:
                assert y % x == 0
            else:
                assert y == 0
        nonzero = [x for x in diag if x != 0]
        assert nonzero == brute_invariant_factors(a)


def test_kernel_is_saturated():
    rng = rng_for("kernel")
    for _ in range(30):
        n = rng.randint(1, 4)
        a = mat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        k = kernel_basis(a)
        if k.shape[1] == 0:
            assert rank_q(a) == n
            continue
        assert not (a @ k != 0).any()
        # saturated lattice: unit invariant factors
        assert all(x == 1 for x in smith_normal_form(k).diagonal)


# ---------------------------------------------------------------------------
# direct limits
# ---------------------------------------------------------------------------

def test_direct_limit_examples():
    g = direct_limit(mat([[2]]))
    assert (g.r, g.a_prime) == (1, ((2,),))
    g = direct_limit(eye(3))
    assert g.r == 3 and recognize(g).canonical() == "Z^3"
    g = direct_limit(mat([[0, 1], [0, 0]]))
    assert g.r == 0 and recognize(g).canonical() == "0"


def test_direct_limit_power_invariance():
    rng = rng_for("dl-power")
    for _ in range(25):
        n = rng.randint(1, 4)
        a = mat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        g1 = direct_limit(a)
        for k in (2, 3):
            gk = direct_limit(matpow(a, k))
            assert gk.r == g1.r
            assert abs(gk.det_prime) == abs(g1.det_prime) ** k


def test_recognize_examples():
    assert recognize(direct_limit(mat([[0, 1, 1], [1, 0, 1], [1, 1, 0]]))).canonical() \
        == "Z[1/2] (+) Z^2"
    mu = recognize(direct_limit(mat([[1, 1], [3, 0]])))
    assert mu.canonical() == "Z[1/L:x^2-x-3]"
    assert mu.rank() == 2
    assert recognize(direct_limit(eye(4))).canonical() == "Z^4"


def test_recognize_rule_order():
    # unimodular wins before rank-one locazliation
    assert recognize(direct_limit(mat([[-1]]))).canonical() == "Z"
    assert recognize(direct_limit(mat([[3]]))).canonical() == "Z[1/3]"
    # nontrivial eigen-lattice index coprime to the eigenvalue product
    g = direct_limit(mat([[1, 1], [2, 0]]))
    assert recognize(g).canonical() == "Z[1/2] (+) Z"


def test_recognize_falls_back_to_limit():
    # eigenvalues 2 and 2: Jordan block is not diagonalizable
    g = direct_limit(mat([[2, 1], [0, 2]]))
    assert recognize(g).kind == "limit"
    assert recognize(g).canonical() == "Lim(n=2; [[2,1],[0,2]])"


def test_recognize_stable_under_conjugation():
    rng = rng_for("conjugation")
    cases = [
        mat([[1, 1], [3, 0]]),
        mat([[0, 1, 1], [1, 0, 1], [1, 1, 0]]),
        mat([[2]]),
        eye(3),
        mat([[1, 2], [1, 0]]),
    ]
    for a in cases:
        n = a.shape[0]
        base = recognize(direct_limit(a))
        for _ in range(6):
            # random unimodular via integer row operations on the identity
            q = eye(n)
            for _ in range(4):
                i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
                if i != j:
                    q[i, :] += rng.randint(-2, 2) * q[j, :]
            qinv_det = det(q)
            assert abs(qinv_det) == 1
            # inverse of a unimodular integer matrix via adjugate-free SNF trick
            snf = smith_normal_form(q)
            qinv = snf.v @ snf.u  # u q v = I  =>  q^{-1} = v u
            assert (q @ qinv == eye(n)).all()
            conj = q @ a @ qinv
            assert recognize(direct_limit(conj)) == base


# ---------------------------------------------------------------------------
# group expressions
# ---------------------------------------------------------------------------

def test_expr_combine_tensor_limits():
    mu_lim = GroupExpr.limit(direct_limit(mat([[1, 1], [3, 0]])))
    z_half = GroupExpr.zloc(2)
    out = tensor(mu_lim, z_half)
    assert out.canonical() == "Lim(n=2; [[2,2],[6,0]])"
    assert out.rank() == 2
    assert invariants(out)["det"] == 12


def test_expr_combine_z_identity():
    g = GroupExpr.zloc(5)
    assert tensor(GroupExpr.z(), g) == g
    assert tensor(g, GroupExpr.z()) == g


def test_mu_tensor_mu_rank():
    mu = recognize(direct_limit(mat([[1, 1], [3, 0]])))
    sq = tensor(mu, mu)
    assert sq.rank() == 4
    pres = sq.presentation_matrix()
    assert pres.tolist() == kron(mat([[1, 1], [3, 0]]), mat([[1, 1], [3, 0]])).tolist()
    assert charpoly(pres) == charpoly(kron(mat([[1, 1], [3, 0]]), mat([[1, 1], [3, 0]])))


def test_tensor_commutes_and_associates():
    mu = recognize(direct_limit(mat([[1, 1], [3, 0]])))
    parts = [mu, GroupExpr.zloc(2), GroupExpr.z(), direct_sum(GroupExpr.z(), GroupExpr.zloc(3))]
    for x in parts:
        for y in parts:
            assert tensor(x, y) == tensor(y, x)
            for z in parts:
                assert tensor(tensor(x, y), z) == tensor(x, tensor(y, z))


def test_sum_normalization_and_powers():
    z = GroupExpr.z()
    s = direct_sum(direct_sum(z, z), z)
    assert s.canonical() == "Z^3"
    zl = GroupExpr.zloc(2)
    assert direct_sum(zl, direct_sum(z, z)).canonical() == "Z[1/2] (+) Z^2"
    assert direct_sum(GroupExpr.trivial(), zl) == zl
    assert GroupExpr.zpow(0).canonical() == "0"


def test_zloc_tensor_zloc():
    assert tensor(GroupExpr.zloc(2), GroupExpr.zloc(3)).canonical() == "Z[1/6]"


def test_invariants_examples():
    zsum = direct_sum(GroupExpr.zloc(2), GroupExpr.zpow(2))
    inv = invariants(zsum)
    assert inv["rank"] == 3 and inv["det"] == 2
    assert invariants(GroupExpr.z()) == {"rank": 1, "det": 1, "charpoly": "x-1"}
    mu = recognize(direct_limit(mat([[1, 1], [3, 0]])))
    h2 = tensor(mu, GroupExpr.zloc(2))
    assert invariants(h2)["rank"] == 2
    assert invariants(h2)["det"] == 12


def test_canonical_ordering_matches_convention():
    mu = recognize(direct_limit(mat([[1, 1], [3, 0]])))
    h2 = tensor(mu, direct_sum(GroupExpr.zloc(2), GroupExpr.zpow(2)))
    # localized summands print before tensor terms, free parts last
    assert h2.canonical() == "Z[1/L:x^2-x-3]^2 (+) (Z[1/L:x^2-x-3] (x) Z[1/2])"


def test_integer_roots():
    # (x-2)(x+1)^2 = x^3 - 3x - 2
    assert integer_roots((-2, -3, 0, 1)) == [(-1, 2), (2, 1)]
    assert integer_roots((0, 0, 1)) == [(0, 2)]
    assert integer_roots((-3, -1, 1)) == []


def test_charpoly_matches_numpy():
    import numpy as np

    rng = rng_for("charpoly")
    for _ in range(20):
        n = rng.randint(1, 4)
        a = mat([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        cp = charpoly(a)
        np_cp = np.poly(np.array(a.tolist(), dtype=float))
        got = [float(c) for c in reversed(cp)]
        want = list(np_cp)
        assert len(got) == len(want)
        assert all(abs(g - w) < 1e-6 for g, w in zip(got, want))
