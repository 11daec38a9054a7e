"""Smith normal form, direct limits, recognition, group expressions."""

from fractions import Fraction
from itertools import combinations, product
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from faultline.abelian import (
    GroupExpr,
    block_diag,
    charpoly,
    det,
    direct_limit,
    direct_sum,
    eye,
    invariants,
    kernel_basis,
    kron,
    mat,
    matmul,
    matpow,
    normalize,
    rank_q,
    recognize,
    shape,
    smith_normal_form,
    tensor,
    transpose,
)
from faultline import abelian
from faultline.algebra import gauss_jordan
from faultline.ap_complex import collar, graph_h1
from faultline.cli import group_json
from faultline.dpv import h1_limit
from faultline.errors import ValidationError

from conftest import (
    poly_eval,
    reference_charpoly,
    reference_direct_limit,
    reference_eye,
    reference_matmul,
    reference_rank_q,
    reference_smith_normal_form,
    rng_for,
)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def minors_gcd(m, k):
    """gcd of all k x k minors (brute force)."""
    rows, cols = map(range, shape(m))
    g = 0
    for ri in combinations(rows, k):
        for ci in combinations(cols, k):
            sub = [[m[i][j] for j in ci] for i in ri]
            g = gcd(g, abs(det(sub)))
    return g


def brute_invariant_factors(m):
    """Determinantal-divisor quotients d_k / d_{k-1}."""
    out = []
    prev = 1
    for k in range(1, min(shape(m)) + 1):
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
        assert matmul(matmul(snf.u, a), snf.v) == snf.d
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
        if shape(k)[1] == 0:
            assert rank_q(a) == n
            continue
        assert not any(map(any, matmul(a, k)))
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
    g = direct_limit(())
    assert (g.n, g.a, g.r, g.a_prime, g.charpoly_prime, g.det_prime, g.projection,
            g.section) == (0, (), 0, (), (1,), 1, (), ())


def test_direct_limit_builds_no_power_when_det_is_nonzero(monkeypatch):
    # a^n and its rank only check the singular reduction; a unimodular map
    # is its own reduced map
    calls = []
    monkeypatch.setattr(abelian, "matpow", lambda a, k: calls.append(k) or matpow(a, k))
    g = direct_limit(mat([[2, 1], [1, 1]]))
    assert (g.r, g.det_prime, calls) == (2, 1, [])
    g = direct_limit(mat([[1, 1], [1, 1]]))
    assert (g.r, g.det_prime, calls) == (1, 2, [2])


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


@st.composite
def bonding_maps(draw):
    """Square integer matrices up to 6 x 6: arbitrary ones, singular ones
    (a row repeats another plus a third), nilpotent ones (strictly upper
    triangular under a permutation of the basis) and unimodular ones
    (elementary row operations on I)."""
    n = draw(st.integers(0, 6))
    entry = st.integers(-3, 3) | st.just(0)
    a = [[draw(entry) for _ in range(n)] for _ in range(n)]
    kind = draw(st.sampled_from(["any", "singular", "nilpotent", "unimodular"]))
    if kind == "singular" and n:
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        a[i] = [x + y for x, y in zip(a[j], a[k])] if i not in (j, k) else [0] * n
    elif kind == "nilpotent":
        perm = draw(st.permutations(range(n)))
        upper = [[x if j > i else 0 for j, x in enumerate(row)] for i, row in enumerate(a)]
        a = [[upper[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    elif kind == "unimodular":
        a = [list(row) for row in eye(n)]
        for _ in range(draw(st.integers(0, 8)) if n > 1 else 0):
            i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            a[i] = [x + draw(st.integers(-2, 2)) * y for x, y in zip(a[i], a[j])]
        if n and draw(st.booleans()):
            a[0] = [-x for x in a[0]]
    return mat(a)


@settings(max_examples=300, deadline=None)
@given(a=bonding_maps())
@example(a=())
@example(a=((0,),))
@example(a=((0, 1), (0, 0)))
@example(a=((1, 1), (0, 1)))
@example(a=((2, 1), (4, 2)))
def test_direct_limit_matches_the_smith_only_reference(a):
    # an injective a skips the Smith form of a^n; every field is as the
    # Smith path gives it, singular or not
    assert direct_limit(a) == reference_direct_limit(a)


def test_recognize_examples():
    import sympy

    assert recognize(direct_limit(mat([[0, 1, 1], [1, 0, 1], [1, 1, 0]]))).canonical() \
        == "Z[1/2] (+) Z^2"
    mu = recognize(direct_limit(mat([[1, 1], [3, 0]])))
    assert mu.canonical() == "Z[1/L:x^2-x-3]"
    assert mu.rank() == 2
    assert recognize(direct_limit(eye(4))).canonical() == "Z^4"
    # integer roots come off the factor list, also two of size 10^7
    a = mat([[10 ** 7, 0], [0, 10 ** 7 + 19]])
    assert recognize(direct_limit(a)).canonical() == "Z[1/10000000] (+) Z[1/10000019]"
    # a repeated integer root: one summand per multiplicity
    g = direct_limit(mat([[2, 0, 0], [0, 2, 0], [0, 0, 3]]))
    assert g.charpoly_prime == (-12, 16, -7, 1)
    assert recognize(g).canonical() == "Z[1/2]^2 (+) Z[1/3]"
    # x^4 + 4 = (x^2 - 2x + 2)(x^2 + 2x + 2) is reducible without a rational
    # root, so neither the irreducible nor the integer-root rule applies
    companion = mat([[0, 0, 0, -4], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    assert recognize(direct_limit(companion)).kind == "limit"
    # the rule taken agrees with sympy's factorization of the charpoly
    x = sympy.Symbol("x")
    rng = rng_for("recognize-factors")
    for _ in range(40):
        n = rng.randint(2, 4)
        a = mat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        g = direct_limit(a)
        if g.r < 2 or abs(g.det_prime) == 1:
            continue
        cp = sympy.Poly(list(reversed(g.charpoly_prime)), x)
        _, factors = cp.factor_list()
        irreducible = len(factors) == 1 and factors[0][1] == 1 and factors[0][0].degree() == g.r
        assert (recognize(g).kind == "alg") == irreducible, a
        if recognize(g).kind == "sum":
            roots = sympy.roots(cp)
            assert all(r.is_integer for r in roots) and sum(roots.values()) == g.r, a


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
        n = len(a)
        base = recognize(direct_limit(a))
        for _ in range(6):
            # random unimodular via integer row operations on the identity
            q = [list(row) for row in eye(n)]
            for _ in range(4):
                i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
                if i != j:
                    c = rng.randint(-2, 2)
                    q[i] = [x + c * y for x, y in zip(q[i], q[j])]
            q = mat(q)
            qinv_det = det(q)
            assert abs(qinv_det) == 1
            # inverse of a unimodular integer matrix via adjugate-free SNF trick
            snf = smith_normal_form(q)
            qinv = matmul(snf.v, snf.u)  # u q v = I  =>  q^{-1} = v u
            assert matmul(q, qinv) == eye(n)
            conj = matmul(matmul(q, a), qinv)
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


def test_lone_raw_limit_is_its_own_tensor():
    # a Jordan block is not diagonalizable, so recognize leaves it raw; its
    # presentation is injective, so the direct limit of the Kronecker path
    # gives it back as it is
    lim = recognize(direct_limit(mat([[2, 1], [0, 2]])))
    assert lim.kind == "limit"
    out = tensor(lim, GroupExpr.z())
    assert out == lim and tensor(GroupExpr.z(), lim) == lim
    assert out.presentation_matrix() == lim.presentation_matrix() == ((2, 1), (0, 2))


def test_mu_tensor_mu_rank():
    mu = recognize(direct_limit(mat([[1, 1], [3, 0]])))
    sq = tensor(mu, mu)
    assert sq.rank() == 4
    pres = sq.presentation_matrix()
    assert pres == kron(mat([[1, 1], [3, 0]]), mat([[1, 1], [3, 0]]))
    assert charpoly(pres) == charpoly(kron(mat([[1, 1], [3, 0]]), mat([[1, 1], [3, 0]])))


def test_presentation_built_once_per_group(monkeypatch):
    # a printed group reads its rank, its |det| and its matrix off one
    # build of the presentation: two Kronecker products and one block sum
    mu = recognize(direct_limit(mat([[1, 1], [3, 0]])))
    expr = direct_sum(tensor(mu, mu), GroupExpr.zloc(2))
    built = []
    for name in ("kron", "block_diag"):
        real = getattr(abelian, name)
        monkeypatch.setattr(abelian, name,
                            lambda *a, real=real, name=name: built.append(name) or real(*a))
    report = group_json(expr)
    assert sorted(built) == ["block_diag", "kron", "kron"]
    assert (report["rank"], report["det"]) == (5, 3 ** 4 * 2)
    assert report["presentation"] == block_diag([kron(mu.presentation_matrix(),
                                                      mu.presentation_matrix()), ((2,),)])


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
    for k in range(4):
        assert (GroupExpr.zpow(k).rank(), GroupExpr.zpow(k).det_class()) == (k, 1)
        assert (GroupExpr.zloc(k + 1).rank(), GroupExpr.zloc(k + 1).det_class()) == (1, k + 1)


def test_canonical_ordering_matches_convention():
    mu = recognize(direct_limit(mat([[1, 1], [3, 0]])))
    h2 = tensor(mu, direct_sum(GroupExpr.zloc(2), GroupExpr.zpow(2)))
    # localized summands print before tensor terms, free parts last
    assert h2.canonical() == "Z[1/L:x^2-x-3]^2 (+) (Z[1/L:x^2-x-3] (x) Z[1/2])"


def test_charpoly_matches_numpy():
    rng = rng_for("charpoly")
    for _ in range(20):
        n = rng.randint(1, 4)
        a = mat([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        cp = charpoly(a)
        np_cp = np.poly(np.array(a, dtype=float))
        got = [float(c) for c in reversed(cp)]
        want = list(np_cp)
        assert len(got) == len(want)
        assert all(abs(g - w) < 1e-6 for g, w in zip(got, want))
    # det(xI - a) at small integers; numpy gives 1 for the 0 x 0 matrix too
    for n in range(7):
        a = mat([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        cp = charpoly(a)
        assert len(cp) == n + 1 and cp[-1] == 1
        for x in range(-2, 3):
            want = np.linalg.det(x * np.eye(n) - np.array(a, dtype=float).reshape(n, n))
            assert abs(poly_eval(cp, x) - want) <= 1e-6 * max(1.0, abs(want))


def test_charpoly_matches_fraction_reference():
    rng = rng_for("charpoly-exact")
    for _ in range(40):
        n = rng.randint(0, 9)
        lo = rng.choice((-6, 0))
        a = mat([[rng.randint(lo, 6) for _ in range(n)] for _ in range(n)])
        assert charpoly(a) == reference_charpoly(a)


@st.composite
def group_exprs(draw, leaves=3):
    """A normalized expression over the atoms Z, Z[1/m], Z^k and recognized
    direct limits of random integer matrices up to 3 x 3 and of Jordan
    blocks (raw limits), combined by direct sum, tensor product and powers,
    of rank at most 12."""
    atom = st.one_of(
        st.just(GroupExpr.z()),
        st.integers(1, 12).map(GroupExpr.zloc),
        st.integers(0, 3).map(GroupExpr.zpow),
        st.integers(1, 3).flatmap(lambda n: st.lists(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n))
        .map(lambda a: recognize(direct_limit(mat(a)))),
        st.integers(-4, 4).map(lambda e: recognize(direct_limit(((e, 1), (0, e))))),
    )
    expr = draw(atom)
    for _ in range(draw(st.integers(0, leaves - 1))):
        op = draw(st.sampled_from(["sum", "tensor", "power"]))
        if op == "power":
            k = draw(st.integers(1, 3))
            if expr.rank() * k <= 12:
                expr = normalize(GroupExpr(kind="power", base=expr, power=k))
            continue
        other = draw(atom)
        if op == "sum" and expr.rank() + other.rank() <= 12:
            expr = direct_sum(expr, other)
        elif op == "tensor" and expr.rank() * other.rank() <= 12:
            expr = tensor(expr, other)
    return expr


@settings(max_examples=150, deadline=None)
@given(a=group_exprs(), b=group_exprs(), k=st.integers(0, 3))
def test_rank_and_det_follow_the_group_algebra(a, b, k):
    # rank and |det| are read off the presentation; they obey the rules of
    # direct sums, tensor products and powers
    ra, rb, da, db = a.rank(), b.rank(), a.det_class(), b.det_class()
    assert invariants(a)["rank"] == ra and invariants(a)["det"] == da
    s = direct_sum(a, b)
    assert (s.rank(), s.det_class()) == (ra + rb, da * db)
    p = normalize(GroupExpr(kind="power", base=a, power=k))
    assert (p.rank(), p.det_class()) == (k * ra, da ** k)
    if ra * rb <= 36:
        t = tensor(a, b)
        assert (t.rank(), t.det_class()) == (ra * rb, da ** rb * db ** ra)


@settings(max_examples=150, deadline=None)
@given(a=bonding_maps())
def test_rank_and_det_of_recognized_limits(a):
    # a recognized direct limit has the rank and |det| of its reduced
    # bonding map, whichever atom it becomes
    g = direct_limit(a)
    expr = recognize(g)
    assert (expr.rank(), expr.det_class()) == (g.r, abs(g.det_prime) if g.r else 1)


@st.composite
def int_matrices(draw):
    """m x n integer matrices, m and n from 0 to 6 (a 0 x n matrix is the
    empty tuple): arbitrary ones, and ones whose rows repeat sums of others."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    a = [[draw(st.integers(-4, 4) | st.just(0)) for _ in range(n)] for _ in range(m)]
    for _ in range(draw(st.integers(0, 2)) if m > 2 else 0):
        i, j, k = (draw(st.integers(0, m - 1)) for _ in range(3))
        a[i] = [x + y for x, y in zip(a[j], a[k])]
    return mat(a) if n else ((),) * m


@settings(max_examples=300, deadline=None)
@given(a=bonding_maps() | int_matrices())
@example(a=())
@example(a=((), (), ()))
@example(a=((0, 0, 0), (0, 0, 0), (0, 0, 0)))
@example(a=((0, 1), (1, 0)))
@example(a=((0, 0, 1), (0, 1, 0), (1, 0, 0)))
@example(a=((0, 2, 1), (0, 1, 3), (5, 0, 0)))
@example(a=((2, 1, 1), (4, 2, 2), (1, 0, 1)))
@example(a=((0, 1, 2), (0, 2, 4)))
@example(a=((0, 3), (0, 1), (2, 5)))
def test_det_and_rank_q_match_sympy_and_the_fraction_reference(a):
    # one fraction-free elimination: the rank its pivots count, and the
    # determinant its last pivot gives with the sign of its row swaps
    import sympy

    m, n = shape(a)
    assert rank_q(a) == reference_rank_q(a)
    if m == n:
        assert det(a) == sympy.Matrix(m, n, [x for row in a for x in row]).det()
    else:
        with pytest.raises(ValidationError):
            det(a)


# ---------------------------------------------------------------------------
# the integer-matrix helpers against numpy
# ---------------------------------------------------------------------------

def _random(rng, rows, cols):
    return mat([[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)])


def _np(a, rows, cols):
    return np.array(a, dtype=np.int64).reshape(rows, cols)


def _same(got, want):
    """``got`` is ``want`` as a tuple of int tuples.  A 0-row matrix is the
    empty tuple, which has width 0 whatever numpy's width."""
    rows, cols = want.shape
    return (type(got) is tuple and all(type(r) is tuple for r in got)
            and all(type(x) is int for r in got for x in r)
            and shape(got) == (rows, cols if rows else 0)
            and [list(r) for r in got] == want.tolist())


# a 0 x n matrix is stored as (), so only shapes with n = 0 when there are no
# rows are inputs the helpers can receive
_SIZES = [(m, n) for m, n in product(range(4), repeat=2) if m or not n]


def test_mat_rejects_ragged_rows():
    with pytest.raises(ValidationError):
        mat([[1, 2], [3]])
    assert mat([]) == () and mat([[], []]) == ((), ())


@pytest.mark.parametrize("bad", [
    [[1, 2], [3]], ((1, 2), (3,)),              # ragged
    [[1.0, 2]], ((1, 2.5),), ((1, "2"),),       # entries that are not integers
    ((1, 2), [3, None]), [[Fraction(1, 2)]],
])
def test_smith_and_direct_limit_reject_what_mat_rejects(bad):
    for f in (mat, smith_normal_form, direct_limit):
        with pytest.raises(ValidationError):
            f(bad)


def test_smith_and_direct_limit_take_lists_bools_and_numpy_ints():
    a = ((2, 1, 0), (0, 3, 1), (1, 0, 4))
    for rows in ([list(r) for r in a], [list(map(np.int64, r)) for r in a]):
        assert smith_normal_form(rows) == smith_normal_form(a)
        assert direct_limit(rows) == direct_limit(a)
    assert direct_limit(((True, False), (0, 1))) == direct_limit(eye(2))


def test_package_matrices_skip_mat(monkeypatch, period_doubling):
    # the coboundary, the edge matrix, the vertex pullback and every matrix
    # that smith_normal_form and direct_limit pass on are tuples of int
    # tuples already: none is rebuilt entry by entry
    calls = []
    real = abelian.mat
    monkeypatch.setattr(abelian, "mat", lambda rows: calls.append(rows) or real(rows))
    _, cx = collar(period_doubling)
    data = graph_h1(cx)
    h1_limit(cx)
    recognize(direct_limit(cx.vertex_pullback_matrix()))
    recognize(direct_limit(data.induced_h1))
    assert calls == []
    smith_normal_form([[1, 2], [3, 4]])
    assert calls == [[[1, 2], [3, 4]]]


def test_eye_transpose_match_numpy():
    rng = rng_for("helpers-transpose")
    for n in range(4):
        assert _same(eye(n), np.eye(n, dtype=np.int64))
    for m, n in _SIZES:
        a = _random(rng, m, n)
        assert _same(transpose(a), _np(a, m, n).T)


def test_matmul_matches_numpy():
    rng = rng_for("helpers-matmul")
    for (m, k), p in product(_SIZES, range(4)):
        if k or not p:
            a, b = _random(rng, m, k), _random(rng, k, p)
            assert _same(matmul(a, b), _np(a, m, k) @ _np(b, k, p))


def test_matpow_matches_numpy():
    rng = rng_for("helpers-matpow")
    for n, k in product(range(5), range(7)):
        a = mat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        assert _same(matpow(a, k), np.linalg.matrix_power(_np(a, n, n), k))


def test_kron_matches_numpy():
    rng = rng_for("helpers-kron")
    for (m, n), (p, q) in product(_SIZES, repeat=2):
        a, b = _random(rng, m, n), _random(rng, p, q)
        assert _same(kron(a, b), np.kron(_np(a, m, n), _np(b, p, q)))


def test_block_diag_matches_numpy():
    rng = rng_for("helpers-block-diag")
    for _ in range(60):
        sizes = [rng.choice(_SIZES) for _ in range(rng.randint(0, 4))]
        blocks = [_random(rng, m, n) for m, n in sizes]
        want = np.zeros((sum(m for m, _ in sizes), sum(n for _, n in sizes)), dtype=np.int64)
        i = j = 0
        for b, (m, n) in zip(blocks, sizes):
            want[i:i + m, j:j + n] = _np(b, m, n)
            i, j = i + m, j + n
        assert _same(block_diag(blocks), want)


def test_returned_matrices_are_int_tuples(sigma1, period_doubling):
    def check(a, rows, cols):
        assert _same(a, _np(a, rows, cols))

    for s in (sigma1, period_doubling):
        n = s.size
        check(s.matrix(), n, n)
        _, cx = collar(s)
        e = cx.n_edges
        check(cx.edge_matrix, e, e)
        data = graph_h1(cx)
        check(data.h1_basis, e, data.h1_rank)
        check(data.induced_h1, data.h1_rank, data.h1_rank)
        snf = smith_normal_form(cx.edge_matrix)
        for part in (snf.u, snf.d, snf.v, snf.u_inv):
            check(part, e, e)
        g = direct_limit(transpose(cx.edge_matrix))
        check(g.a, e, e)
        check(g.a_prime, g.r, g.r)
        check(g.projection, g.r, e)
        check(g.section, e, g.r)
        expr = recognize(g)
        check(expr.presentation_matrix(), expr.rank(), expr.rank())
    nilpotent = direct_limit(mat([[0, 1], [0, 0]]))
    assert (nilpotent.a_prime, nilpotent.projection, nilpotent.section) == ((), (), ((), ()))
    assert GroupExpr.trivial().presentation_matrix() == ()


# ---------------------------------------------------------------------------
# the sparse, fraction-free kernels against the code they replaced
# ---------------------------------------------------------------------------

def _agrees_with_reference(a):
    """Smith form (all four matrices), rank and products of ``a`` equal those
    of the reference implementations in conftest."""
    snf = smith_normal_form(a)
    ref = reference_smith_normal_form(a)
    assert (snf.u, snf.d, snf.v, snf.u_inv) == (ref.u, ref.d, ref.v, ref.u_inv)
    assert rank_q(a) == reference_rank_q(a) == snf.rank
    at = transpose(a)
    for x, y in ((a, at), (at, a), (snf.u, a), (a, snf.v), (snf.u_inv, snf.u)):
        assert matmul(x, y) == reference_matmul(x, y)


def _coboundary(rng, n_vertices, n_edges):
    """E x V coboundary of a random connected multigraph: a spanning tree on
    shuffled vertices, then random edges (loops and parallel edges too), each
    row +1 at its end and -1 at its start, rows in random order."""
    labels = list(range(n_vertices))
    rng.shuffle(labels)
    ends = [(labels[rng.randrange(i)], labels[i]) for i in range(1, n_vertices)]
    ends += [(rng.randrange(n_vertices), rng.randrange(n_vertices))
             for _ in range(n_edges - len(ends))]
    rng.shuffle(ends)
    rows = []
    for start, end in ends:
        row = [0] * n_vertices
        row[end] += 1
        row[start] -= 1
        rows.append(row)
    return mat(rows)


def _primitive_01(rng, n, duplicate_row=False):
    """Random primitive 0-1 n x n matrix: some power is positive, so the
    2^k-th power is, for 2^k >= (n - 1)^2 + 1 (Wielandt)."""
    while True:
        a = [[int(rng.random() < 0.3) for _ in range(n)] for _ in range(n)]
        if duplicate_row:
            a[1] = list(a[0])
        b = a
        for _ in range(((n - 1) ** 2).bit_length() + 1):
            b = [[int(x > 0) for x in row] for row in reference_matmul(b, b)]
        if all(map(all, b)):
            return mat(a)


def test_eye_matches_reference():
    for n in range(25):
        assert eye(n) == reference_eye(n)


def test_kernels_match_reference_on_graph_coboundaries():
    rng = rng_for("reference-coboundary")
    for _ in range(40):
        n_vertices = rng.randint(1, 32)
        n_edges = rng.randint(max(n_vertices - 1, 1), 60)
        _agrees_with_reference(_coboundary(rng, n_vertices, n_edges))
    _agrees_with_reference(_coboundary(rng, 32, 60))


def test_kernels_match_reference_on_degenerate_shapes():
    rng = rng_for("reference-degenerate")
    # m x 0 is m empty rows; 0 x n is the empty tuple
    for m in range(5):
        _agrees_with_reference(((),) * m)
    for _ in range(60):
        m, n, r = rng.randint(1, 8), rng.randint(1, 8), rng.randint(0, 3)
        a = matmul(_random(rng, m, r), _random(rng, r, n)) if r else mat([[0] * n] * m)
        rows = [list(row) for row in a]
        for _ in range(rng.randint(0, 2)):
            rows.insert(rng.randint(0, len(rows)), [0] * n)
        for _ in range(rng.randint(0, 2)):
            j = rng.randint(0, n)
            rows = [row[:j] + [0] + row[j:] for row in rows]
            n += 1
        _agrees_with_reference(mat(rows))


def test_kernels_match_reference_on_non_unit_pivots():
    # no entry is a unit, so pivots of modulus 2 and up meet entries they do
    # not divide, and the divisibility scan decides
    rng = rng_for("reference-non-unit")
    entries = (0, 0, 2, -2, 3, -3, 4, 6, -9, 10, 15)
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        _agrees_with_reference(mat([[rng.choice(entries) for _ in range(n)] for _ in range(m)]))


def test_kernels_match_reference_on_primitive_powers():
    # A^n is what direct_limit hands to kernel_basis and rank_q
    rng = rng_for("reference-powers")
    for n in (2, 3, 5, 8, 12, 16, 20):
        a = _primitive_01(rng, n, duplicate_row=n % 2 == 0)
        an = matpow(a, n)
        assert an == reference_matmul(matpow(a, n - 1), a)
        _agrees_with_reference(an)


def test_rank_q_division_keeps_entries_small():
    # Bareiss divides each update by the previous pivot, so every entry is a
    # minor of the input and fits its Hadamard bound (the product of the row
    # norms).  Without that division the bit length of the entries doubles
    # at every pivot: past the bound within a few pivots of an 8 x 8 power,
    # and 19 pivots over the 50-bit entries of the 20 x 20 one do not finish
    rng = rng_for("bareiss-growth")
    a8 = matpow(_primitive_01(rng, 8, duplicate_row=True), 8)
    bound = sum((sum(x * x for x in row).bit_length() + 1) // 2 for row in a8) + 1
    rows = [list(row) for row in a8]
    gauss_jordan(rows)
    assert max(x.bit_length() for row in rows for x in row) <= bound
    a20 = matpow(_primitive_01(rng, 20, duplicate_row=True), 20)
    r = rank_q(a20)
    assert r == reference_rank_q(a20) < 20
