"""Root isolation and factorization over Z (``faultline.zpoly``) against
sympy, the oracle they replaced: the same intervals, rectangles and factor
lists, not merely valid ones."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from faultline import substitution, zpoly
from faultline.algebra import (
    irreducible_factors,
    isolate_complex_roots,
    isolate_real_roots,
)

from conftest import (
    poly_eval,
    random_substitution,
    reference_isolate_complex_roots,
    rng_for,
    sympy_irreducible_factors,
    sympy_is_squarefree,
    sympy_isolate_complex_roots,
    sympy_isolate_real_roots,
    sympy_sqf_part,
)


def _mul(a, b):
    return zpoly._mul(list(a), list(b))


def random_poly(rng, deg):
    bound = rng.choice((1, 2, 5, 30, 1000))
    lead = rng.choice((1, 1, -1, rng.randint(1, bound)))
    return [rng.randint(-bound, bound) for _ in range(deg)] + [lead]


def rational_root_poly(rng, max_deg=12):
    """A random polynomial of degree 1..max_deg, often with rational roots
    (linear factors q x - p) and a root at 0, sometimes scaled by a large
    content so that the LMQ bound takes logarithms of big integers."""
    f = random_poly(rng, rng.randint(0, max_deg - 1))
    while len(f) <= max_deg and rng.random() < 0.5:
        f = _mul(f, [rng.randint(-6, 6), rng.randint(1, 4)])
    if len(f) <= max_deg and rng.random() < 0.25:
        f = _mul(f, [0, 1])
    if rng.random() < 0.1:
        f = [c * rng.choice((2 ** 53 - 1, 3 ** 40, rng.getrandbits(70) | 1)) for c in f]
    return f


def test_isolation_matches_sympy_on_random_squarefree_polynomials():
    rng = rng_for("zpoly-isolation")
    cases = degenerate = 0
    while cases < 1600:
        f = rational_root_poly(rng)
        if len(f) < 2 or not sympy_is_squarefree(f):
            continue
        for eps in (None, Fraction(1, 2 ** 24)):
            got = isolate_real_roots(tuple(f), eps)
            assert got == sympy_isolate_real_roots(f, eps), (f, eps)
            degenerate += sum(lo == hi for lo, hi in got)
            cases += 1
    assert degenerate > 100   # exact roots at 0 and rational roots were met


def random_factored(rng):
    """A product of random factors with multiplicities 1-3, sometimes times a
    content, a sign and a power of x."""
    f = [rng.choice((1, -1, 2, 6))]
    for _ in range(rng.randint(1, 4)):
        g = random_poly(rng, rng.randint(1, 4))
        for _ in range(rng.choice((1, 1, 1, 2, 3))):
            if len(f) + len(g) <= 18:
                f = _mul(f, g)
    if rng.random() < 0.2:
        f = _mul(f, [0] * rng.randint(1, 3) + [1])
    return f


def test_factors_match_sympy_on_random_products():
    # also the squarefree part against sympy's sqf_part (which is primitive
    # with a positive leading coefficient; ours keeps the sign and content of
    # f), its factors against those of f, and the sign at a rational against
    # exact evaluation
    rng = rng_for("zpoly-factor")
    repeated = 0
    for i in range(1000):
        f = random_factored(rng) if i % 3 else random_poly(rng, rng.randint(0, 12))
        got = irreducible_factors(tuple(f))
        assert got == sympy_irreducible_factors(f), f
        repeated += any(m > 1 for _, m in got)
        while f and not f[-1]:
            f.pop()
        if not f:
            continue
        sf = zpoly.squarefree_part(f)
        unit = math.gcd(*f) * (1 if f[-1] > 0 else -1)
        assert list(sf) == [unit * c for c in sympy_sqf_part(f)], f
        assert irreducible_factors(sf) == [(h, 1) for h, _ in got], f
        x = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
        value = poly_eval(f, x)
        assert zpoly.sign_at(f, x) == (value > 0) - (value < 0), (f, x)
    assert repeated > 100


@pytest.mark.parametrize("poly, factors", [
    ((), []),
    ((5,), []),
    ((0, 3), [((0, 1), 1)]),
    ((-3, 6), [((-1, 2), 1)]),
    ((-2, 0, 1), [((-2, 0, 1), 1)]),                  # disc 8: irreducible
    ((1, 1, 1), [((1, 1, 1), 1)]),                    # disc -3
    ((-6, 1, 2), [((-3, 2), 1), ((2, 1), 1)]),        # disc 49
    ((4, -4, 1), [((-2, 1), 2)]),                     # disc 0
    ((-1, -1, -1, 1), [((-1, -1, -1, 1), 1)]),        # cubic, no rational root
    ((-2, 4, -1, 2), [((-1, 2), 1), ((2, 0, 1), 1)]),  # cubic, root 1/2
    ((-1, 6, -11, 6), [((-1, 1), 1), ((-1, 2), 1), ((-1, 3), 1)]),  # roots 1, 1/2, 1/3
    ((-2, 0, 0, 1), [((-2, 0, 0, 1), 1)]),            # x^3 - 2: irreducible
    ((-1, 0, 0, 1000), [((-1, 10), 1), ((1, 10, 100), 1)]),  # 1000x^3 - 1
    ((0, 0, -2, 0, 1), [((0, 1), 2), ((-2, 0, 1), 1)]),
    ((1, -1, -1, -1, 1), [((1, -1, -1, -1, 1), 1)]),  # the degree-4 Salem polynomial
    ((4, 0, 0, 0, 1), [((2, -2, 1), 1), ((2, 2, 1), 1)]),  # x^4 + 4, no rational root
])
def test_factor_examples(poly, factors):
    assert irreducible_factors(poly) == factors == sympy_irreducible_factors(poly)


def test_isolation_examples():
    assert isolate_real_roots(()) == isolate_real_roots((3,)) == []
    assert isolate_real_roots((0, 1)) == [(0, 0)]
    assert isolate_real_roots((-2, 0, 1)) == sympy_isolate_real_roots((-2, 0, 1))
    eps = Fraction(1, 2 ** 24)
    neg, pos = isolate_real_roots((-2, 0, 1), eps)
    assert pos[0] ** 2 < 2 < pos[1] ** 2 and neg[1] ** 2 < 2 < neg[0] ** 2
    assert 0 < pos[1] - pos[0] < eps and 0 < neg[1] - neg[0] < eps


def test_lmq_logarithm_mirrors_the_float_one():
    # the bound takes floor(log2) through a float, as sympy's ZZ.log does;
    # near large powers of two that is not bit_length() - 1
    a = 2 ** 53 - 1
    assert zpoly._log2(a) == int(math.log(a, 2)) == 53 != a.bit_length() - 1
    assert all(zpoly._log2(a) == a.bit_length() - 1 for a in range(1, 5000))


# ---------------------------------------------------------------------------
# complex roots: the upper half of sympy's rectangles
# ---------------------------------------------------------------------------

EPS = [Fraction(1, 2 ** 16), Fraction(1, 2 ** 32), Fraction(1, 2 ** 64)]


def sympy_upper(f, eps):
    return [r for r in sympy_isolate_complex_roots(f, eps) if r[1][1] > 0]


def assert_rectangles_match(f, deep=3):
    """For each eps, a fresh call and the refined rectangles of the previous
    eps agree; on the first `deep` eps they are sympy's too (sympy takes
    seconds per polynomial at 2^-64 from degree 7 on)."""
    rects = None
    for i, eps in enumerate(EPS):
        rects = isolate_complex_roots(f, eps) if rects is None else rects.refined(eps)
        assert rects == isolate_complex_roots(f, eps), (f, eps)
        if i < deep:
            assert rects == sympy_upper(f, eps), (f, eps)
    return rects


def test_complex_isolation_matches_sympy_on_random_squarefree_polynomials():
    rng = rng_for("zpoly-complex")
    seen = 0
    for deg in range(3, 11):
        while True:
            bound = rng.choice((1, 3, 10, 1000))
            f = [rng.randint(-bound, bound) for _ in range(deg)]
            f.append(rng.choice((1, -1, rng.randint(1, bound))))
            if sympy_is_squarefree(f):
                break
        seen += len(assert_rectangles_match(f, 3 if deg <= 4 else 2 if deg <= 6 else 1))
    assert seen >= 10


@pytest.mark.parametrize("q, deep", [
    ((1, 3, 1), 3),       # x^4 + 3x^2 + 1: four roots on Re z = 0, the first bisection line
    ((1, 1, 1), 2),       # x^4 + x^2 + 1
    ((-3, 1, 2, 1), 1),   # roots on both axes
])
def test_complex_isolation_matches_sympy_on_even_polynomials(q, deep):
    f = [0] * (2 * len(q) - 1)
    f[::2] = q
    assert sympy_is_squarefree(f)
    assert_rectangles_match(f, deep)


@pytest.mark.parametrize("f, deep", [
    ((-1, -1, -1, 1), 3),                               # tribonacci
    ((1, -1, -1, -1, 1), 3),                            # Salem: two roots on |z| = 1
    ((-2, 0, 0, 1), 3),                                 # x^3 - 2
    ((6, -5, 0, 2, -3, 1), 1),                          # three real roots, one pair
    # (x + 1)(x^2 + 2x + 10): the root -1 + 3i lies on the bisection line
    # Im z = 3 = B/8, where f' is real, so Im f keeps its sign across it
    ((10, 12, 3, 1), 3),
    (tuple(zpoly._mul(zpoly._mul([-1, 1], [-3, 2]), [1, 1, 1])), 2),  # roots 1, 3/2
    # two real roots 1e-9 apart: the real axis needs the squarefree fallback
    (tuple(zpoly._mul(zpoly._mul([-2, 0, 1], [-2 * 10 ** 18 - 1, 0, 10 ** 18]),
                      [7, 2, 1])), 1),
])
def test_complex_isolation_matches_sympy_on_factors_with_real_roots(f, deep):
    assert sympy_is_squarefree(f)
    assert_rectangles_match(f, deep)


def test_complex_isolation_edge_cases():
    assert isolate_complex_roots((), EPS[0]) == isolate_complex_roots((3, 1), EPS[0]) == []
    assert isolate_complex_roots((-2, 0, 1), EPS[0]) == []       # real roots only
    (a, b), = isolate_complex_roots((1, 0, 1), EPS[0])             # i
    assert a[0] <= 0 < b[0] and a[1] < 1 <= b[1]
    assert b[0] - a[0] < EPS[0] and b[1] - a[1] < EPS[0]
    assert isolate_complex_roots((1, 0, 1), EPS[0]) == sympy_upper((1, 0, 1), EPS[0])


def test_unit_roots_gives_up_on_a_repeated_root_then_a_line_takes_it_out():
    # g(w) = (3w - 1)^2 (w + 5) along the real axis from -1 to 1: a double
    # root at T = 2/3, which no dyadic bisection point hits
    g = zpoly._mul(zpoly._mul([-1, 3], [-1, 3]), [5, 1])
    assert zpoly._unit_roots(zpoly._content_free(g), 24) is None
    line = zpoly._Line(g, Fraction(-1), Fraction(0), Fraction(2), False)
    (a, b), = line.roots
    assert a < Fraction(2, 3) < b
    assert len(line.prod) == 3


def test_turns_match_sympy_rule_tables():
    from sympy.polys import rootisolation as ri

    code = {name: i for i, name in enumerate(("A1", "Q1", "A2", "Q2", "A3", "Q3", "A4", "Q4"))}
    code["OO"] = zpoly._OO
    for rules in (ri._rules_simple, ri._rules_ambiguous):
        for key, rule in rules.items():
            p, q, origin = code[key[0]], code[key[-1]], len(key) == 3
            for excluded in (0, 1) if rules is ri._rules_ambiguous else (0,):
                num, den = ri._values[rule][excluded]
                assert zpoly._turn(p, q, origin, excluded) == 4 * num // den, key


# ---------------------------------------------------------------------------
# located leaves: a rectangle with one root goes straight to the leaf that
# bisection alone reaches
# ---------------------------------------------------------------------------

@pytest.fixture
def locate_calls(monkeypatch):
    """Results of ``zpoly._locate``, True where it fell back to bisection."""
    calls = []
    locate = zpoly._locate

    def wrapped(*args):
        leaf = locate(*args)
        calls.append(leaf is None)
        return leaf

    monkeypatch.setattr(zpoly, "_locate", wrapped)
    return calls


@pytest.fixture
def line_builds(monkeypatch):
    """The number of ``zpoly._Line`` built so far, as a one-item list."""
    builds = [0]

    class Counted(zpoly._Line):
        __slots__ = ()

        def __init__(self, *args):
            builds[0] += 1
            super().__init__(*args)

    monkeypatch.setattr(zpoly, "_Line", Counted)
    return builds


def assert_chain_matches_reference(f, bits):
    """A fresh call at 2^-bits[0], then ``refined`` at each deeper 2^-bits,
    equal to the bisection reference at every step; the rectangles of each
    step."""
    steps = []
    for k in bits:
        eps = Fraction(1, 2 ** k)
        if not steps:
            got, want = isolate_complex_roots(f, eps), reference_isolate_complex_roots(f, eps)
        else:
            got, want = got.refined(eps), want.refined(eps)
        assert got == want, (f, k)
        steps.append(got)
    return steps


@settings(max_examples=25, deadline=None)
@given(deg=st.integers(3, 10), bound=st.sampled_from((1, 3, 10, 1000)),
       data=st.data(), first=st.integers(4, 64),
       deeper=st.lists(st.integers(5, 256), max_size=2, unique=True))
def test_located_leaves_match_bisection_on_random_squarefree_polynomials(
        deg, bound, data, first, deeper):
    coeff = st.integers(-bound, bound)
    f = data.draw(st.lists(coeff, min_size=deg, max_size=deg)) + [
        data.draw(coeff.filter(bool))]
    assume(len(zpoly._gcd(f, zpoly._deriv(f))) == 1)
    assert_chain_matches_reference(f, [first] + sorted(k for k in deeper if k > first))


def test_root_on_a_horizontal_bisection_line_is_located(locate_calls):
    # (x + 1)(x^2 + 2x + 10): the root -1 + 3i lies on the line Im z = B/8.
    # Newton settles on that line, and rectangles are (v, t] in height, so
    # the guess falls in the square below it, which holds the root
    assert_chain_matches_reference((10, 12, 3, 1), [16, 64, 128])
    assert_chain_matches_reference((10, 12, 3, 1), [64, 128])
    assert locate_calls and not any(locate_calls)


@pytest.mark.parametrize("f", [
    (1, 0, 3, 0, 1),   # x^4 + 3x^2 + 1: every root on Re z = 0
    # (x^2 - 2x + 2)(x - 3): the root 1 + i is (1 + i) B / 16, on lines of
    # both directions, and the guess can fall in the rectangle beside its own
    tuple(zpoly._mul([2, -2, 1], [-3, 1])),
])
def test_roots_on_bisection_lines_take_the_fallback(f, locate_calls):
    assert_chain_matches_reference(f, [16, 64, 128])
    assert_chain_matches_reference(f, [64, 128])
    assert any(locate_calls)


def test_roots_on_the_imaginary_axis_build_few_lines(line_builds):
    # x^4 + 3x^2 + 1: each root lies on Re z = 0, the left edge of every
    # rectangle that holds it, and a Newton step crosses that edge on its
    # way to the root; only the settled guess is held to the rectangle
    f = (1, 0, 3, 0, 1)
    assert_chain_matches_reference(f, [256])
    line_builds[0] = 0
    isolate_complex_roots(f, Fraction(1, 2 ** 256))
    assert line_builds[0] < 64


@pytest.mark.parametrize("f", [(6, -10, -7, -1, 1), (-1, 1, 2, 2, -4, 1)])
def test_guess_beside_a_real_root_builds_no_lines(f, line_builds, monkeypatch):
    # taken from ap-random charpolys: from the centre of a rectangle that
    # holds one non-real root, Newton settles on a real root instead, a
    # fixed-point unit above Im z = 0, which the guess's square leaves out.
    # That guess is dropped before any line is built (the square would count
    # 0), and the one-halving fallback reaches the leaf
    locate, tried = zpoly._locate, []

    def wrapped(*args):
        before = line_builds[0]
        leaf = locate(*args)
        tried.append((leaf is not None, line_builds[0] - before))
        return leaf

    monkeypatch.setattr(zpoly, "_locate", wrapped)
    assert_chain_matches_reference(f, [16, 32, 64])
    assert (False, 0) in tried
    assert all(found for found, lines in tried if lines)


def test_refining_near_the_unit_circle_builds_few_lines(line_builds):
    # (N z^2 - N z + N + 1)(z - 2) with N = 2^70, its constant term moved by
    # 1: an irreducible cubic whose non-real pair has modulus 1 + O(2^-70),
    # so its rectangles at 2^-64 still straddle |z| = 1.  spectral_classify
    # refines such rectangles by squaring eps; here down to 2^-512
    n = 2 ** 70
    f = zpoly._mul([n + 1, -n, n], [-2, 1])
    f[0] += 1
    assert [len(fac) for fac, _ in irreducible_factors(f)] == [4]
    bits = [16, 32, 64, 128, 256, 512]
    steps = assert_chain_matches_reference(f, bits)
    assert any(lo <= 1 <= hi for lo, hi in map(substitution._rect_modulus_sq, steps[2]))
    assert not any(lo <= 1 <= hi for lo, hi in map(substitution._rect_modulus_sq, steps[-1]))

    def lines(isolate):
        line_builds[0] = 0
        rects = isolate(f, Fraction(1, 2 ** bits[0]))
        for k in bits[1:]:
            rects = rects.refined(Fraction(1, 2 ** k))
        return line_builds[0]

    assert lines(isolate_complex_roots) < 64 < lines(reference_isolate_complex_roots)


class _Restarted(list):
    """The oracle as ``spectral_classify`` called it before refinement
    resumed: a fresh isolation at every eps, the upper half kept."""

    def __init__(self, f, eps):
        super().__init__(sympy_upper(f, eps))
        self.f = f

    def refined(self, eps):
        return _Restarted(self.f, eps)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32), n_letters=st.integers(3, 6))
def test_spectral_classify_unchanged_with_the_sympy_oracle(seed, n_letters):
    m = random_substitution(random.Random(seed), n_letters, max_len=4).matrix()
    got = substitution.spectral_classify(m)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(substitution, "isolate_complex_roots", _Restarted)
        assert substitution.spectral_classify(m) == got


def _numpy_circle_roots(f):
    import numpy as np

    return sum(1 for z in np.roots(f[::-1]) if z.imag > 0 and abs(abs(z) - 1) < 1e-7)


# Lehmer's polynomial: a Salem number of degree 10 with 8 conjugates on |z| = 1
LEHMER = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)


@settings(max_examples=200, deadline=None)
@given(half=st.lists(st.integers(-4, 4), min_size=3, max_size=5).filter(lambda h: h[0]))
def test_circle_roots_match_numpy_on_palindromes(half):
    # degree 4 to 8; the count needs an irreducible (so squarefree) f
    f = tuple(half) + tuple(reversed(half[:-1]))
    if f[-1] < 0:
        f = tuple(-c for c in f)
    factors = irreducible_factors(f)
    if len(factors) != 1 or factors[0][1] != 1:
        return
    assert zpoly.circle_roots(f) == _numpy_circle_roots(f)


def test_circle_roots_of_lehmer_and_small_cases():
    assert zpoly.circle_roots(LEHMER) == _numpy_circle_roots(LEHMER) == 4
    assert zpoly.circle_roots((1, -1, -1, -1, 1)) == 1    # the Salem quartic
    assert zpoly.circle_roots((1, 1, 1, 1, 1)) == 2       # the 5th cyclotomic
    assert zpoly.circle_roots((1, 3, 1)) == 0             # two real roots
    assert zpoly.circle_roots((1, -3, 3, -3, 1)) == 1     # Salem quartic of 2.15...
