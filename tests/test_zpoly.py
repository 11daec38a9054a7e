"""Real-root isolation and factorization over Z (``faultline.zpoly``)
against sympy, the oracle they replaced: the same intervals and the same
factor lists, not merely valid ones."""

import math
from fractions import Fraction

import pytest

from faultline import zpoly
from faultline.algebra import irreducible_factors, is_irreducible, isolate_real_roots

from conftest import (
    rng_for,
    sympy_irreducible_factors,
    sympy_is_squarefree,
    sympy_isolate_real_roots,
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
    rng = rng_for("zpoly-factor")
    repeated = 0
    for i in range(1000):
        f = random_factored(rng) if i % 3 else random_poly(rng, rng.randint(0, 12))
        got = irreducible_factors(tuple(f))
        assert got == sympy_irreducible_factors(f), f
        repeated += any(m > 1 for _, m in got)
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
    ((0, 0, -2, 0, 1), [((0, 1), 2), ((-2, 0, 1), 1)]),
    ((1, -1, -1, -1, 1), [((1, -1, -1, -1, 1), 1)]),  # the degree-4 Salem polynomial
    ((4, 0, 0, 0, 1), [((2, -2, 1), 1), ((2, 2, 1), 1)]),  # x^4 + 4, no rational root
])
def test_factor_examples(poly, factors):
    assert irreducible_factors(poly) == factors == sympy_irreducible_factors(poly)


def test_is_irreducible_needs_one_simple_factor_of_full_degree():
    assert is_irreducible((1, -1, -1, -1, 1))
    assert not is_irreducible((4, -4, 1))        # (x-2)^2
    assert not is_irreducible((4, 0, 0, 0, 1))   # x^4 + 4
    assert is_irreducible((2, 4))                # 2 (x + 2): the content is dropped
    assert not is_irreducible((7,))


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
