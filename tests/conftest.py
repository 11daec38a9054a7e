"""Shared fixtures: the worked example substitutions and random generators."""

import random
from fractions import Fraction

import pytest

from faultline.algebra import Interval, peval
from faultline.substitution import Substitution


@pytest.fixture
def sigma1():
    return Substitution(["a", "b"], {"a": "ba", "b": "aaa"})


@pytest.fixture
def sigma2():
    return Substitution(["a", "b"], {"a": "ab", "b": "aaa"})


@pytest.fixture
def period_doubling():
    return Substitution(["0", "1"], {"0": "01", "1": "00"})


@pytest.fixture
def doubling():
    return Substitution(["v"], {"v": "vv"})


@pytest.fixture
def three_cycle():
    return Substitution(
        ["al", "be", "ga"],
        {"al": ["al", "be"], "be": ["ga", "al"], "ga": ["be", "ga"]},
    )


def random_substitution(rng, n_letters, max_len=3, primitive=True, tries=200):
    """Random substitution; when primitive=True, retry until the
    abelianization passes the Wielandt primitivity check."""
    names = [chr(ord("a") + i) for i in range(n_letters)]
    for _ in range(tries):
        rules = {}
        for name in names:
            length = rng.randint(1, max_len)
            rules[name] = "".join(rng.choice(names) for _ in range(length))
        s = Substitution(names, rules)
        if not primitive or s.is_primitive():
            return s
    raise AssertionError("could not generate a primitive substitution")


def shuffled_twin(rng, s):
    """Substitution with every rule image permuted: same lengths, same
    abelianization, different order."""
    rules = {}
    for letter, img in zip(s.letters, s.rules):
        img = list(img)
        rng.shuffle(img)
        rules[letter.name] = tuple(img)
    return Substitution(s.alphabet, rules)


def rng_for(name):
    return random.Random(f"faultline-{name}")


def peval_interval(a, iv):
    """Reference enclosure: Horner's rule in exact Fraction interval
    arithmetic, the body ``horner_interval`` replaced."""
    acc = Interval(0, 0)
    for c in reversed(a):
        acc = acc * iv + Interval(c, c)
    return acc


def reference_interval(x, width):
    """Reference ``AlgebraicNumber.interval``: ``peval_interval`` at the
    field's root interval, bisected one step at a time until the enclosure
    is at most ``width`` wide."""
    if x.is_rational():
        return Interval(x.coeffs[0], x.coeffs[0])
    width = Fraction(width)
    iv = peval_interval(x.coeffs, x.field.interval)
    while iv.width > width:
        x.field._bisect_once()
        iv = peval_interval(x.coeffs, x.field.interval)
    return iv


# Reference bisection loops: the bodies that ``algebra.bisect`` and
# ``algebra.root_interval`` replaced, kept as oracles.

def reference_sqrt_interval(q, prec):
    """Rational interval around sqrt(q) of width <= 2^-prec."""
    q = Fraction(q)
    if q == 0:
        return (Fraction(0), Fraction(0))
    lo, hi = Fraction(0), max(Fraction(1), q)
    width = Fraction(1, 2 ** prec)
    while hi - lo > width:
        mid = (lo + hi) / 2
        if mid * mid <= q:
            lo = mid
        else:
            hi = mid
    return (lo, hi)


def reference_nth_root_interval(ratio, t, width=Fraction(1, 10 ** 6)):
    """Rational interval around ratio**(1/t)."""
    ratio = Fraction(ratio)
    if ratio == 0:
        return (Fraction(0), Fraction(0))
    lo, hi = Fraction(0), max(Fraction(1), ratio)
    while hi - lo > width:
        mid = (lo + hi) / 2
        if mid ** t <= ratio:
            lo = mid
        else:
            hi = mid
    return (lo, hi)


def reference_refined(field, width):
    """``NumberField.refined`` as one inline loop: shrink the field's
    isolating interval to at most ``width`` wide."""
    lo, hi = field._iv
    if field.degree == 1:
        return Interval(lo, hi)
    width = Fraction(width)
    while hi - lo > width:
        mid = (lo + hi) / 2
        smid = peval(field.poly, mid)
        assert smid != 0
        if (smid > 0) == (field._sign_lo > 0):
            lo = mid
        else:
            hi = mid
    field._set_interval(lo, hi)
    return Interval(lo, hi)
