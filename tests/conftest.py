"""Shared fixtures: the worked example substitutions and random generators."""

import random
from fractions import Fraction

import pytest

from faultline.algebra import Interval
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
