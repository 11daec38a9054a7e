"""Exact field arithmetic in Q(lambda)."""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from faultline.algebra import (
    AlgebraicNumber,
    Interval,
    NumberField,
    bisect,
    clear_denominators,
    compare,
    decimal_string,
    horner_interval,
    irreducible_factors,
    isolate_real_roots,
    mod_reduce,
    poly_str,
    root_interval,
)
from faultline.errors import ValidationError

from conftest import (
    peval_interval,
    poly_mul,
    random_substitution,
    reference_interval,
    reference_mod_reduce,
    reference_nth_root_interval,
    reference_refined,
    reference_sign,
    reference_sqrt_interval,
    rng_for,
)

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=10 ** 6)


@pytest.fixture
def field():
    # the quadratic field with root ~2.3028, the larger root of x^2-x-3
    f, _ = NumberField.with_largest_real_root((-3, -1, 1))
    return f


def test_lambda_squared_reduces(field):
    lam = field.gen()
    assert lam * lam == lam + 3


def test_sub_self_is_zero(field):
    a = field.element([Fraction(2, 7), Fraction(-5, 3)])
    assert (a - a).is_zero()


def test_lambda_times_lambda_minus_one(field):
    lam = field.gen()
    assert lam * (lam - 1) == field.from_rational(3)


def test_field_operators(field):
    lam = field.gen()
    assert lam + lam == 2 * lam
    assert (lam - lam).is_zero()
    assert lam * lam == lam + 3
    assert (lam + 3) / lam == lam


def test_division_and_inverse(field):
    import sympy

    lam = field.gen()
    inv = lam.inverse()
    assert (lam * inv) == field.one()
    # 1/lambda = (lambda - 1)/3 since lambda(lambda-1) = 3
    assert inv == (lam - 1) / 3
    with pytest.raises(ZeroDivisionError):
        field.zero().inverse()
    # products through the multiply-by-lambda step against sympy.rem, and
    # inverses by elimination against sympy.invert, in the Perron fields of
    # random 2-6 letter substitutions
    x = sympy.Symbol("x")
    rng = rng_for("sympy-ring")
    degrees = set()
    for _ in range(30):
        field = random_substitution(rng, rng.randint(2, 6)).perron().root.field
        degrees.add(field.degree)
        p = sympy.Poly(list(reversed(field.poly)), x, domain="QQ")

        def rand():
            return field.element([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                  for _ in range(field.degree)])

        def as_poly(y):
            return sympy.Poly(list(reversed(y.coeffs)), x, domain="QQ")

        def coeffs(q):
            c = [Fraction(int(v.p), int(v.q)) for v in reversed(q.all_coeffs())]
            return tuple(c + [Fraction(0)] * (field.degree - len(c)))

        for _ in range(4):
            a, b = rand(), rand()
            assert (a * b).coeffs == coeffs(sympy.rem(as_poly(a) * as_poly(b), p))
            if not a.is_zero():
                assert a.inverse().coeffs == coeffs(sympy.invert(as_poly(a), p))
        # an over-long coefficient list is reduced mod p on construction
        long = [Fraction(rng.randint(-9, 9)) for _ in range(2 * field.degree + 1)]
        want = sympy.rem(sympy.Poly(list(reversed(long)), x, domain="QQ"), p)
        assert field.element(long).coeffs == coeffs(want)
    assert degrees == {1, 2, 3, 4, 5, 6}


def test_compare_examples(field):
    lam = field.gen()
    assert compare(lam, field.from_rational(2)) > 0
    assert compare(lam, lam) == 0
    assert compare(lam * lam - lam, field.from_rational(3)) == 0


def test_compare_matches_float_on_random_elements(field):
    rng = rng_for("compare")
    elems = []
    for _ in range(40):
        c0 = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        c1 = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        elems.append(field.element([c0, c1]))
    for a in elems[:20]:
        for b in elems[20:]:
            fa, fb = float(a), float(b)
            if abs(fa - fb) > 1e-12:
                assert compare(a, b) == (1 if fa > fb else -1)
            else:
                assert compare(a, b) == 0


def test_ring_axioms_random(field):
    rng = rng_for("ring")
    for _ in range(60):
        a, b, c = (
            field.element([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(2)])
            for _ in range(3)
        )
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert a * (b * c) == (a * b) * c


def test_mod_reduce_examples(field):
    lam = field.gen()
    three = field.from_rational(3)
    assert mod_reduce(lam, three) == lam
    assert mod_reduce(three, three).is_zero()
    assert mod_reduce(2 * lam, three) == 2 * lam - 3


def test_mod_reduce_invariants(field):
    rng = rng_for("mod")
    lam = field.gen()
    three = field.from_rational(3)
    for _ in range(30):
        a = field.element([Fraction(rng.randint(-40, 40)), Fraction(rng.randint(-40, 40))])
        r = mod_reduce(a, three)
        assert r.sign() >= 0 and (r - three).sign() < 0
        k = a - r
        # the cofactor is an exact integer multiple of the modulus
        q = k / three
        assert q.is_rational() and q.as_fraction().denominator == 1
    # irrational modulus too
    for m in range(1, 8):
        r = mod_reduce(field.from_rational(m), lam)
        assert r.sign() >= 0 and (r - lam).sign() < 0


def test_floor_and_float(field):
    # the floor of a is a - mod_reduce(a, 1)
    lam = field.gen()
    one = field.one()
    assert lam - mod_reduce(lam, one) == 2
    assert -lam - mod_reduce(-lam, one) == -3
    assert lam * lam - mod_reduce(lam * lam, one) == 5
    assert abs(float(lam) - 2.302775637731995) < 1e-12


def test_total_order_operators(field):
    lam = field.gen()
    xs = sorted([lam, field.from_rational(2), lam * lam, field.zero(), -lam])
    assert [round(float(x), 3) for x in xs] == [-2.303, 0.0, 2.0, 2.303, 5.303]


def test_rational_degree_one_field():
    f, root = NumberField.with_largest_real_root((-2, -1, 1))  # (x-2)(x+1)
    assert f.degree == 1
    assert root.is_rational() and root.as_fraction() == 2
    assert (root * root - root - 2).is_zero()
    assert mod_reduce(f.from_rational(7), f.from_rational(2)) == f.from_rational(1)


def test_field_mismatch_rejected(field):
    other, _ = NumberField.with_largest_real_root((-1, -1, 1))
    with pytest.raises(ValidationError):
        field.gen() + other.gen()


def test_poly_utilities():
    assert poly_str((-3, -1, 1)) == "x^2-x-3"
    assert poly_str((1,)) == "1"
    assert poly_str((0, 2)) == "2x"
    assert poly_str((-1, 0, 0, 1)) == "x^3-1"
    facs = irreducible_factors((-2, -1, 1))
    assert [f for f, _ in facs] == [(-2, 1), (1, 1)]
    roots = isolate_real_roots((-3, -1, 1))
    assert len(roots) == 2 and roots[0][1] < roots[1][0]


def test_mod_reduce_rational_fallback():
    assert mod_reduce(7, 3) == 1
    assert mod_reduce(Fraction(-1, 2), 3) == Fraction(5, 2)


@settings(max_examples=300, deadline=None)
@given(coeffs=st.lists(fractions, max_size=5), ends=st.lists(fractions, min_size=2, max_size=2))
def test_horner_interval_matches_fraction_horner(coeffs, ends):
    lo, hi = sorted(ends)
    nums, den = clear_denominators(coeffs)
    assert den > 0 and all(Fraction(n, den) == c for n, c in zip(nums, coeffs))
    q = lcm(lo.denominator, hi.denominator)
    a, b, e = horner_interval(nums, int(lo * q), int(hi * q), q)
    ref = peval_interval(coeffs, Interval(lo, hi))
    assert (Fraction(a, e * den), Fraction(b, e * den)) == (ref.lo, ref.hi)


def twin_fields():
    return [NumberField.with_largest_real_root(p)[0]
            for p in ((-3, -1, 1), (-3, -1, 1), (-1, -1, 0, 1), (-1, -1, 0, 1))]


@settings(max_examples=60, deadline=None)
@given(requests=st.lists(st.tuples(st.lists(fractions, min_size=3, max_size=3),
                                   st.integers(0, 60), st.booleans()),
                         min_size=1, max_size=8))
def test_interval_and_sign_match_reference_refinement(requests):
    # Two copies of each field see the same requests, one through the
    # integer routine and one through the Fraction reference; enclosures,
    # signs and the refinement they leave must agree request by request.
    fields = twin_fields()
    for coeffs, bits, use_sign in requests:
        for new_f, ref_f in (fields[:2], fields[2:]):
            c = coeffs[:new_f.degree]
            x, y = new_f.element(c), ref_f.element(c)
            if use_sign:
                ref = 0
                if not y.is_zero():
                    while (ref := peval_interval(y.coeffs, ref_f.interval).sign()) is None:
                        ref_f._bisect_once()
                assert x.sign() == ref
            else:
                got = x.interval(Fraction(1, 2 ** bits))
                ref = reference_interval(y, Fraction(1, 2 ** bits))
                assert (got.lo, got.hi) == (ref.lo, ref.hi)
            assert (new_f.interval.lo, new_f.interval.hi) == (ref_f.interval.lo, ref_f.interval.hi)
            lo, hi, q = new_f.root_ints
            assert (Fraction(lo, q), Fraction(hi, q)) == (new_f.interval.lo, new_f.interval.hi)


def reference_decimal12(q):
    """The 12-digit formatter ``decimal_string`` replaced."""
    q = Fraction(q)
    scaled = q * 10 ** 12
    n = scaled.numerator // scaled.denominator
    if scaled - n >= Fraction(1, 2):
        n += 1
    sign = "-" if n < 0 else ""
    whole, frac = divmod(abs(n), 10 ** 12)
    return f"{sign}{whole}.{frac:012d}"


@settings(max_examples=300, deadline=None)
@given(q=st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 15))
def test_decimal_string_matches_reference(q):
    assert decimal_string(q.numerator, q.denominator, 12) == reference_decimal12(q)


def test_decimal_string_rounds_half_up():
    assert decimal_string(1, 8, 2) == "0.13"
    assert decimal_string(-1, 8, 2) == "-0.12"
    assert decimal_string(-1, 1000, 2) == "0.00"


def test_largest_real_root_skips_rational_root_at_interval_end():
    # (x-2)(x^3-3x^2+x-2): sympy isolates the largest root 2.893... in (2, 3],
    # whose left end is the root 2 of the other factor
    field, root = NumberField.with_largest_real_root(poly_mul((-2, 1), (-2, 1, -3, 1)))
    assert field.poly == (-2, 1, -3, 1)
    assert root.interval(Fraction(1, 10 ** 6)).lo > Fraction(2893, 1000)


def test_largest_real_root_matches_sympy_on_random_products():
    import sympy

    x = sympy.Symbol("x")
    rng = rng_for("largest-real-root")
    for _ in range(150):
        poly = (1,)
        for _ in range(rng.randint(1, 3)):
            poly = poly_mul(poly, tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 3))) + (1,))
        poly = tuple(int(c) for c in poly)
        real = sympy.Poly(list(reversed(poly)), x).real_roots()
        if not real:
            continue
        _, root = NumberField.with_largest_real_root(poly)
        iv = root.interval(Fraction(1, 10 ** 12))
        top = max(real)
        assert sympy.Rational(iv.lo.numerator, iv.lo.denominator) <= top
        assert top <= sympy.Rational(iv.hi.numerator, iv.hi.denominator)


# ---------------------------------------------------------------------------
# the one certified bisection routine against the loops it replaced
# ---------------------------------------------------------------------------

radicands = st.fractions(min_value=0, max_value=10 ** 6, max_denominator=10 ** 9)


@settings(max_examples=200, deadline=None)
@given(q=radicands, t=st.integers(1, 6), bits=st.integers(1, 80))
@example(q=Fraction(0), t=3, bits=40)
def test_root_interval_matches_reference_loops(q, t, bits):
    width = Fraction(1, 2 ** bits)
    iv = root_interval(q, t, width)
    assert iv == reference_nth_root_interval(q, t, width)
    if t == 2:
        assert iv == reference_sqrt_interval(q, bits)
    if q == 0:
        assert iv == (0, 0)
    else:
        lo, hi = iv
        assert hi - lo <= width and lo ** t <= q <= hi ** t


def test_root_interval_default_growth_width():
    # discrepancy_growth asks for width 10^-6, which is not a power of two
    width = Fraction(1, 10 ** 6)
    for q, t in ((Fraction(7, 3), 4), (Fraction(1, 9), 2), (Fraction(10 ** 5), 6)):
        assert root_interval(q, t, width) == reference_nth_root_interval(q, t, width)


def test_bisect_keeps_the_half_below_accepts():
    lo, hi = bisect(Fraction(0), Fraction(1), Fraction(1, 8), lambda mid: mid < Fraction(1, 3))
    assert (lo, hi) == (Fraction(1, 4), Fraction(3, 8))
    assert bisect(Fraction(0), Fraction(1), 1, lambda mid: True) == (0, 1)


@settings(max_examples=60, deadline=None)
@given(poly=st.sampled_from([(-3, -1, 1), (-2, 0, 1), (-1, -1, 0, 1), (-2, -1, -3, 1)]),
       requests=st.lists(st.one_of(st.integers(1, 80).map(lambda b: Fraction(1, 2 ** b)),
                                   st.fractions(min_value=Fraction(1, 10 ** 20), max_value=2)),
                         min_size=1, max_size=6))
def test_refined_matches_reference_loop_on_twin_fields(poly, requests):
    field, _ = NumberField.with_largest_real_root(poly)
    twin = NumberField(field.poly, field._iv)
    for width in requests:
        iv, ref = field.refined(width), reference_refined(twin, width)
        assert (iv.lo, iv.hi) == (ref.lo, ref.hi) == twin._iv == field._iv
        assert field.root_ints == twin.root_ints


# ---------------------------------------------------------------------------
# NumberField.sign and the integer mod_reduce against the bodies they replaced
# ---------------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(requests=st.lists(st.tuples(st.lists(fractions, min_size=3, max_size=3),
                                   st.integers(0, 120), st.integers(-3, 3), st.booleans()),
                         min_size=1, max_size=8))
def test_field_sign_matches_reference_loop(requests):
    # Each request is coeffs * (x - r) + e: r a rational within 2^-bits of
    # the root (so the sign needs that much bisection), e a small offset.
    # Twin fields see the same requests through NumberField.sign (directly
    # or as AlgebraicNumber.sign) and through the reference loop; signs and
    # root intervals must agree request by request.
    fields = twin_fields()
    probes = twin_fields()
    for coeffs, bits, offset, direct in requests:
        for (new_f, ref_f), probe in zip((fields[:2], fields[2:]), probes[::2]):
            near = probe.gen().interval(Fraction(1, 2 ** bits)).lo
            c = coeffs[:new_f.degree]
            x = new_f.element(c) * (new_f.gen() - near) + Fraction(offset, 2 ** bits)
            y = ref_f.element(c) * (ref_f.gen() - near) + Fraction(offset, 2 ** bits)
            got = new_f.sign(clear_denominators(x.coeffs)[0]) if direct else x.sign()
            assert got == reference_sign(y)
            assert new_f.root_ints == ref_f.root_ints


def test_field_sign_examples(field):
    assert field.sign((0, 0)) == 0
    assert field.sign((-2, 1)) == 1          # lambda - 2
    assert field.sign((7, -3)) == 1          # 7 - 3 lambda = 0.09...
    assert field.sign((-7, 3)) == -1
    assert field.sign((5,)) == 1 and field.sign((-5, 0)) == -1


def scan_refined_widths(s):
    """Tile widths of s in a fresh field, refined as the prefix scan refines
    them: each width to 2^-96."""
    widths = s.tile_lengths()
    for w in widths:
        w.interval(Fraction(1, 2 ** 96))
    return widths


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32), n_letters=st.integers(2, 4),
       ms=st.lists(st.integers(-300, 300), min_size=1, max_size=12))
def test_mod_reduce_matches_reference_after_scan_refinement(seed, n_letters, ms):
    s = random_substitution(random.Random(seed), n_letters)
    rng = random.Random(seed + 1)
    new, ref = scan_refined_widths(s), scan_refined_widths(s)
    field, ref_field = new[0].field, ref[0].field
    assert field.root_ints == ref_field.root_ints
    for m in ms:
        i, j = rng.randrange(n_letters), rng.randrange(n_letters)
        got = mod_reduce(new[i] * m, new[j])
        want = reference_mod_reduce(ref[i] * m, ref[j])
        assert got.coeffs == want.coeffs
        assert field.root_ints == ref_field.root_ints


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32), n_letters=st.integers(2, 4),
       a=st.lists(fractions, min_size=4, max_size=4), scale=st.integers(1, 10 ** 6))
def test_mod_reduce_matches_reference_on_coarse_fields(seed, n_letters, a, scale):
    # unrefined fields: the two may refine differently, the value is the same
    s = random_substitution(random.Random(seed), n_letters)
    new, ref = s.tile_lengths(), s.tile_lengths()
    m = max(new)
    x = new[0].field.element(a[:m.field.degree]) * scale
    y = ref[0].field.element(a[:m.field.degree]) * scale
    assert mod_reduce(x, m).coeffs == reference_mod_reduce(y, max(ref)).coeffs


def test_mod_reduce_uses_no_field_inverse(monkeypatch, field):
    def refuse(self):
        raise AssertionError("mod_reduce inverted in Q(lambda)")

    monkeypatch.setattr(AlgebraicNumber, "inverse", refuse)
    assert not hasattr(AlgebraicNumber, "floor") and not hasattr(AlgebraicNumber, "mod")
    lam = field.gen()
    assert mod_reduce(7 * lam, lam * lam) == 7 * lam - (lam * lam) * 3
    assert mod_reduce(-lam, 3) == 3 - lam
    assert mod_reduce(field.from_rational(7), lam) == 7 - 3 * lam
