"""Exact field arithmetic in Q(lambda)."""

import random
from fractions import Fraction
from math import lcm
from operator import add

import pytest
from hypothesis import example, given, settings, strategies as st

import faultline
from faultline import algebra
from faultline.algebra import (
    AlgebraicNumber,
    NumberField,
    clear_denominators,
    decimal_string,
    horner_interval,
    inverse_vector,
    iroot,
    irreducible_factors,
    isolate_real_roots,
    mod_quotient,
    mod_reduce,
    poly_str,
    root_interval,
    times,
    times_root,
)
from faultline.errors import ValidationError
from faultline.fault import order_vectors
from faultline.render import Lattice, PlacedTile
from faultline.substitution import Substitution

from conftest import (
    HalvingField,
    Interval,
    bisect,
    bisect_once,
    Number,
    from_rational,
    gen,
    numbers,
    one,
    peval_interval,
    poly_mul,
    random_substitution,
    reference_interval,
    reference_mod_quotient,
    reference_mod_reduce,
    reference_nth_root_interval,
    reference_refined,
    reference_root_interval,
    reference_sign,
    reference_sqrt_interval,
    ring,
    rng_for,
    with_largest_real_root,
)

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=10 ** 6)


@pytest.fixture
def field():
    # the quadratic field with root ~2.3028, the larger root of x^2-x-3
    f, _ = with_largest_real_root((-3, -1, 1))
    return f


def test_algebra_keeps_only_the_print_view():
    # the program computes on integer coefficient vectors; the Fraction ring,
    # the exact order and interval arithmetic live on only in the tests
    def inherited(cls, name):
        return getattr(cls, name, None) is getattr(object, name, None)

    for name in ("_coerce", "__add__", "__sub__", "__mul__", "__truediv__", "__pow__",
                 "__neg__", "inverse", "is_zero", "__eq__", "__hash__", "compare",
                 "__lt__", "__ge__", "__float__"):
        assert inherited(AlgebraicNumber, name), name
    for name in ("zero", "one", "from_rational", "compatible", "with_largest_real_root"):
        assert inherited(NumberField, name), name
    for name in ("__add__", "__sub__", "__mul__", "__neg__", "scale", "shift", "sign",
                 "width", "__contains__"):
        assert inherited(algebra.Interval, name), name
    assert not hasattr(algebra, "compare")
    assert not {"Interval", "compare", "mod_reduce"} & set(faultline.__all__)
    assert "TileLengths" in faultline.__all__
    assert not hasattr(Substitution, "iterate") and not hasattr(Lattice, "element")
    assert not hasattr(Substitution, "image_lengths")
    for name in ("x", "width", "y", "height", "lattice"):
        assert not hasattr(PlacedTile, name), name


def test_lambda_squared_reduces(field):
    # lambda is (0, 1) on the power basis, and lambda^2 = lambda + 3
    assert times_root((0, 1), field.poly) == (3, 1)
    assert times((0, 1), (0, 1), field.poly) == (3, 1)


def test_lambda_times_lambda_minus_one(field):
    assert times((0, 1), (-1, 1), field.poly) == (3, 0)


def test_field_operators(field):
    poly = field.poly
    lam = (0, 1)
    assert times((2, 0), lam, poly) == (0, 2)                    # lam + lam = 2 lam
    assert times(lam, lam, poly) == (3, 1)                       # lam * lam = lam + 3
    # 1/lambda = (lambda - 1)/3, so (lambda + 3)/lambda = lambda
    inv, d = inverse_vector(lam, poly)
    assert (inv, d) == ((-1, 1), 3)
    assert tuple(Fraction(c, d) for c in times((3, 1), inv, poly)) == (0, 1)


def test_division_and_inverse():
    import sympy

    # products through the multiply-by-lambda step against sympy.rem, and
    # fraction-free inverses against sympy.invert, in the Perron fields of
    # random 2-6 letter substitutions
    x = sympy.Symbol("x")
    rng = rng_for("sympy-ring")
    degrees = set()
    for _ in range(30):
        field = random_substitution(rng, rng.randint(2, 6)).perron().root.field
        degrees.add(field.degree)
        p = sympy.Poly(list(reversed(field.poly)), x, domain="QQ")

        def as_poly(v):
            return sympy.Poly(list(reversed(v)), x, domain="QQ")

        def coeffs(q):
            c = [Fraction(int(v.p), int(v.q)) for v in reversed(q.all_coeffs())]
            return tuple(c + [Fraction(0)] * (field.degree - len(c)))

        for _ in range(4):
            a, b = ([rng.randint(-9, 9) for _ in range(field.degree)] for _ in range(2))
            assert times(tuple(a), tuple(b), field.poly) == coeffs(
                sympy.rem(as_poly(a) * as_poly(b), p))
            if any(a):
                v, d = inverse_vector(tuple(a), field.poly)
                assert d > 0 and all(isinstance(c, int) for c in v)
                assert tuple(Fraction(c, d) for c in v) == coeffs(sympy.invert(as_poly(a), p))
    assert degrees == {1, 2, 3, 4, 5, 6}


def test_compare_examples(field):
    # an exact comparison is the sign of the difference vector
    poly = field.poly
    assert field.sign((-2, 1)) > 0                               # lambda - 2
    assert field.sign((0, 0)) == 0                               # lambda - lambda
    lam2 = times_root((0, 1), poly)
    assert field.sign((lam2[0] - 3, lam2[1] - 1)) == 0           # lam^2 - lam - 3


def test_compare_matches_float_on_random_elements(field):
    rng = rng_for("compare")
    elems = []
    for _ in range(40):
        c0 = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        c1 = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        elems.append((c0, c1))
    lam = 2.302775637731995
    for a in elems[:20]:
        for b in elems[20:]:
            fa, fb = float(a[0] + a[1] * lam), float(b[0] + b[1] * lam)
            got = field.sign(clear_denominators([x - y for x, y in zip(a, b)])[0])
            if abs(fa - fb) > 1e-12:
                assert got == (1 if fa > fb else -1)
            else:
                assert got == 0


def test_ring_axioms_random(field):
    # products on integer vectors: distributive, commutative, associative
    rng = rng_for("ring")
    poly = field.poly
    for _ in range(60):
        a, b, c = (tuple(rng.randint(-9, 9) for _ in range(2)) for _ in range(3))
        ab = tuple(map(add, a, b))
        assert times(ab, c, poly) == tuple(map(add, times(a, c, poly), times(b, c, poly)))
        assert times(a, b, poly) == times(b, a, poly)
        assert times(a, times(b, c, poly), poly) == times(times(a, b, poly), c, poly)


def test_mod_reduce_examples(field):
    lam = gen(field)
    three = from_rational(field, 3)
    assert mod_reduce(lam, three) == lam
    assert ring(mod_reduce(three, three)).is_zero()
    assert mod_reduce(2 * lam, three) == 2 * lam - 3


def test_mod_reduce_invariants(field):
    rng = rng_for("mod")
    lam = gen(field)
    three = from_rational(field, 3)
    for _ in range(30):
        a = Number(field, [Fraction(rng.randint(-40, 40)), Fraction(rng.randint(-40, 40))])
        r = ring(mod_reduce(a, three))
        assert r.sign() >= 0 and (r - three).sign() < 0
        k = a - r
        # the cofactor is an exact integer multiple of the modulus
        q = k / three
        assert q.is_rational() and q.as_fraction().denominator == 1
    # irrational modulus too
    for m in range(1, 8):
        r = ring(mod_reduce(from_rational(field, m), lam))
        assert r.sign() >= 0 and (r - lam).sign() < 0


def test_floor_and_float(field):
    # the floor of a is a - mod_reduce(a, 1)
    lam = gen(field)
    unit = one(field)
    assert lam - mod_reduce(lam, unit) == 2
    assert -lam - mod_reduce(-lam, unit) == -3
    assert lam * lam - mod_reduce(lam * lam, unit) == 5
    assert abs(float(lam) - 2.302775637731995) < 1e-12


def test_total_order_operators(field):
    # the order of field values, on their integer vectors (fault.order_vectors)
    values = [(0, 1), (2, 0), times_root((0, 1), field.poly), (0, 0), (0, -1)]
    order = order_vectors(field, 1, values)
    assert [values[i] for i in order] == [(0, -1), (0, 0), (2, 0), (0, 1), (3, 1)]


def test_rational_degree_one_field():
    f, root = with_largest_real_root((-2, -1, 1))  # (x-2)(x+1)
    assert f.degree == 1
    assert root.is_rational() and root.as_fraction() == 2
    root = ring(root)
    assert (root * root - root - 2).is_zero()
    assert mod_reduce(from_rational(f, 7), from_rational(f, 2)) == from_rational(f, 1)


def test_field_mismatch_rejected(field):
    other, _ = with_largest_real_root((-1, -1, 1))
    with pytest.raises(ValidationError):
        mod_reduce(field.gen(), other.gen())


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
    return [with_largest_real_root(p)[0]
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
            x, y = new_f.element(c), ring(ref_f.element(c))
            if use_sign:
                ref = 0
                if not y.is_zero():
                    while (ref := peval_interval(y.coeffs, ref_f.interval).sign()) is None:
                        bisect_once(ref_f)
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
    field, root = with_largest_real_root(poly_mul((-2, 1), (-2, 1, -3, 1)))
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
        _, root = with_largest_real_root(poly)
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
    field, _ = with_largest_real_root(poly)
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
            x = ring(new_f.element(c)) * (gen(new_f) - near) + Fraction(offset, 2 ** bits)
            y = ring(ref_f.element(c)) * (gen(ref_f) - near) + Fraction(offset, 2 ** bits)
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
    widths = numbers(s.tile_lengths())
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
    new, ref = numbers(s.tile_lengths()), numbers(s.tile_lengths())
    m = max(new)
    x = ring(new[0].field.element(a[:m.field.degree])) * scale
    y = ring(ref[0].field.element(a[:m.field.degree])) * scale
    assert mod_reduce(x, m).coeffs == reference_mod_reduce(y, max(ref)).coeffs


def test_mod_reduce_uses_no_field_inverse(monkeypatch, field):
    def refuse(self):
        raise AssertionError("mod_reduce inverted in Q(lambda)")

    monkeypatch.setattr(Number, "inverse", refuse)
    assert not hasattr(AlgebraicNumber, "floor") and not hasattr(AlgebraicNumber, "mod")
    lam = gen(field)
    assert mod_reduce(7 * lam, lam * lam) == 7 * lam - (lam * lam) * 3
    assert mod_reduce(-lam, 3) == 3 - lam
    assert mod_reduce(from_rational(field, 7), lam) == 7 - 3 * lam


# ---------------------------------------------------------------------------
# root intervals by integer t-th roots against the halving they replaced
# ---------------------------------------------------------------------------

def test_iroot_is_the_floor_of_the_real_root():
    for t in range(1, 7):
        for n in range(0, 3000):
            r = iroot(n, t)
            assert r ** t <= n < (r + 1) ** t
        for r in (10 ** 20, 2 ** 100 + 1):
            assert iroot(r ** t, t) == r and iroot(r ** t - 1, t) == r - 1


@settings(max_examples=400, deadline=None)
@given(q=st.one_of(st.just(Fraction(0)),
                   st.fractions(min_value=0, max_value=1, max_denominator=10 ** 12)
                   .filter(lambda x: 0 < x < 1),
                   st.just(Fraction(1)),
                   st.fractions(min_value=1, max_value=10 ** 9, max_denominator=10 ** 6)
                   .filter(lambda x: x > 1)),
       t=st.integers(1, 6),
       width=st.one_of(st.integers(1, 80).map(lambda b: Fraction(1, 2 ** b)),
                       st.just(Fraction(1, 10 ** 6))))
@example(q=Fraction(1), t=3, width=Fraction(1, 2 ** 40))
@example(q=Fraction(1, 4), t=2, width=Fraction(1, 8))
@example(q=Fraction(27, 8), t=3, width=Fraction(1, 2 ** 12))
@example(q=Fraction(9), t=1, width=Fraction(1, 2))
def test_root_interval_matches_halving(q, t, width):
    # the grid cell at the least level no wider than width, with the q = 1
    # edge (the root is the top end, never a midpoint) and exact grid roots
    assert root_interval(q, t, width) == reference_root_interval(q, t, width)


# ---------------------------------------------------------------------------
# the level search against one halving at a time
# ---------------------------------------------------------------------------

def random_field(rng, degree):
    """A field of the given degree on the largest real root of a random
    monic integer polynomial."""
    while True:
        poly = tuple(rng.randint(-6, 6) for _ in range(degree)) + (1,)
        if poly[0] == 0 or not isolate_real_roots(poly):
            continue
        field, _ = with_largest_real_root(poly)
        if field.degree == degree:
            return field


def close_to_root(field, bits):
    """Integers (-a, b, 0, ...) whose value b * root - a lies in (0, 2^-bits
    * b): a/b is the low end of the root interval refined to 2^-bits, so its
    sign needs about that many levels."""
    twin = NumberField(field.poly, field._iv)
    lo = twin.refined(Fraction(1, 2 ** bits)).lo
    return (-lo.numerator, lo.denominator) + (0,) * (field.degree - 2)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32), degree=st.integers(2, 6), start=st.integers(0, 40),
       k=st.integers(1, 300))
def test_locate_finds_the_cell_that_halving_reaches(seed, degree, start, k):
    field = random_field(random.Random(seed), degree)
    for _ in range(start):
        bisect_once(field)
    twin = NumberField(field.poly, field._iv)
    for _ in range(k):
        bisect_once(twin)
    cell = algebra._cell(field.root_ints, k, field._locate(k))
    assert algebra._lowest_terms(cell) == twin.root_ints


coefficients = st.lists(st.integers(-40, 40), min_size=6, max_size=6)


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2 ** 32), degree=st.integers(1, 6),
       requests=st.lists(st.tuples(
           st.sampled_from(("enclose", "sign", "near", "mod_quotient", "refined")),
           coefficients, coefficients, st.integers(1, 130)), min_size=1, max_size=10))
def test_level_search_matches_halving_on_twin_fields(seed, degree, requests):
    # one field refines by the level search, its twin one halving at a time;
    # after every request the results and the root intervals must be equal
    field = random_field(random.Random(seed), degree)
    fast = NumberField(field.poly, field._iv)
    slow = HalvingField(field.poly, field._iv)
    for op, u, v, bits in requests:
        u, v = tuple(u[:degree]), tuple(v[:degree])
        width = Fraction(1, 2 ** bits)
        if op == "enclose":
            got, want = fast.enclose(u, 3, width), slow.enclose(u, 3, width)
        elif op == "sign":
            got, want = fast.sign(u), slow.sign(u)
        elif op == "near":
            if degree == 1:
                continue
            u = close_to_root(field, bits)
            got, want = fast.sign(u), slow.sign(u)
            assert got == 1
        elif op == "refined":
            got, want = fast.refined(width), slow.refined(width)
            got, want = (got.lo, got.hi), (want.lo, want.hi)
        else:
            if not any(v):
                v = (1,) + v[1:]
            sv = fast.sign(v)
            assert sv == slow.sign(v)
            if sv < 0:
                v = tuple(-x for x in v)
            got, want = mod_quotient(fast, u, v), reference_mod_quotient(slow, u, v)
        assert got == want
        assert fast.root_ints == slow.root_ints


def test_enclosing_the_golden_ratio_takes_few_evaluations(monkeypatch):
    # halving one level per evaluation took 193 evaluations for enclose and
    # 96 for refined; the level search takes a few per doubling of the depth,
    # and refined is enclose of the root itself
    fine = Fraction(1, 2 ** 96)
    fields = [with_largest_real_root((-1, -1, 1))[0] for _ in range(3)]
    twin = HalvingField(fields[0].poly, fields[0]._iv)
    calls = []
    horner = algebra.horner_interval
    monkeypatch.setattr(algebra, "horner_interval",
                        lambda *args: calls.append(args) or horner(*args))
    a, b, e = fields[0].enclose((0, 1), 1, fine)
    assert len(calls) <= 16 and (b - a) * fine.denominator <= e
    calls.clear()
    fields[1].refined(fine)
    assert len(calls) <= 16
    monkeypatch.undo()
    assert twin.enclose((0, 1), 1, fine) == (a, b, e)
    assert fields[0].root_ints == twin.root_ints
    halving = HalvingField(fields[2].poly, fields[2]._iv)
    halving.refined(fine)
    assert fields[1].root_ints == halving.root_ints
