"""Exact arithmetic in real algebraic number fields Q(lambda) = Q[x]/(p).

Polynomials are tuples of coefficients in *ascending* degree order.  An
element is an integer coefficient vector on the power basis over a common
denominator; every product, inverse and reduction goes through one
multiply-by-lambda step (``times_root``), and nothing stored here is ever a
float.  ``AlgebraicNumber`` is the view of such a vector that reports print.
Polynomial arithmetic over Z (root isolation, factorization, squarefree
parts, signs at rationals) lives in ``zpoly``, whose isolation and factoring
this module re-exports: the real-root intervals and the complex-root
rectangles are the ones sympy's continued-fraction and Collins-Krandick
isolation return, so every enclosure built from them is too.  Everything downstream of isolation (refinement,
signs, modular reduction) is implemented here with exact rational
intervals, evaluated by one integer Horner routine over a common denominator
(``horner_interval``).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import ValidationError
from .zpoly import (
    irreducible_factors,
    isolate_complex_roots,
    isolate_real_roots,
    sign_at,
    squarefree_part,
)

_MAX_REFINE = 4096  # bisection guard; never reached for nonzero values


# ---------------------------------------------------------------------------
# polynomial helpers (coefficients ascending, trimmed)
# ---------------------------------------------------------------------------

def ptrim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def pdeg(c):
    return len(c) - 1


def times_root(c, poly):
    """c * x in Q[x]/(poly) for a coefficient vector c (a tuple of length
    deg poly) and a monic integer poly: c shifted up one degree, less c[-1]
    times poly, which cancels the x^deg term.  The one multiply-by-lambda
    step; products, inverses, reduction, tile lengths and patch steps are
    built from it.  Integer vectors stay integer."""
    return tuple(x - c[-1] * f for x, f in zip((0,) + c[:-1], poly))


def times(a, b, poly):
    """a * b in Q[x]/(poly) for coefficient vectors a and b: Horner over the
    coefficients of a, acc := acc * x + a_i * b, one ``times_root`` a step."""
    acc = tuple(a[-1] * y for y in b)
    for x in reversed(a[:-1]):
        acc = tuple(u + x * y for u, y in zip(times_root(acc, poly), b))
    return acc


def inverse_vector(c, poly):
    """(v, d): an integer vector v and an integer d > 0 with c * v = d in
    Z[x]/(poly), for a nonzero integer vector c and a monic irreducible poly.

    Fraction-free Gauss-Jordan elimination on [M | e_0], M the matrix of
    multiplication by c (column j is c * x^j, one ``times_root`` step from
    column j - 1): each step divides exactly by the pivot before it, and
    leaves every diagonal entry equal to the last pivot, det M, with
    det M * M^-1 e_0 in the last column."""
    deg = len(c)
    cols = [c]
    for _ in range(deg - 1):
        cols.append(times_root(cols[-1], poly))
    rows = [[col[i] for col in cols] + [int(i == 0)] for i in range(deg)]
    prev = 1
    for k in range(deg):
        piv = next(i for i in range(k, deg) if rows[i][k])
        rows[k], rows[piv] = rows[piv], rows[k]
        pivot_row = rows[k]
        pv = pivot_row[k]
        for i in range(deg):
            f = rows[i][k]
            if i != k:
                rows[i] = [(pv * x - f * y) // prev for x, y in zip(rows[i], pivot_row)]
        prev = pv
    s = 1 if prev > 0 else -1
    return tuple(s * r[-1] for r in rows), s * prev


def poly_str(a):
    """Canonical display string, descending powers: ``x^2-x-3``."""
    a = ptrim(a)
    if not a:
        return "0"
    parts = []
    for d in range(len(a) - 1, -1, -1):
        c = a[d]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        if d == 0:
            term = str(mag)
        else:
            xs = "x" if d == 1 else f"x^{d}"
            term = xs if mag == 1 else f"{mag}{xs}"
        parts.append(sign + term)
    return "".join(parts)


# ---------------------------------------------------------------------------
# rational intervals
# ---------------------------------------------------------------------------

class Interval:
    """Closed interval with exact rational endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError("interval endpoints out of order")
        self.lo, self.hi = lo, hi

    def abs(self):
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return Interval(-self.hi, -self.lo)
        return Interval(0, max(-self.lo, self.hi))

    def midpoint(self):
        return (self.lo + self.hi) / 2

    def __repr__(self):
        return f"Interval({self.lo}, {self.hi})"


def clear_denominators(coeffs):
    """(nums, den): integers with coeffs[i] == nums[i] / den, den > 0 the
    lcm of the denominators."""
    den = 1
    for c in coeffs:
        d = Fraction(c).denominator
        den = den * d // gcd(den, d)
    return tuple(int(c * den) for c in coeffs), den


def integer_vectors(values):
    """(vectors, den): the coefficient vectors of elements of one field as
    integer tuples over one common denominator den > 0, i.e.
    values[i].coeffs[j] == vectors[i][j] / den."""
    deg = values[0].field.degree
    nums, den = clear_denominators([c for x in values for c in x.coeffs])
    return tuple(nums[i:i + deg] for i in range(0, len(nums), deg)), den


def horner_interval(nums, lo, hi, q):
    """Horner's rule in interval arithmetic for sum(nums[i] * x**i) over
    x in [lo/q, hi/q], with integer nums, lo, hi and q > 0.

    Returns integers (a, b, e), e > 0, for the enclosure [a/e, b/e].  As
    rationals it is the interval that exact interval Horner evaluation
    gives (acc := acc * [lo/q, hi/q] + c from the top coefficient down):
    every partial sum is carried scaled by the same power of q, and positive
    scaling does not change which endpoint products are least and greatest.
    """
    if not nums:
        return 0, 0, 1
    a = b = nums[-1]
    e = 1
    for c in reversed(nums[:-1]):
        e *= q
        t = (a * lo, a * hi, b * lo, b * hi)
        a = min(t) + c * e
        b = max(t) + c * e
    return a, b, e


def bisect(lo, hi, width, below):
    """Halve [lo, hi] until it is at most ``width`` wide: each step keeps
    [mid, hi] when ``below(mid)`` holds and [lo, mid] otherwise; returns
    (lo, hi).  The certified bisection loop on rationals; a field's root
    interval is halved on its integers instead (``NumberField.refined``)."""
    while hi - lo > width:
        mid = (lo + hi) / 2
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def root_interval(q, t, width):
    """Rational interval (lo, hi) around q**(1/t), q >= 0, at most ``width``
    wide; (0, 0) for q = 0."""
    q = Fraction(q)
    if q == 0:
        return (Fraction(0), Fraction(0))
    return bisect(Fraction(0), max(Fraction(1), q), width, lambda mid: mid ** t <= q)


def decimal_string(num, den, digits):
    """num/den (den > 0) rounded half up to ``digits`` fractional digits,
    as a fixed-point decimal string."""
    unit = 10 ** digits
    n = (2 * num * unit + den) // (2 * den)
    sign = "-" if n < 0 else ""
    whole, frac = divmod(abs(n), unit)
    return f"{sign}{whole}.{frac:0{digits}d}"


# ---------------------------------------------------------------------------
# number fields and their elements
# ---------------------------------------------------------------------------

class NumberField:
    """Q[x]/(p) with a distinguished real root of p singled out by an
    isolating interval.

    p is a monic irreducible integer polynomial, so the quotient is a genuine
    field and exact zero testing is coefficient-wise.  The root interval only
    ever shrinks; refinements are cached on the field object.  Exact results
    (signs, comparisons, modular reduction) do not depend on that cache, but
    enclosures do: ``AlgebraicNumber.interval(width)`` evaluates at the
    current root interval, so once an earlier computation has refined the
    field, the same number and width give a tighter (different) enclosure.
    """

    __slots__ = ("poly", "_ziv", "_sign_lo")

    def __init__(self, poly, interval):
        poly = ptrim(int(c) for c in poly)
        if not poly or poly[-1] != 1:
            raise ValidationError("defining polynomial must be monic over Z")
        lo, hi = Fraction(interval[0]), Fraction(interval[1])
        if pdeg(poly) == 1:
            root = -Fraction(poly[0])
            if not (lo <= root <= hi):
                raise ValidationError("interval does not contain the rational root")
            lo = hi = root
            sign_lo = 1
        else:
            sign_lo = sign_at(poly, lo)
            if sign_lo * sign_at(poly, hi) >= 0:
                raise ValidationError("defining polynomial must change sign on the interval")
        self.poly = poly
        self._set_interval(lo, hi)
        self._sign_lo = sign_lo

    def _set_interval(self, lo, hi):
        """Store [lo, hi] as integers (lo * q, hi * q, q), q the lcm of the
        two denominators; so gcd of the three is 1."""
        q = lo.denominator * hi.denominator // gcd(lo.denominator, hi.denominator)
        self._ziv = (lo.numerator * (q // lo.denominator),
                     hi.numerator * (q // hi.denominator), q)

    @property
    def _iv(self):
        lo, hi, q = self._ziv
        return Fraction(lo, q), Fraction(hi, q)

    @property
    def degree(self):
        return pdeg(self.poly)

    @property
    def interval(self):
        return Interval(*self._iv)

    @property
    def root_ints(self):
        """The root interval as integers (lo, hi, q): the root lies in
        [lo/q, hi/q].  A new tuple whenever the interval is refined."""
        return self._ziv

    def refined(self, width):
        """Shrink the cached isolating interval to at most ``width`` wide."""
        if self.degree > 1:
            width = Fraction(width)
            while True:
                lo, hi, q = self._ziv
                if (hi - lo) * width.denominator <= width.numerator * q:
                    break
                self._bisect_once()
        return self.interval

    def _bisect_once(self):
        """Halve the root interval on its integers, keeping the half that
        holds the root.  The midpoint of [lo/q, hi/q] is (lo + hi)/(2q), and
        the new triple stays in lowest terms without a gcd: it is (lo + hi)/2
        over q when lo + hi is even, and over 2q otherwise."""
        if self.degree == 1:
            return
        lo, hi, q = self._ziv
        mid = lo + hi
        if mid & 1:
            lo, hi, q = 2 * lo, 2 * hi, 2 * q
        else:
            mid >>= 1
        # q^deg * poly(mid / q) by integer Horner: p is irreducible, so never 0
        smid, _, _ = horner_interval(self.poly, mid, mid, q)
        assert smid != 0
        self._ziv = (mid, hi, q) if (smid > 0) == (self._sign_lo > 0) else (lo, mid, q)

    def enclose(self, nums, den, width=None):
        """Integer enclosure (a, b, e) of (sum(nums[i] * root**i)) / den, i.e.
        the value lies in [a/e, b/e], by ``horner_interval`` at the current
        root interval.

        With ``width``, the root interval is bisected one step at a time
        until the enclosure is at most ``width`` wide.  A rational value
        (nums[1:] all zero) gives [c, c] and never touches the field."""
        if not any(nums[1:]):
            return nums[0], nums[0], den
        for _ in range(_MAX_REFINE):
            lo, hi, q = self._ziv
            a, b, e = horner_interval(nums, lo, hi, q)
            e *= den
            if width is None or (b - a) * width.denominator <= width.numerator * e:
                return a, b, e
            self._bisect_once()
        raise RuntimeError("interval refinement did not converge")  # pragma: no cover

    def sign(self, nums):
        """Exact sign of sum(nums[i] * root**i) for integers nums: enclosures
        at the current root interval, bisected one step at a time until one
        excludes zero.  The one loop that bisects until a sign is decided;
        a positive common denominator never changes a sign, so callers pass
        numerators only."""
        if not any(nums):
            return 0
        for _ in range(_MAX_REFINE):
            a, b, _ = self.enclose(nums, 1)
            if a > 0:
                return 1
            if b < 0:
                return -1
            self._bisect_once()
        raise RuntimeError("sign refinement did not converge")  # pragma: no cover

    # -- element constructors ------------------------------------------------

    def element(self, nums, den=1):
        """The element with coefficient vector nums / den."""
        return AlgebraicNumber(self, [Fraction(c, den) for c in nums])

    def gen(self):
        """The distinguished root itself (the class of x)."""
        if self.degree == 1:
            return self.element((-self.poly[0],))
        return self.element((0, 1) + (0,) * (self.degree - 2))

    @classmethod
    def with_largest_real_root(cls, poly):
        """Field generated by the largest real root of an integer polynomial.

        Returns (field, root).  Raises if the polynomial has no real root.
        """
        sf = squarefree_part(ptrim(int(c) for c in poly))
        roots = isolate_real_roots(sf)
        if not roots:
            raise ValidationError("polynomial has no real root")
        lo, hi = roots[-1]
        for fac, _ in irreducible_factors(sf):
            if pdeg(fac) == 1:
                r = -Fraction(fac[0])
                # a nondegenerate isolating interval holds its root inside;
                # a rational root at its end is a smaller root of sf
                if lo < r < hi or lo == r == hi:
                    field = cls(fac, (r, r))
                    return field, field.gen()
            elif sign_at(fac, lo) * sign_at(fac, hi) < 0:
                field = cls(fac, (lo, hi))
                return field, field.gen()
        raise ValidationError("no irreducible factor matches the isolated root")

    def __repr__(self):
        lo, hi = self._iv
        return f"NumberField({poly_str(self.poly)}, root in [{lo}, {hi}])"


class AlgebraicNumber:
    """Element of a NumberField as reports print it: a rational coefficient
    vector on the power basis 1, x, ..., x^(deg-1).  Arithmetic runs on
    integer coefficient vectors (``times_root``, ``NumberField.sign``); this
    class only carries a value to its enclosure and its exact sign."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) > field.degree:
            raise ValueError("more coefficients than the field degree")
        self.field = field
        self.coeffs = coeffs + (Fraction(0),) * (field.degree - len(coeffs))

    def is_rational(self):
        return all(c == 0 for c in self.coeffs[1:])

    def as_fraction(self):
        if not self.is_rational():
            raise ValueError("not a rational value")
        return self.coeffs[0]

    def sign(self):
        """Exact sign: ``NumberField.sign`` of the numerators."""
        return self.field.sign(clear_denominators(self.coeffs)[0])

    def interval(self, width=Fraction(1, 2 ** 40)):
        """Rational enclosure of at most ``width`` wide."""
        a, b, e = self.field.enclose(*clear_denominators(self.coeffs), Fraction(width))
        return Interval(Fraction(a, e), Fraction(b, e))

    def __repr__(self):
        terms = []
        for d, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if d == 0:
                terms.append(str(c))
            elif d == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{d}")
        body = " + ".join(terms) if terms else "0"
        return f"<{body} in Q[x]/({poly_str(self.field.poly)})>"


def mod_reduce(a, modulus):
    """a - k*modulus with the integer k chosen so the result lies in
    [0, modulus).  modulus must be positive.  On algebraic numbers, k comes
    from ``mod_quotient`` on their integer coefficient vectors."""
    if not isinstance(a, AlgebraicNumber) and not isinstance(modulus, AlgebraicNumber):
        a, modulus = Fraction(a), Fraction(modulus)
        if modulus <= 0:
            raise ValidationError("modulus must be positive")
        return a - (a / modulus).numerator // (a / modulus).denominator * modulus
    field = (modulus if isinstance(modulus, AlgebraicNumber) else a).field
    a, m = (x if isinstance(x, AlgebraicNumber) else field.element((x,))
            for x in (a, modulus))
    if a.field.poly != m.field.poly:
        raise ValidationError("algebraic numbers from different fields")
    (av, mv), den = integer_vectors((a, m))
    if m.field.sign(mv) <= 0:
        raise ValidationError("modulus must be positive")
    k = mod_quotient(m.field, av, mv)
    return a.field.element([x - k * y for x, y in zip(av, mv)], den)


def mod_quotient(field, av, mv):
    """The integer k with 0 <= a - k*m < m, where a and m are the field
    elements with integer coefficient vectors av and mv over one common
    positive denominator (which cancels and is not needed).  The enclosure
    of m at the field's current root interval must already lie above zero,
    as ``field.sign(mv)`` leaves it.

    Enclosures of a / m at the current root interval (bisected only while
    they leave more than two candidates for k) give a first guess; k is then
    the integer with the two exact signs a - k*m >= 0 and a - (k+1)*m < 0.
    Every enclosure and sign decides the same way on a positive multiple of
    (av, mv), so the field is bisected the same whatever the denominator."""
    for _ in range(_MAX_REFINE):
        a0, a1, ae = field.enclose(av, 1)
        m0, m1, me = field.enclose(mv, 1)
        # floors of the corners of the enclosure of a / m
        floors = [x * me // (y * ae) for x in (a0, a1) for y in (m0, m1)]
        k = min(floors)
        if max(floors) - k <= 1:
            break
        field._bisect_once()
    else:  # pragma: no cover
        raise RuntimeError("interval refinement did not converge")

    def rest(j):
        """Sign of a - j*m."""
        return field.sign([x - j * y for x, y in zip(av, mv)])

    while rest(k) < 0:
        k -= 1
    while rest(k + 1) >= 0:
        k += 1
    return k
