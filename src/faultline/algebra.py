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

_MAX_REFINE = 4096  # levels one refinement may go down; never reached for nonzero values


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


def gauss_jordan(rows):
    """Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22,
    1968) of ``rows``, a list of equal-length integer lists, in place.

    Each column in turn pivots on its first nonzero entry among the rows
    not yet pivoted, swapped up.  Every other row, above and below, whatever
    its entry f in the pivot column, becomes (pivot * row - f * pivot row)
    divided exactly by the pivot before, so every entry stays a minor of
    the input; without the division the entries grow exponentially.  It
    stops once every row has pivoted, and then every pivot row holds the
    last pivot in its pivot column.  Returns (rank, d), d the last pivot
    times the sign of the row swaps (1 before any pivot): the determinant
    of a square input of full rank."""
    m = len(rows)
    rank, prev, sign = 0, 1, 1
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, m) if rows[i][col]), None)
        if piv is None:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            sign = -sign
        top = rows[rank]
        pv = top[col]
        for i, row in enumerate(rows):
            f = row[col]
            # with f = 0 and pv = prev the update leaves the row as it is
            if i != rank and (f or pv != prev):
                rows[i] = [(pv * x - f * y) // prev for x, y in zip(row, top)]
        prev = pv
        rank += 1
        if rank == m:
            break
    return rank, sign * prev


def inverse_vector(c, poly):
    """(v, d): an integer vector v and an integer d > 0 with c * v = d in
    Z[x]/(poly), for a nonzero integer vector c and a monic irreducible poly.

    ``gauss_jordan`` on [M | e_0], M the matrix of multiplication by c
    (column j is c * x^j, one ``times_root`` step from column j - 1): M is
    invertible, so it leaves every diagonal entry equal to its last pivot
    p = +-det M, with p * M^-1 e_0 in the last column."""
    deg = len(c)
    cols = [c]
    for _ in range(deg - 1):
        cols.append(times_root(cols[-1], poly))
    rows = [[col[i] for col in cols] + [int(i == 0)] for i in range(deg)]
    gauss_jordan(rows)
    p = rows[0][0]
    s = 1 if p > 0 else -1
    return tuple(s * r[-1] for r in rows), s * p


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


def _cell(ziv, k, j):
    """Cell j (from 0 at lo) of [lo/q, hi/q] cut into 2^k equal cells, as
    integers (lo, hi, q) that need not be in lowest terms."""
    lo, hi, q = ziv
    x = (lo << k) + j * (hi - lo)
    return x, x + hi - lo, q << k


def _halvings(num, den):
    """The least L >= 0 with num / den <= 2^L, for num >= 0 and den > 0: the
    halvings that take a width num / den down to 1."""
    return max(0, -(-num // den) - 1).bit_length()


def _lowest_terms(cell):
    """(lo, hi, q) divided by the gcd of the three."""
    g = gcd(*cell)
    return tuple(x // g for x in cell)


def iroot(n, t):
    """The integer t-th root of n >= 0: the largest r with r**t <= n, by
    Newton's method on integers from above."""
    if n < 2:
        return n
    r = 1 << -(-n.bit_length() // t)      # 2^ceil(bits / t) > n^(1/t)
    while True:
        s = ((t - 1) * r + n // r ** (t - 1)) // t
        if s >= r:
            return r
        r = s


def root_interval(q, t, width):
    """Rational interval (lo, hi) around q**(1/t), q >= 0, at most ``width``
    wide; (0, 0) for q = 0.

    It is the interval that halving [0, max(1, q)] gives, keeping [mid, hi]
    while mid**t <= q: the cell [j, j + 1] * M / 2^L of the grid of step
    M / 2^L, M = max(1, q), at the least level L with M / 2^L <= width.  j is
    the largest grid index with (j M / 2^L)**t <= q, an integer t-th root,
    and at most 2^L - 1, since the top end M is never a midpoint."""
    q, width = Fraction(q), Fraction(width)
    if q == 0:
        return (Fraction(0), Fraction(0))
    top = max(Fraction(1), q)
    level = _halvings(top.numerator * width.denominator, top.denominator * width.numerator)
    # (j * top / 2^L)^t <= q  <=>  j^t <= q * (2^L / top)^t, floored
    x = q * (Fraction(1 << level) / top) ** t
    j = min(iroot(x.numerator // x.denominator, t), (1 << level) - 1)
    step = top / (1 << level)
    return j * step, (j + 1) * step


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
    ever shrinks, and always to one of the 2^k equal cells of the interval
    before it: the one that holds the root, exactly as k halvings would leave
    it.  Each refinement (``enclose`` to a width, ``sign``, ``refined``,
    ``mod_quotient``) stops at the least level whose cell passes its test;
    nested cells give nested enclosures, so a test once passed stays passed,
    and that level is found in a few steps rather than one halving at a
    time: ``_descend`` gallops to deeper cells that integer Newton steps
    locate, then searches among their ancestors.  Refinements are cached on
    the field object.  Exact results (signs, comparisons, modular reduction)
    do not depend on that cache, but enclosures do:
    ``AlgebraicNumber.interval(width)`` evaluates at the current root
    interval, so once an earlier computation has refined the field, the same
    number and width give a tighter (different) enclosure.
    """

    __slots__ = ("poly", "_ziv", "_sign_lo", "_dpoly")

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
        self._dpoly = tuple(i * c for i, c in enumerate(poly))[1:]
        self._set_interval(lo, hi)
        self._sign_lo = sign_lo

    def copy(self):
        """A new field at the current root interval, refined apart from
        this one from now on."""
        other = object.__new__(NumberField)
        for name in self.__slots__:
            setattr(other, name, getattr(self, name))
        return other

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
        """Shrink the cached isolating interval to at most ``width`` wide:
        the enclosure of the root itself is the root interval."""
        self.enclose((0, 1), 1, Fraction(width))
        return self.interval

    def _locate(self, k):
        """The index j of the cell that holds the root when the root interval
        [lo/q, hi/q] is cut into 2^k equal cells, numbered from 0 at lo.

        Safeguarded Newton's method on the integer grid of cell ends: grid
        point t is x_t / s with x_t = lo * 2^k + t * (hi - lo) and s = q * 2^k,
        and a Newton step from t goes to t - p(x_t/s) / (p'(x_t/s) (hi - lo)/s).
        Every evaluation is an exact sign that narrows the bracket (tl, th)
        around the root.  A Newton step that leaves the bracket, or is more
        than half as long as the step before the last, is a halving of the
        bracket instead, so a poor start falls back to halving.  Once a step
        is short (its square below 2^k), the cell [f, f + 1] it lands in is
        certified by the exact signs at its two ends.  The answer is the cell
        that k halvings reach."""
        lo, hi, q = self._ziv
        w, x0, s = hi - lo, lo << k, q << k
        poly, dpoly, left = self.poly, self._dpoly, self._sign_lo > 0
        tl, th = 0, 1 << k      # the root lies strictly between these grid points
        t = th >> 1
        last = before = th      # the lengths of the last two steps
        while True:
            x = x0 + t * w
            v = horner_interval(poly, x, x, s)[0]   # never 0: p has no rational root
            if (v > 0) == left:
                tl = t
            else:
                th = t
            if th - tl == 1:
                return tl
            d = horner_interval(dpoly, x, x, s)[0] * w
            f = t + (-v) // d if d else tl - 1   # the floor of the Newton point
            step = abs(f - t)
            if tl <= f < th and 2 * step <= before:
                if step * step >> k == 0:
                    # a short step: the root most likely lies in [f, f + 1]
                    for g in (f, f + 1):
                        if tl < g < th:
                            x = x0 + g * w
                            if (horner_interval(poly, x, x, s)[0] > 0) == left:
                                tl = g
                            else:
                                th = g
                    if th - tl == 1:
                        return tl
                if tl < f < th:
                    t = f
                elif tl < f + 1 < th:
                    t = f + 1
                else:
                    t = (tl + th) >> 1
            else:
                t = (tl + th) >> 1
                step = (th - tl) >> 1
            before, last = last, step

    def _descend(self, short, need):
        """Refine the root interval to the least level at which
        ``short(lo, hi, q)`` returns 0 on the cell that holds the root.
        ``short`` is a test on a cell as integers (lo, hi, q), not in lowest
        terms; once it passes it must pass on every subcell.  When it fails
        it returns a guess of the further halvings needed (at least 1);
        ``need`` is its value on the current cell, which fails.

        The search gallops from the current cell: it locates the cell a
        guessed number of levels deeper (``_locate``), at least doubling the
        depth of this call, and moves there while the test fails.  The least
        passing level is then searched among the ancestors of the passing
        cell: at m levels below the current cell, the ancestor of the cell j
        at level k is the cell j >> (k - m).  The result is the triple that
        halving one step at a time reaches."""
        assert self.degree > 1, "a rational root has a point interval"
        depth = 0               # levels gone down in this call
        while True:
            k = max(need, depth)
            guided = need >= depth
            if depth + k > _MAX_REFINE:
                raise RuntimeError("interval refinement did not converge")
            j = self._locate(k)
            cell = _cell(self._ziv, k, j)
            need = short(*cell)
            if not need:
                break
            self._ziv = _lowest_terms(cell)
            depth += k
        # the least passing level in (0, k]: down from the top one step at a
        # time, doubling, when a guess set k; by halving the range otherwise
        lo, hi, step = 0, k, 1 if guided else k
        while hi - lo > 1:
            m = max(hi - step, (lo + hi) >> 1)
            if short(*_cell(self._ziv, m, j >> (k - m))):
                lo = m
            else:
                hi = m
            step *= 2
        self._ziv = _lowest_terms(_cell(self._ziv, hi, j >> (k - hi)))

    def enclose(self, nums, den, width=None):
        """Integer enclosure (a, b, e) of (sum(nums[i] * root**i)) / den, i.e.
        the value lies in [a/e, b/e], by ``horner_interval`` at the current
        root interval.

        With ``width``, the root interval is first refined to the least level
        at which the enclosure is at most ``width`` wide.  A rational value
        (nums[1:] all zero) gives [c, c] and never touches the field."""
        if not any(nums[1:]):
            return nums[0], nums[0], den
        a, b, e = horner_interval(nums, *self._ziv)
        if width is not None:
            wn, wd = width.numerator, width.denominator

            def halvings(a, b, e):
                # enclosure widths shrink about as fast as the cell, so this
                # is about the halvings still needed
                return _halvings((b - a) * wd, wn * e * den)

            need = halvings(a, b, e)
            if need:
                self._descend(lambda *cell: halvings(*horner_interval(nums, *cell)), need)
                a, b, e = horner_interval(nums, *self._ziv)
        return a, b, e * den

    def sign(self, nums):
        """Exact sign of sum(nums[i] * root**i) for integers nums: the sign
        of its enclosure at the least level of the root interval at which
        that enclosure excludes zero.  A positive common denominator never
        changes a sign, so callers pass numerators only."""
        if not any(nums):
            return 0
        a, b, _ = horner_interval(nums, *self._ziv)
        if a > 0:
            return 1
        if b < 0:
            return -1

        def short(lo, hi, q):
            a, b, _ = horner_interval(nums, lo, hi, q)
            return 0 if a > 0 or b < 0 else 1

        self._descend(short, 1)
        return 1 if horner_interval(nums, *self._ziv)[0] > 0 else -1

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
    def with_largest_of(cls, sf, roots, factors):
        """Field generated by the largest real root of a squarefree integer
        polynomial sf, and that root: (field, root).  ``roots`` is
        ``isolate_real_roots(sf)`` and ``factors`` is
        ``irreducible_factors(sf)`` or of any polynomial with sf as its
        squarefree part, which has the same factors.  Raises if sf has no
        real root."""
        if not roots:
            raise ValidationError("polynomial has no real root")
        lo, hi = roots[-1]
        for fac, _ in factors:
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

    Enclosures of a / m at the root interval, refined to the least level at
    which they leave at most two candidates for k, give a first guess; k is
    then the integer with the two exact signs a - k*m >= 0 and
    a - (k+1)*m < 0.  Every enclosure and sign decides the same way on a
    positive multiple of (av, mv), so the field is refined the same whatever
    the denominator."""

    def floors(lo, hi, q):
        # floors of the corners of the enclosure of a / m on the cell
        a0, a1, ae = horner_interval(av, lo, hi, q)
        m0, m1, me = horner_interval(mv, lo, hi, q)
        return [x * me // (y * ae) for x in (a0, a1) for y in (m0, m1)]

    def spread(f):
        return int(max(f) - min(f) > 1)

    f = floors(*field.root_ints)
    if spread(f):
        field._descend(lambda *cell: spread(floors(*cell)), 1)
        f = floors(*field.root_ints)
    k = min(f)

    def rest(j):
        """Sign of a - j*m."""
        return field.sign([x - j * y for x, y in zip(av, mv)])

    while rest(k) < 0:
        k -= 1
    while rest(k + 1) >= 0:
        k += 1
    return k
