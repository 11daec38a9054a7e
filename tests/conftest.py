"""Shared fixtures: the worked example substitutions and random generators."""

import json
import random
from fractions import Fraction
from functools import cmp_to_key
from itertools import chain
from math import gcd
from operator import add, mul, sub

import pytest
from hypothesis import settings

from faultline import abelian, algebra, fault, zpoly
from faultline.abelian import SmithForm, mat, shape, transpose
from faultline.algebra import (
    AlgebraicNumber,
    NumberField,
    clear_denominators,
    integer_vectors,
    ptrim,
    times_root,
)
from faultline.cli import alg_json
from faultline.errors import ResourceCapError, ValidationError
from faultline.substitution import SpectralKind, Substitution


# a failing hypothesis example also prints the blob that replays it with
# @reproduce_failure, so that a failure seen once is never lost
settings.register_profile("faultline", print_blob=True)
settings.load_profile("faultline")


def reference_dump(report):
    """A JSON report as the stdlib encoder writes it, the oracle of
    ``cli.dump_report`` (which adds a final newline)."""
    return json.dumps(report, sort_keys=True, indent=2)


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


def relabelled(s, order):
    """``s`` with its alphabet listed in ``order``, a permutation of its
    letter names: the same rules under other letter indices."""
    return Substitution(order, {letter.name: tuple(s.letters[x].name for x in img)
                                for letter, img in zip(s.letters, s.rules)})


def shuffled_twin(rng, s):
    """Substitution with every rule image permuted: same lengths, same
    abelianization, different order."""
    rules = {}
    for letter, img in zip(s.letters, s.rules):
        img = list(img)
        rng.shuffle(img)
        rules[letter.name] = tuple(img)
    return Substitution(s.alphabet, rules)


# The per-letter prefix scan that the walks of ``fault.OverlapGraph`` (overlap
# states) replaced, kept verbatim as the oracle of the word-free trace.

def scan_prefix_discrepancies(top, bottom, widths, tracked):
    """Tracked-letter count difference at each top-tile boundary, bottom side
    cut at the same exact position (tiles whose right edge is <= the cut).
    ``widths`` is a ``_ScanWidths``.

    The scan keeps the count difference delta (top minus bottom), its
    scaled-integer image t = sum(delta[i] * scaled[i]) and the filter's error
    margin sum(|delta[i]|), each updated in O(1) per letter.  A bottom tile is
    taken when the cut minus its right edge, sum(delta[i] * widths[i]) after
    the tentative step, is >= 0.  The filter decides that sign whenever t lies
    outside the margin; an all-zero delta (margin 0) is an exact tie; only the
    rest goes to the exact sign of sum(delta[i] * vectors[i])."""
    if top == bottom:
        return tuple([0] * len(top))
    field, vectors, scaled = widths.field, widths.vectors, widths.scaled
    delta = [0] * len(vectors)

    def exact_sign():
        return field.sign([sum(d * v[j] for d, v in zip(delta, vectors))
                           for j in range(field.degree)])

    t = margin = 0
    out = []
    ib, nb = 0, len(bottom)
    for letter in top:
        d = delta[letter]
        delta[letter] = d + 1
        t += scaled[letter]
        margin += 1 if d >= 0 else -1
        # advance the bottom pointer while its next right edge stays <= cut
        while ib < nb:
            b = bottom[ib]
            d = delta[b]
            tb = t - scaled[b]
            mb = margin + 1 if d <= 0 else margin - 1
            delta[b] = d - 1
            if tb < -mb or (tb <= mb and mb and exact_sign() < 0):
                delta[b] = d
                break
            t, margin = tb, mb
            ib += 1
        out.append(delta[tracked])
    return tuple(out)


def scan_discrepancy_rounds(top, bottom, seed, k, widths):
    """``fault.OverlapGraph.rounds`` on materialised rows: each round applies
    both substitutions to the previous words and scans every letter."""
    wt = wb = (seed,)
    for _ in range(k):
        wt, wb = top.apply(wt), bottom.apply(wb)
        yield tuple(sorted(set(scan_prefix_discrepancies(wt, wb, widths, 0))))


def reference_discrepancy_rounds(top, bottom, seed, k, widths,
                                  max_states=fault.DEFAULT_MAX_STATES):
    """``fault.OverlapGraph.rounds`` as the walk was before it kept each
    state's expansion: every state of every round runs the merge sweep and
    the sign filter again."""
    rules1, rules2, matrix = top.rules, bottom.rules, top.matrix()
    zero = (0,) * top.size
    tables = {}

    def table(t, b):
        # for children i of t and j of b: the vectors P1(t, i) - P2(b, j),
        # their filter images and their filter margins
        if (t, b) not in tables:
            p1, p2 = fault._prefix_counts(rules1[t], zero), fault._prefix_counts(rules2[b], zero)
            vec = [[tuple(map(sub, u, v)) for v in p2] for u in p1]
            image = [[sum(map(mul, x, widths.scaled)) for x in row] for row in vec]
            margin = [[sum(map(abs, x)) for x in row] for row in vec]
            tables[t, b] = (vec, image, margin)
        return tables[t, b]

    states, spent = {(seed, seed, zero)}, 0   # spent: states of rounds 1 .. rnd
    for rnd in range(1, k + 1):
        children, values = set(), set()
        for t, b, d in states:
            kids1, kids2 = rules1[t], rules2[b]
            if t == b and d == zero and kids1 == kids2:
                children.update((x, x, zero) for x in kids1)
                values.add(0)
                continue
            vec, image, margin = table(t, b)
            base = tuple(sum(map(mul, row, d)) for row in matrix)
            base_image = sum(map(mul, base, widths.scaled))
            base_margin = sum(map(abs, base))

            def sign(i, j):
                # sign of <w, base + vec[i][j]>; the sum of the two margins
                # bounds the vector's own, which is built only when needed
                s = base_image + image[i][j]
                u = base_margin + margin[i][j]
                if s > u:
                    return 1
                if s < -u:
                    return -1
                return widths.sign(tuple(map(add, base, vec[i][j])), s)

            # skip the children that end at or before the other parent starts
            i = j = 0
            while sign(0, j + 1) >= 0:
                j += 1
            while sign(i + 1, 0) <= 0:
                i += 1
            p, q = len(kids1), len(kids2)
            while i < p and j < q:
                s = sign(i + 1, j + 1)
                children.add((kids1[i], kids2[j], tuple(map(add, base, vec[i][j]))))
                if s <= 0:
                    values.add(base[0] + vec[i + 1][j + (s == 0)][0])
                    i += 1
                if s >= 0:
                    j += 1
        spent += len(children)
        if spent > max_states:
            raise fault.ResourceCapError(
                f"boundary trace exceeded the {max_states}-state budget at round {rnd}")
        states = children
        yield tuple(sorted(values))


def rng_for(name):
    return random.Random(f"faultline-{name}")


def iterate(s, word, k):
    """The k-fold image of a word under s, applied step by step."""
    word = s.word(word)
    for _ in range(k):
        word = s.apply(word)
    return word


# The exact arithmetic that left ``algebra`` when the program moved to
# integer coefficient vectors, kept where the tests and their oracles use it:
# interval sums and products, the field's element constructors (functions of
# the field here), and the ring, order and ``float`` of ``Number``, an
# ``AlgebraicNumber`` that has them.

class Interval(algebra.Interval):
    """Closed interval with exact rational endpoints and its arithmetic."""

    __slots__ = ()

    def __add__(self, other):
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __mul__(self, other):
        cands = (
            self.lo * other.lo, self.lo * other.hi,
            self.hi * other.lo, self.hi * other.hi,
        )
        return Interval(min(cands), max(cands))

    def sign(self):
        """1, -1, or None if the interval straddles (or touches) zero."""
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        return None

    @property
    def width(self):
        return self.hi - self.lo


def zero(field):
    return Number(field, [0] * field.degree)


def one(field):
    return from_rational(field, 1)


def from_rational(field, q):
    c = [Fraction(0)] * field.degree
    c[0] = Fraction(q)
    return Number(field, c)


def gen(field):
    """The distinguished root of ``field`` as a ``Number``."""
    return ring(field.gen())


def with_largest_real_root(poly):
    """(field, root) of the largest real root of an integer polynomial:
    ``NumberField.with_largest_of`` on its squarefree part, its isolated real
    roots and its factors, as ``perron_data`` calls it on a charpoly."""
    sf = zpoly.squarefree_part(ptrim(int(c) for c in poly))
    return NumberField.with_largest_of(sf, zpoly.isolate_real_roots(sf),
                                       zpoly.irreducible_factors(sf))


def compatible(field, other):
    if field is other:
        return True
    if field.poly != other.poly:
        return False
    a, b = field._iv, other._iv
    return a[0] <= b[1] and b[0] <= a[1]


def ring(x):
    """The AlgebraicNumber x as a ``Number``."""
    return Number(x.field, x.coeffs)


def numbers(lengths):
    """The lengths of a ``TileLengths`` as ``Number``s."""
    return tuple(Number(lengths.field, [Fraction(c, lengths.den) for c in v])
                 for v in lengths.vectors)


class Number(AlgebraicNumber):
    """Element of a NumberField with the field arithmetic."""

    __slots__ = ()

    # -- coercion -------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, AlgebraicNumber):
            if not compatible(self.field, other.field):
                raise ValidationError("algebraic numbers from different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return from_rational(self.field, other)
        return NotImplemented

    # -- ring structure --------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Number(self.field, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    def __neg__(self):
        return Number(self.field, [-a for a in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Number(self.field, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        # Horner over the coefficients of self: acc := acc * x + a_i * o
        poly, a, b = self.field.poly, self.coeffs, o.coeffs
        acc = tuple(a[-1] * y for y in b)
        for x in reversed(a[:-1]):
            acc = tuple(u + x * y for u, y in zip(times_root(acc, poly), b))
        return Number(self.field, acc)

    __rmul__ = __mul__

    def inverse(self):
        """The y with self * y = 1, by Gauss-Jordan elimination on the matrix
        of multiplication by self, whose column j is self * x^j (one
        ``times_root`` step from column j - 1); total because the defining
        poly is irreducible, so that matrix is invertible."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero in number field")
        poly, deg = self.field.poly, self.field.degree
        cols = [self.coeffs]
        for _ in range(deg - 1):
            cols.append(times_root(cols[-1], poly))
        # the augmented rows [M | e_0]
        rows = [[c[i] for c in cols] + [Fraction(i == 0)] for i in range(deg)]
        for k in range(deg):
            piv = next(i for i in range(k, deg) if rows[i][k])
            rows[k], rows[piv] = rows[piv], rows[k]
            inv = 1 / rows[k][k]
            pivot_row = rows[k] = [x * inv for x in rows[k]]
            for i in range(deg):
                f = rows[i][k]
                if i != k and f:
                    rows[i] = [x - f * y for x, y in zip(rows[i], pivot_row)]
        return Number(self.field, [r[-1] for r in rows])

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * ring(o).inverse()

    # -- exact predicates -------------------------------------------------------

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.field.poly, self.coeffs))

    # -- order structure ----------------------------------------------------------

    def compare(self, other):
        d = self - self._coerce(other)
        return d.sign()

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def __float__(self):
        iv = self.interval(Fraction(1, 2 ** 64))
        return float((iv.lo + iv.hi) / 2)


def poly_eval(a, x):
    """Horner's rule for the polynomial with ascending coefficients a at x,
    in exact ``Fraction`` arithmetic."""
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def poly_mul(a, b):
    """Product of two polynomials with ascending coefficients, schoolbook."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def peval_interval(a, iv):
    """Reference enclosure: Horner's rule in exact Fraction interval
    arithmetic, the body ``horner_interval`` replaced."""
    acc = Interval(0, 0)
    for c in reversed(a):
        acc = acc * iv + Interval(c, c)
    return acc


def bisect_once(field):
    """Halve the root interval of ``field`` on its integers, keeping the half
    that holds the root: the step that every refinement took before they
    searched their level, kept as the oracle they are checked against.  The
    midpoint of [lo/q, hi/q] is (lo + hi)/(2q), and the new triple stays in
    lowest terms without a gcd: it is (lo + hi)/2 over q when lo + hi is
    even, and over 2q otherwise."""
    if field.degree == 1:
        return
    lo, hi, q = field.root_ints
    mid = lo + hi
    if mid & 1:
        lo, hi, q = 2 * lo, 2 * hi, 2 * q
    else:
        mid >>= 1
    # q^deg * poly(mid / q) by integer Horner: p is irreducible, so never 0
    smid, _, _ = algebra.horner_interval(field.poly, mid, mid, q)
    assert smid != 0
    field._ziv = (mid, hi, q) if (smid > 0) == (field._sign_lo > 0) else (lo, mid, q)


def reference_interval(x, width):
    """Reference ``AlgebraicNumber.interval``: ``peval_interval`` at the
    field's root interval, bisected one step at a time until the enclosure
    is at most ``width`` wide."""
    if x.is_rational():
        return Interval(x.coeffs[0], x.coeffs[0])
    width = Fraction(width)
    iv = peval_interval(x.coeffs, x.field.interval)
    while iv.width > width:
        bisect_once(x.field)
        iv = peval_interval(x.coeffs, x.field.interval)
    return iv


# Reference bisection loops: the bodies that ``algebra.bisect`` and
# ``algebra.root_interval`` replaced, kept as oracles, and the halving helper
# with the ``root_interval`` built on it, which integer t-th roots replaced.

def bisect(lo, hi, width, below):
    """Halve [lo, hi] until it is at most ``width`` wide: each step keeps
    [mid, hi] when ``below(mid)`` holds and [lo, mid] otherwise; returns
    (lo, hi)."""
    while hi - lo > width:
        mid = (lo + hi) / 2
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def reference_root_interval(q, t, width):
    """Rational interval (lo, hi) around q**(1/t), q >= 0, at most ``width``
    wide; (0, 0) for q = 0: ``bisect`` on [0, max(1, q)]."""
    q = Fraction(q)
    if q == 0:
        return (Fraction(0), Fraction(0))
    return bisect(Fraction(0), max(Fraction(1), q), width, lambda mid: mid ** t <= q)


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
        smid = poly_eval(field.poly, mid)
        assert smid != 0
        if (smid > 0) == (field._sign_lo > 0):
            lo = mid
        else:
            hi = mid
    field._set_interval(lo, hi)
    return Interval(lo, hi)


class HalvingField(NumberField):
    """A ``NumberField`` that refines one halving at a time, as the field did
    before its refinements searched their level: the loops of ``enclose``,
    ``sign`` and ``refined`` as they were.  Each stops at the least level
    that passes its test, which is where the level search must stop too."""

    def refined(self, width):
        if self.degree > 1:
            width = Fraction(width)
            while True:
                lo, hi, q = self._ziv
                if (hi - lo) * width.denominator <= width.numerator * q:
                    break
                bisect_once(self)
        return self.interval

    def enclose(self, nums, den, width=None):
        if not any(nums[1:]):
            return nums[0], nums[0], den
        while True:
            a, b, e = algebra.horner_interval(nums, *self._ziv)
            e *= den
            if width is None or (b - a) * width.denominator <= width.numerator * e:
                return a, b, e
            bisect_once(self)

    def sign(self, nums):
        if not any(nums):
            return 0
        while True:
            a, b, _ = self.enclose(nums, 1)
            if a > 0:
                return 1
            if b < 0:
                return -1
            bisect_once(self)


def reference_mod_quotient(field, av, mv):
    """``algebra.mod_quotient`` as it was: bisect one step at a time while
    the corner floors of the enclosure of a / m leave more than two
    candidates, then the two exact signs."""
    while True:
        a0, a1, ae = field.enclose(av, 1)
        m0, m1, me = field.enclose(mv, 1)
        floors = [x * me // (y * ae) for x in (a0, a1) for y in (m0, m1)]
        k = min(floors)
        if max(floors) - k <= 1:
            break
        bisect_once(field)

    def rest(j):
        return field.sign([x - j * y for x, y in zip(av, mv)])

    while rest(k) < 0:
        k -= 1
    while rest(k + 1) >= 0:
        k += 1
    return k


def reference_charpoly(a):
    """``abelian.charpoly`` as it was: Faddeev-LeVerrier over ``Fraction``
    matrices, every coefficient checked to be an integer at the end."""
    n = len(a)
    frac = [[Fraction(x) for x in row] for row in a]
    coeffs = [Fraction(1)]  # descending from x^n
    mk = frac
    for k in range(1, n + 1):
        ck = -sum(mk[i][i] for i in range(n)) / k
        coeffs.append(ck)
        if k < n:
            shifted = [[x + ck if i == j else x for j, x in enumerate(row)]
                       for i, row in enumerate(mk)]
            mk = [[sum(x * y for x, y in zip(row, col)) for col in zip(*shifted)]
                  for row in frac]
    assert all(c.denominator == 1 for c in coeffs)
    out = [int(c) for c in reversed(coeffs)]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


# The integer linear algebra of ``abelian`` before its sparse, fraction-free
# kernels, kept as oracles: the dense column-dot ``matmul``, ``eye`` by one
# generator call per entry, ``rank_q`` by ``Fraction`` elimination, and the
# Smith form that scanned every entry for the pivot and ran the divisibility
# scan at unit pivots too.

def reference_eye(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def reference_matmul(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def reference_rank_q(a):
    """Rank over Q by fraction Gaussian elimination."""
    m, n = shape(a)
    rows = [[Fraction(x) for x in row] for row in a]
    rank = 0
    for col in range(n):
        piv = next((i for i in range(rank, m) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][col]
        for i in range(m):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / pv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
        if rank == m:
            break
    return rank


def reference_smith_normal_form(a):
    """u a v == d with u, v unimodular, d diagonal, d_i >= 0, d_i | d_{i+1}.
    The inverse of u is tracked alongside."""
    a = mat(a)
    m, n = shape(a)
    d = [list(row) for row in a]
    u, v, ui_t = ([list(row) for row in reference_eye(k)] for k in (m, n, m))

    def row_add(i, j, q):  # row_i += q * row_j
        d[i] = [x + q * y for x, y in zip(d[i], d[j])]
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]
        ui_t[j] = [x - q * y for x, y in zip(ui_t[j], ui_t[i])]

    def col_add(i, j, q):  # col_i += q * col_j
        for row in chain(d, v):
            row[i] += q * row[j]

    def row_swap(i, j):
        for rows in (d, u, ui_t):
            rows[i], rows[j] = rows[j], rows[i]

    def col_swap(i, j):
        for row in chain(d, v):
            row[i], row[j] = row[j], row[i]

    def row_neg(i):
        for rows in (d, u, ui_t):
            rows[i] = [-x for x in rows[i]]

    for t in range(min(m, n)):
        while True:
            best = None
            for i in range(t, m):
                for j in range(t, n):
                    x = d[i][j]
                    if x != 0 and (best is None or abs(x) < abs(d[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            if best[0] != t:
                row_swap(t, best[0])
            if best[1] != t:
                col_swap(t, best[1])
            dirty = False
            for i in range(t + 1, m):
                if d[i][t] != 0:
                    row_add(i, t, -(d[i][t] // d[t][t]))
                    dirty = dirty or d[i][t] != 0
            for j in range(t + 1, n):
                if d[t][j] != 0:
                    col_add(j, t, -(d[t][j] // d[t][t]))
                    dirty = dirty or d[t][j] != 0
            if dirty:
                continue
            offender = None
            for i in range(t + 1, m):
                if any(d[i][j] % d[t][t] != 0 for j in range(t + 1, n)):
                    offender = i
                    break
            if offender is None:
                break
            row_add(t, offender, 1)
        if t < min(m, n) and d[t][t] < 0:
            row_neg(t)

    snf = SmithForm(u=mat(u), d=mat(d), v=mat(v), u_inv=transpose(ui_t))
    assert reference_matmul(reference_matmul(snf.u, a), snf.v) == snf.d
    return snf


def reference_direct_limit(a):
    """``abelian.direct_limit`` as it was: the Smith form of a^n finds the
    eventual kernel whatever det(a) is."""
    a = abelian._as_mat(a)
    n, cols = shape(a)
    if n != cols:
        raise ValidationError("direct limit needs a square matrix")
    an = abelian.matpow(a, n)
    kern = abelian.kernel_basis(an)
    k = shape(kern)[1]
    if k == 0:
        a_pr, proj, sect = a, abelian.eye(n), abelian.eye(n)
    else:
        snf = abelian.smith_normal_form(kern)
        assert all(x == 1 for x in snf.diagonal), "saturated kernel lattice must be unimodular"
        proj = snf.u[k:]
        sect = tuple(row[k:] for row in snf.u_inv)
        a_pr = abelian.matmul(abelian.matmul(proj, a), sect)
    r = n - k
    cp = abelian.charpoly(a_pr)
    dp = abelian.det(a_pr)
    assert dp != 0, "reduced bonding map must be injective"
    assert r == abelian.rank_q(an)
    return abelian.DirectLimitGroup(n=n, a=a, r=r, a_prime=a_pr, charpoly_prime=cp,
                                    det_prime=dp, projection=proj, section=sect)


# Reference bodies of the field-arithmetic paths that ``NumberField.sign``,
# the integer ``mod_reduce`` and ``q(M^T) e_0`` in ``tile_lengths`` replaced,
# kept as oracles.

def reference_sign(x):
    """The loop ``AlgebraicNumber.sign`` ran before ``NumberField.sign``."""
    if x.is_zero():
        return 0
    nums, den = clear_denominators(x.coeffs)
    for _ in range(4096):
        a, b, _ = x.field.enclose(nums, den)
        if a > 0:
            return 1
        if b < 0:
            return -1
        bisect_once(x.field)
    raise AssertionError("sign refinement did not converge")


def reference_floor(x):
    """The retired ``AlgebraicNumber.floor``: halve the enclosure width
    until both ends have the same floor."""
    if x.is_rational():
        c = x.coeffs[0]
        return c.numerator // c.denominator
    iv = x.interval(Fraction(1, 4))
    while (iv.lo.numerator // iv.lo.denominator) != (iv.hi.numerator // iv.hi.denominator):
        iv = x.interval((iv.hi - iv.lo) / 2)
    return iv.lo.numerator // iv.lo.denominator


def reference_mod_reduce(a, m):
    """``mod_reduce`` on two algebraic numbers as it was: k is the floor of
    a / m, by a field inverse and ``reference_floor``, then checked by the
    two exact signs."""
    if reference_sign(m) <= 0:
        raise ValidationError("modulus must be positive")
    k = reference_floor(a / m)
    r = a - m * k
    assert reference_sign(r) >= 0 and reference_sign(r - m) < 0
    return r


def reference_border_forcing(s, cap=8):
    """``ap_complex.border_forcing`` as it was: every m-fold image is built
    and only its first and last letters are read."""
    right = left = None
    imgs = {a: (a,) for a in range(s.size)}
    for m in range(1, cap + 1):
        imgs = {a: s.apply(w) for a, w in imgs.items()}
        if right is None and len({w[0] for w in imgs.values()}) == 1:
            right = m
        if left is None and len({w[-1] for w in imgs.values()}) == 1:
            left = m
        if right is not None and left is not None:
            break
    return right, left


# The offset path that integer-vector offsets replaced: offsets held as
# AlgebraicNumbers, reduced by the integer ``mod_reduce`` body, ordered by
# ``sort_exact`` on certified enclosures, kept as the oracle of the offsets
# of ``boundary_trace``, of ``offset_statistics`` and of the ``fault`` rows,
# down to the field refinements they leave.

def reference_enclosure(x):
    """(lo, hi) around x at its field's current refinement; never refines."""
    a, b, e = x.field.enclose(*clear_denominators(x.coeffs))
    return (Fraction(a, e), Fraction(b, e))


def reference_sort_exact(values, enclosures=None):
    """Algebraic numbers sorted ascending, equal values in input order, as
    ``sorted`` would give; exact comparisons run only inside groups of
    overlapping enclosures."""
    if enclosures is None:
        enclosures = [reference_enclosure(x) for x in values]
    order = sorted(range(len(values)), key=lambda i: enclosures[i][0])

    def exact(i, j):
        return values[i].compare(values[j]) or (i > j) - (i < j)

    out = []
    group = []
    group_hi = None
    for i in order:
        lo, hi = enclosures[i]
        if group and lo > group_hi:
            group.sort(key=cmp_to_key(exact))
            out.extend(values[j] for j in group)
            group = []
        if not group or hi > group_hi:
            group_hi = hi
        group.append(i)
    group.sort(key=cmp_to_key(exact))
    out.extend(values[j] for j in group)
    return tuple(out)


def reference_int_mod_reduce(a, m):
    """``mod_reduce`` on two algebraic numbers in one body: k from the
    corner floors of enclosures of a / m, then the two exact signs."""
    if m.sign() <= 0:
        raise ValidationError("modulus must be positive")
    field = m.field
    (av, mv), _ = integer_vectors((a, m))
    while True:
        a0, a1, ae = field.enclose(av, 1)
        m0, m1, me = field.enclose(mv, 1)
        floors = [x * me // (y * ae) for x in (a0, a1) for y in (m0, m1)]
        k = min(floors)
        if max(floors) - k <= 1:
            break
        bisect_once(field)

    def rest(j):
        return field.sign([x - j * y for x, y in zip(av, mv)])

    while rest(k) < 0:
        k -= 1
    while rest(k + 1) >= 0:
        k += 1
    return a - m * k


def reference_offsets(top, bottom, seed, k, modulus=None):
    """(field, rounds): the sorted distinct offsets of each round of
    ``boundary_trace(OverlapGraph(top, bottom), seed, k, modulus)`` as
    AlgebraicNumbers, on a field of its own."""
    graph = fault.OverlapGraph(top, bottom)
    lengths = graph.widths
    widths = numbers(lengths)
    if modulus is None:
        modulus = max(widths)
    elif isinstance(modulus, int):
        modulus = widths[modulus]
    assert modulus.sign() > 0
    unit_shift = widths[0]
    reduced = {}
    rounds = []
    for ms in graph.rounds(seed, k):
        for m in ms:
            if m not in reduced:
                o = reference_int_mod_reduce(unit_shift * m, modulus)
                reduced[m] = (o, reference_enclosure(o))
        # a round lists each distinct offset once
        rounds.append(tuple(dict.fromkeys(reference_sort_exact(
            [reduced[m][0] for m in ms], [reduced[m][1] for m in ms]))))
    return lengths.field, rounds


def reference_offset_statistics(rounds):
    """(distinct_count, min_gap) of ``offset_statistics`` on those rounds."""
    distinct = reference_sort_exact(list(dict.fromkeys(o for r in rounds for o in r)))
    gaps = [b - a for a, b in zip(distinct, distinct[1:])]
    return len(distinct), reference_sort_exact(gaps)[0] if gaps else None


def number_json(x):
    """``cli.alg_json`` of an AlgebraicNumber, from its coefficients in
    lowest terms."""
    return alg_json(x.field, *clear_denominators(x.coeffs))


def reference_fault_row(offsets):
    """The printed ``min_gap`` and ``offsets`` of one ``fault`` report row,
    in the order ``cmd_fault`` builds them."""
    gap = None
    if len(offsets) > 1:
        gap = reference_sort_exact([b - a for a, b in zip(offsets, offsets[1:])])[0]
    gap = number_json(gap) if gap is not None else None
    return gap, [number_json(o) for o in offsets] if len(offsets) <= 12 else None


# The print views that the trace's steps and statistics built before reports
# printed offsets from their vectors: ``BoundaryStep.offsets``,
# ``BoundaryStep.min_gap()`` and ``OffsetStats.min_gap``, as functions.

def step_offsets(step):
    """The offsets of a ``BoundaryStep`` as AlgebraicNumbers."""
    return tuple(step.field.element(v, step.den) for v in step.offset_vectors)


def step_min_gap(step):
    """The least gap between consecutive offsets of a ``BoundaryStep`` as an
    AlgebraicNumber; None for fewer than two offsets."""
    gap = fault.min_gap_vector(step.field, step.den, step.offset_vectors)
    return None if gap is None else step.field.element(gap, step.den)


def stats_min_gap(stats):
    """``OffsetStats.min_gap_vector`` as an AlgebraicNumber, or None."""
    v = stats.min_gap_vector
    return None if v is None else stats.field.element(v, stats.den)


# The classifier that ``fault.classify_rounds`` replaced: it read the trace's
# reduced offsets for the Rigid test and took the spectral class of every
# boundary.  Kept verbatim (but for its name, and for returning the kind) as
# the oracle of ``classify_boundary``; test_fault lists where overlap-state
# closure may decide otherwise.

def reference_classify_trace(trace, spectral=None):
    """classify_boundary on an existing trace, which must start from seed
    letter 0; the cap is its number of rounds.  ``spectral`` is the
    SpectralKind of the top substitution's matrix when the caller already
    has it; otherwise it comes from the traced substitution, whose Perron
    data the trace already computed."""
    if trace.seed != 0:
        raise ValidationError("classification is defined on the trace from seed letter 0")
    cap = len(trace.steps)
    if cap < 4:
        raise ValidationError("classification needs at least 4 rounds")
    maxes = trace.max_abs_by_round()
    if spectral is None:
        spectral = trace.top_sub.spectral_class().kind

    if len({v for s in trace.steps for v in s.offset_vectors}) <= 1:
        kind = fault.BoundaryKind.RIGID
    else:
        c = cap // 4
        checkpoints = (maxes[c - 1], maxes[2 * c - 1], maxes[4 * c - 1])
        if (spectral is SpectralKind.NON_PISOT_EXPANDING
                and checkpoints[0] < checkpoints[1] < checkpoints[2]):
            kind = fault.BoundaryKind.REGULAR_FAULT
        else:
            kind = fault.BoundaryKind.UNDETERMINED
    return kind


# The checkpoint rule that the escape test of ``fault.classify_boundary``
# replaced, moved here verbatim but for returning the kind: the class of a
# walk that does not close, read off the max |discrepancy| of its rounds and
# the spectral class.  It reads letter 0, so its verdict can depend on the
# order of an alphabet, and it says RegularFault for some boundaries that
# close (test_fault lists both).

def classify_rounds(rounds, spectral):
    """The class of a boundary whose walk does not close, from ``rounds``,
    the sorted distinct discrepancies of each round of that walk (at least
    4 rounds); ``spectral`` is a callable that returns the SpectralKind of
    the top matrix.

    RegularFault when the top matrix is NonPisotExpanding and the max
    |discrepancy| strictly increases across the last three doubling
    checkpoints; otherwise Undetermined (deliberately: for more than two
    letters the dichotomy is open)."""
    maxes = [max(abs(ms[0]), abs(ms[-1])) if ms else 0 for ms in rounds]
    cap = len(maxes)
    if cap < 4:
        raise ValidationError("classification needs at least 4 rounds")
    kind = spectral()
    c = cap // 4
    checkpoints = (maxes[c - 1], maxes[2 * c - 1], maxes[4 * c - 1])
    if (kind is SpectralKind.NON_PISOT_EXPANDING
            and checkpoints[0] < checkpoints[1] < checkpoints[2]):
        return fault.BoundaryKind.REGULAR_FAULT
    return fault.BoundaryKind.UNDETERMINED


# ``fault.classify_boundary`` before a walk stopped at its first round that
# escapes, kept but for its name as the oracle of that early stop: every walk
# that does not close runs to the cap or to the budget trip, and only its
# last walked round is tested for an escape (round ``cap``, replayed, where a
# trace walked it further).  It reads the graph through ``_walk``, ``_step``,
# ``expanded`` and ``conjugates``, so give it a graph of its own.

def reference_classify_boundary(graph, cap=fault.DEFAULT_ROUNDS):
    """The ``BoundaryKind`` of an ``OverlapGraph``'s boundary, by walks
    stopped only at their closing round, after ``cap`` rounds or where the
    state budget trips."""
    if cap < 4:
        raise ValidationError("classification needs cap >= 4")

    def closes(seed):
        walk = graph._walk(seed)
        while walk.closed is None and len(walk.rounds) < cap:
            graph._step(walk)
        return walk.closed is not None and walk.closed <= cap

    def escapes(seed):
        walk = graph._walk(seed)
        states = walk.states
        if len(walk.rounds) > cap:
            # replay round cap through states expanded already
            states = {(seed, seed, graph._zero)}
            for _ in range(cap):
                states = {c for s in states for c in graph.expanded[s][0]}
        ds = {d for _, _, d in states}
        return any(c.escapes(d) for c in graph.conjugates for d in ds)

    open_walks = []     # per walk that does not close: its budget trip or None
    for seed in range(graph.top.size):
        try:
            if closes(seed):
                continue
            open_walks.append(None)
        except ResourceCapError as exc:
            open_walks.append(exc)
        if escapes(seed):
            return fault.BoundaryKind.REGULAR_FAULT
    if not open_walks:
        return fault.BoundaryKind.RIGID
    if None not in open_walks:
        raise open_walks[0]
    return fault.BoundaryKind.UNDETERMINED


def reference_tile_lengths(s):
    """``tile_lengths`` by Gauss-Jordan elimination of (M^T - lambda I) over
    Q(lambda), with the same normalisation."""
    pd = s.perron()
    field, lam, n = pd.root.field, ring(pd.root), s.size
    m = s.matrix()
    rows = [[from_rational(field, m[j][i]) for j in range(n)] for i in range(n)]
    for i in range(n):
        rows[i][i] = rows[i][i] - lam
    pivots = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, n) if not rows[i][col].is_zero()), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][col]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(n):
            if i != r and not rows[i][col].is_zero():
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    free = [c for c in range(n) if c not in pivots]
    assert len(free) == 1
    sol = [zero(field)] * n
    sol[free[0]] = one(field)
    for i, col in enumerate(pivots):
        sol[col] = -rows[i][free[0]]
    unit = [x / sol[0] for x in sol]
    if field.degree == 1:
        fracs = [x.as_fraction() for x in unit]
        denom = 1
        for f in fracs:
            denom = denom * f.denominator // gcd(denom, f.denominator)
        ints = [int(f * denom) for f in fracs]
        g = 0
        for v in ints:
            g = gcd(g, abs(v))
        return tuple(from_rational(field, Fraction(v, g)) for v in ints)
    scaled = [x * lam for x in unit]
    if all(c.denominator == 1 for x in scaled for c in x.coeffs):
        return tuple(scaled)
    return tuple(unit)


# The sympy wrappers that ``algebra.isolate_real_roots``,
# ``algebra.irreducible_factors`` and ``algebra.isolate_complex_roots`` were
# before the pure-int ports in ``faultline.zpoly``, kept as oracles.  sympy is
# imported only here.

def sympy_isolate_real_roots(a, eps=None):
    """sympy's ``dup_isolate_real_roots_sqf`` on an ascending integer
    polynomial, as Fraction pairs."""
    from sympy.polys.domains import ZZ
    from sympy.polys.rootisolation import dup_isolate_real_roots_sqf

    dup = [ZZ(int(c)) for c in reversed(a)]
    while dup and not dup[0]:
        dup.pop(0)
    if len(dup) <= 1:
        return []
    kw = {"eps": eps} if eps is not None else {}
    return [(Fraction(int(lo.numerator), int(lo.denominator)),
             Fraction(int(hi.numerator), int(hi.denominator)))
            for lo, hi in dup_isolate_real_roots_sqf(dup, ZZ, **kw)]


def sympy_irreducible_factors(a):
    """``Poly.factor_list`` over ZZ: the factors with positive leading
    coefficients and their multiplicities, ordered by (degree, coefficients)."""
    from sympy import Poly, Symbol

    coeffs = [int(c) for c in a]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    _, factors = Poly(list(reversed(coeffs)) or [0], Symbol("x"), domain="ZZ").factor_list()
    out = []
    for f, mult in factors:
        c = tuple(int(x) for x in reversed(f.all_coeffs()))
        if c[-1] < 0:
            c = tuple(-x for x in c)
        out.append((c, int(mult)))
    out.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return out


def sympy_is_squarefree(a):
    from sympy.polys.domains import ZZ
    from sympy.polys.sqfreetools import dup_sqf_p

    return dup_sqf_p([ZZ(int(c)) for c in reversed(a)], ZZ)


def sympy_sqf_part(a):
    """sympy's squarefree part of a nonzero ascending integer polynomial:
    primitive, with a positive leading coefficient."""
    from sympy import Poly, Symbol

    f = Poly(list(reversed([int(c) for c in a])), Symbol("x"), domain="ZZ").sqf_part()
    return [int(c) for c in reversed(f.all_coeffs())]


def sympy_isolate_complex_roots(a, eps):
    """Isolating rectangles for the complex (non-real) roots of a squarefree
    integer polynomial: list of ((re_lo, im_lo), (re_hi, im_hi)).  Only
    irreducible factors of degree >= 3 with non-real roots reach this, so
    sympy's Collins-Krandick isolation is imported here, not at start-up."""
    from sympy.polys.domains import ZZ
    from sympy.polys.rootisolation import dup_isolate_complex_roots_sqf

    dup = [ZZ(int(c)) for c in reversed(ptrim(a))]
    if len(dup) <= 2:
        return []
    out = []
    for (a0, b0), (a1, b1) in dup_isolate_complex_roots_sqf(dup, ZZ, eps=eps):
        out.append(
            (
                (Fraction(int(a0.numerator), int(a0.denominator)),
                 Fraction(int(b0.numerator), int(b0.denominator))),
                (Fraction(int(a1.numerator), int(a1.denominator)),
                 Fraction(int(b1.numerator), int(b1.denominator))),
            )
        )
    return out


# Complex-root isolation by Collins-Krandick bisection alone, as
# ``zpoly.isolate_complex_roots`` ran it before a rectangle with one root
# went straight to its leaf: kept verbatim (but for the names) as the oracle
# of the located leaves, ``refined`` included.

def reference_descend(g, rects, small):
    """Bisect until each rectangle that holds a root holds one and is
    smaller than `small` both ways: the leaves."""
    leaves = []
    while rects:
        for child in zpoly._halves(g, rects.pop()):
            if child[0] == 1 and zpoly._small(child, small):
                leaves.append(child)
            elif child[0] >= 1:
                rects.append(child)
    return leaves


class ReferenceRootRectangles(list):
    """``RootRectangles`` with ``refined`` carried on by bisection alone."""

    def __init__(self, g=(), scale=1, leaves=()):
        self._g, self._scale, self._leaves = g, scale, list(leaves)
        super().__init__(sorted(((u * scale, v * scale), (s * scale, t * scale))
                                for _, u, v, s, t, _ in self._leaves))

    def refined(self, eps):
        small = Fraction(eps) / self._scale
        done = [r for r in self._leaves if zpoly._small(r, small)]
        todo = [r for r in self._leaves if not zpoly._small(r, small)]
        return ReferenceRootRectangles(self._g, self._scale,
                                       done + reference_descend(self._g, todo, small))


def reference_isolate_complex_roots(f, eps):
    f = [int(c) for c in f]
    while f and not f[-1]:
        f.pop()
    if len(f) <= 2:
        return ReferenceRootRectangles()
    n = len(f) - 1
    bound = Fraction(2 * max(abs(c) for c in f), abs(f[-1]))
    p, q = bound.numerator, bound.denominator
    g = zpoly._content_free([c * p ** k * q ** (n - k) for k, c in enumerate(f)])
    one, zero = Fraction(1), Fraction(0)
    top = (-one, zero, one, one, (
        zpoly._Edge(zpoly._Line(g, -one, zero, 2 * one, False), zero, one, False),
        zpoly._Edge(zpoly._Line(g, one, zero, one, True), zero, one, False),
        zpoly._Edge(zpoly._Line(g, -one, one, 2 * one, False), zero, one, True),
        zpoly._Edge(zpoly._Line(g, -one, zero, one, True), zero, one, True)))
    count = zpoly._count(top[4])
    if count < 1:
        return ReferenceRootRectangles()
    return ReferenceRootRectangles(g, bound, reference_descend(g, [(count,) + top],
                                                               Fraction(eps) / bound))


# The spectral classifier before exact circle counts, kept verbatim up to
# its return value as the oracle of ``substitution.spectral_classify``: every
# modulus enclosure refined to 2^-precision_bits, and a root whose
# enclosure still holds 1 left undecided.  Returns (kind, modulus enclosure),
# kind None where the old classifier said Undetermined.

class _Modulus:
    """Enclosure of |root| with an optional exactness certificate."""

    def __init__(self, lo, hi, exact=None):
        self.lo, self.hi, self.exact = Fraction(lo), Fraction(hi), exact

    def vs_one(self):
        """1, -1, 0 for certified >, <, = 1; None when undecided."""
        if self.exact is not None:
            return (self.exact > 1) - (self.exact < 1)
        if self.lo > 1:
            return 1
        if self.hi < 1:
            return -1
        return None


def _sign_minus(x, q):
    """Exact sign of x - q for an AlgebraicNumber x and a rational q."""
    return x.field.sign(clear_denominators((x.coeffs[0] - q,) + x.coeffs[1:])[0])


def reference_spectral_classify(m, precision_bits=64):
    from faultline.substitution import SpectralKind, _rect_modulus_sq, perron_data

    pd = perron_data(m)
    width = Fraction(1, 2 ** precision_bits)
    moduli = []
    lam_seen = False
    for fac, _ in algebra.irreducible_factors(pd.charpoly):
        deg = algebra.pdeg(fac)
        real = algebra.isolate_real_roots(fac, eps=Fraction(1, 2 ** 24))
        for lo, hi in real:
            if (not lam_seen and fac == pd.root.field.poly
                    and _sign_minus(pd.root, lo) >= 0 and _sign_minus(pd.root, hi) <= 0):
                lam_seen = True
                continue
            if lo == hi:
                moduli.append(_Modulus(abs(lo), abs(hi), exact=abs(lo)))
            else:
                a = NumberField(fac, (lo, hi)).gen().interval(width).abs()
                moduli.append(_Modulus(a.lo, a.hi))
        if deg - len(real) == 0:
            continue
        if deg == 2:
            msq = Fraction(abs(fac[0]))
            lo, hi = algebra.root_interval(msq, 2, width)
            moduli.append(_Modulus(lo, hi, exact=Fraction(1) if msq == 1 else None))
            continue
        eps = Fraction(1, 2 ** 16)
        rects = algebra.isolate_complex_roots(fac, eps)
        while eps > width and any(lo_sq <= 1 <= hi_sq
                                  for lo_sq, hi_sq in map(_rect_modulus_sq, rects)):
            eps = max(eps * eps, width)
            rects = rects.refined(eps)
        for rect in rects:
            lo_sq, hi_sq = _rect_modulus_sq(rect)
            lo, _ = algebra.root_interval(lo_sq, 2, width)
            _, hi = algebra.root_interval(hi_sq, 2, width)
            moduli.append(_Modulus(lo, hi))
    assert lam_seen, "Perron root must appear among the isolated real roots"

    if moduli:
        second = (max(mm.lo for mm in moduli), max(mm.hi for mm in moduli))
    else:
        second = (Fraction(0), Fraction(0))
    votes = [mm.vs_one() for mm in moduli]
    lam_is_one = pd.root.is_rational() and pd.root.as_fraction() == 1

    if any(v == 1 for v in votes):
        kind = SpectralKind.NON_PISOT_EXPANDING
    elif any(v is None for v in votes):
        kind = None
    elif lam_is_one and all(v == 0 for v in votes):
        kind = SpectralKind.UNIMODULAR
    elif any(v == 0 for v in votes):
        kind = SpectralKind.SALEM
    else:
        kind = SpectralKind.PISOT
    return kind, second


# ---------------------------------------------------------------------------
# the enclosure renderer: the body ``render.emit_svg`` replaced, kept as the
# oracle that the bundled and seeded SVG bytes did not change
# ---------------------------------------------------------------------------

def enclosure_emit_svg(patch, colors=None, overlay=(), scale=24):
    """``emit_svg`` as it printed each x and width: the midpoint of an
    enclosure at most 1e-12 wide, and the viewBox width as the upper end of
    the widest right edge's, each taken at the field's current root
    interval.  So its bytes depend on how far the field was refined before,
    and on the order of its requests: every right edge first, then x and
    width tile by tile."""
    from faultline.render import _PALETTE, _fmt

    lattice = patch.lattice
    field, den_x = lattice.field, lattice.den_x
    widths, heights = lattice.widths, lattice.heights
    fine = Fraction(1, 10 ** 12)
    rights, tile_ids, top = {}, set(), 0
    for tile, xn, yn in patch.tiles:
        rights[xn + widths[tile[1]]] = None
        tile_ids.add(tile)
        top = max(top, yn + heights[tile[0]])

    def enclosure(packed):
        # emit_svg kept these while the root interval stayed put, which gives
        # the enclosures that taking each one afresh gives
        return field.enclose(lattice.vector(packed), den_x, fine)

    def midpoint(packed):
        a, b, e = enclosure(packed)
        return _fmt((a + b) * scale, 2 * e)

    right_num, right_den = 0, 1
    for packed in rights:
        _, b, e = enclosure(packed)
        if b * right_den > right_num * e:
            right_num, right_den = b, e
    w = _fmt(right_num * scale, right_den)
    h = _fmt(top * scale, 1)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w} {h}" '
        f'width="{w}" height="{h}">',
    ]
    color_of = {}
    for i, tid in enumerate(sorted(tile_ids)):
        color_of[tid] = (colors or {}).get(tid) or _PALETTE[i % len(_PALETTE)]
    for tile, xn, yn in patch.tiles:
        x = midpoint(xn)
        tw = midpoint(widths[tile[1]])
        y = _fmt((top - yn - heights[tile[0]]) * scale, 1)
        lines.append(f'<rect x="{x}" y="{y}" width="{tw}" '
                     f'height="{_fmt(heights[tile[0]] * scale, 1)}" '
                     f'fill="{color_of[tile]}" stroke="#202020" stroke-width="0.7"/>')
    for cut in overlay:
        q = (top - Fraction(cut)) * scale
        y = _fmt(q.numerator, q.denominator)
        lines.append(
            f'<line x1="0" y1="{y}" x2="{w}" y2="{y}" '
            f'stroke="#d02020" stroke-width="1.6" stroke-dasharray="6,3"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the per-tile emitter: the loop ``render.emit_svg`` ran over every placed
# tile before it walked the last expansion level, kept as the oracle that
# fusing that level into emission moved no byte
# ---------------------------------------------------------------------------

def tile_emit_svg(patch, colors=None, overlay=(), scale=24):
    """``emit_svg`` as it read ``patch.tiles``: one rect per ``PlacedTile``,
    x and flipped y looked up per tile by packed x and top edge."""
    from faultline.render import _PALETTE, _fmt, _rounder

    scale = Fraction(scale)
    lattice, top = patch.lattice, patch.top
    widths, heights = lattice.widths, lattice.heights
    text = _rounder(lattice, scale)
    num, den = scale.numerator, scale.denominator
    w = text(patch.right)
    h = _fmt(top * num, den)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w} {h}" '
        f'width="{w}" height="{h}">',
    ]
    colors = colors or {}
    tails = {}
    for i, tile in enumerate(patch.tile_ids):
        color = colors.get(tile) or _PALETTE[i % len(_PALETTE)]
        tails[tile] = (f'width="{text(widths[tile[1]])}" '
                       f'height="{_fmt(heights[tile[0]] * num, den)}" '
                       f'fill="{color}" stroke="#202020" stroke-width="0.7"/>')
    xs, flipped = {}, {}
    for tile, xn, yn in patch.tiles:
        x = xs.get(xn)
        if x is None:
            x = xs[xn] = text(xn)
        edge = yn + heights[tile[0]]
        y = flipped.get(edge)
        if y is None:
            y = flipped[edge] = _fmt((top - edge) * num, den)
        lines.append(f'<rect x="{x}" y="{y}" {tails[tile]}')
    for cut in overlay:
        q = (top - Fraction(cut)) * scale
        y = _fmt(q.numerator, q.denominator)
        lines.append(
            f'<line x1="0" y1="{y}" x2="{w}" y2="{y}" '
            f'stroke="#d02020" stroke-width="1.6" stroke-dasharray="6,3"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
