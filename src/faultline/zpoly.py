"""Integer polynomials: root isolation, factorization, squarefree parts and
signs at rationals over Z.

``isolate_real_roots``, ``isolate_complex_roots`` and
``irreducible_factors``, which ``algebra`` exports, in pure-int code; nothing
here imports sympy.  It is the one home of integer-polynomial arithmetic:
``squarefree_part`` (over the primitive gcd) and ``sign_at`` (the exact
sign at a rational) serve ``algebra`` too, and integer roots are read off the
linear factors that ``irreducible_factors`` returns.

* Real roots are isolated by the Vincent-Akritas-Strzebonski continued
  fraction method (Akritas and Strzebonski, "A comparative study of two real
  root isolation methods", Nonlinear Analysis: Modelling and Control 10(4),
  2005) with the LMQ bound on positive roots (Akritas, J. Univ. Comp. Sci.
  15(3), 2009).  It follows sympy's ``dup_isolate_real_roots_sqf`` step for
  step, so the rational intervals are the same as sympy's, not merely valid
  ones: ``NumberField`` bisects from them, and they fix every printed
  enclosure.  This part works on dense coefficient lists in *descending*
  order, as the method is written there.
* Factorization over Z is unique, so any correct algorithm gives the same
  factors: quadratics by their discriminant, and higher degrees by
  Zassenhaus (distinct- and equal-degree factorization mod a small prime,
  Hensel lifting, recombination under the Mignotte bound).
  This part works on ascending coefficient lists, like ``algebra``.
* Non-real roots are isolated by Collins-Krandick bisection, which gives
  sympy's ``dup_isolate_complex_roots_sqf`` rectangles; see the section at
  the end.  Bisection only separates the roots: a rectangle that holds one
  goes straight to the leaf bisection would reach, located by integer
  complex Newton and certified by a root count.  ``circle_roots`` counts
  the roots on |z| = 1 of a palindromic polynomial exactly, as real roots of
  its trace polynomial.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt


# ---------------------------------------------------------------------------
# real-root isolation (descending coefficient lists)
# ---------------------------------------------------------------------------

def _log2(a):
    """floor(log2(a)) as sympy's ``ZZ.log`` computes it, through a float.

    The LMQ bound, and so every isolating interval, depends on this value,
    and for large a it can differ from a.bit_length() - 1."""
    return int(math.log(a, 2))


def _lower_bound(f):
    """int() of the LMQ lower bound on the positive roots of f: 1 / the
    upper bound of the reversed polynomial, 0 when there is none."""
    f = _reverse(f)
    if f[0] < 0:
        f = [-c for c in f]
    f = f[::-1]
    n = len(f)
    t = [1] * n
    best = None
    for i in range(n):
        if f[i] >= 0:
            continue
        a = _log2(-f[i])
        ql = [((t[j] + a - _log2(f[j])) // (j - i), j)
              for j in range(i + 1, n) if f[j] > 0]
        if not ql:
            continue
        q, j = min(ql)
        t[j] += 1
        best = q if best is None or q > best else best
    # the upper bound is 2**(best + 1); the lower bound its inverse
    if best is None or best + 1 > 0:
        return 0
    return 1 << -(best + 1)


def _reverse(f):
    """x**n * f(1/x), leading zeros stripped."""
    f = f[::-1]
    i = 0
    while i < len(f) and not f[i]:
        i += 1
    return f[i:]


def _shift(f, a):
    """Taylor shift f(x + a)."""
    f = list(f)
    for i in range(len(f) - 1, 0, -1):
        for j in range(i):
            f[j + 1] += a * f[j]
    return f


def _mirror(f):
    """f(-x), without normalizing the sign."""
    f = list(f)
    for i in range(len(f) - 2, -1, -2):
        f[i] = -f[i]
    return f


def _sign_variations(f):
    prev = k = 0
    for c in f:
        if c * prev < 0:
            k += 1
        if c:
            prev = c
    return k


def _step_refine(f, m):
    """One continued-fraction step on the positive root of f that the Moebius
    transform m = (a, b, c, d) maps into (0, oo)."""
    a, b, c, d = m
    if a == b and c == d:
        return f, m
    big = _lower_bound(f)
    if big >= 1:
        f = _shift(f, big)
        b, d = big * a + b, big * c + d
        if not f[-1]:
            return f, (b, b, d, d)
    f, g = _shift(f, 1), f
    if not f[-1]:
        return f, (a + b, a + b, c + d, c + d)
    if _sign_variations(f) == 1:
        return f, (a, a + b, c, c + d)
    f = _shift(_reverse(g), 1)
    if not f[-1]:
        f = f[:-1]
    return f, (b, a + b, d, c + d)


def _refine(f, m, eps):
    """Refine until the interval is finite and, with eps, narrower than eps."""
    while not m[2]:
        f, m = _step_refine(f, m)
    if eps is not None:
        num, den = eps.numerator, eps.denominator
        while True:
            a, b, c, d = m
            if abs(a * d - b * c) * den < num * c * d:
                break
            f, m = _step_refine(f, m)
    return f, m


def _positive_roots(f, eps):
    """Moebius transforms isolating the positive roots of f."""
    m = (1, 0, 0, 1)
    k = _sign_variations(f)
    if k == 0:
        return []
    if k == 1:
        return [_refine(f, m, eps)[1]]
    roots, stack = [], [(m, f, k)]
    while stack:
        (a, b, c, d), f, k = stack.pop()
        big = _lower_bound(f)
        if big >= 1:
            f = _shift(f, big)
            b, d = big * a + b, big * c + d
            if not f[-1]:
                roots.append((b, b, d, d))
                f = f[:-1]
            k = _sign_variations(f)
            if k == 0:
                continue
            if k == 1:
                roots.append(_refine(f, (a, b, c, d), eps)[1])
                continue
        f1 = _shift(f, 1)
        m1, r = (a, a + b, c, c + d), 0
        if not f1[-1]:
            roots.append((a + b, a + b, c + d, c + d))
            f1, r = f1[:-1], 1
        k1 = _sign_variations(f1)
        k2 = k - k1 - r
        m2 = (b, a + b, d, c + d)
        f2 = None
        if k2 > 1:
            f2 = _shift(_reverse(f), 1)
            if not f2[-1]:
                f2 = f2[:-1]
            k2 = _sign_variations(f2)
        if k1 < k2:
            m1, m2, f1, f2, k1, k2 = m2, m1, f2, f1, k2, k1
        for mi, fi, ki in ((m1, f1, k1), (m2, f2, k2)):
            if not ki:
                break
            if fi is None:
                fi = _shift(_reverse(f), 1)
                if not fi[-1]:
                    fi = fi[:-1]
            if ki == 1:
                roots.append(_refine(fi, mi, eps)[1])
            else:
                stack.append((mi, fi, ki))
    return roots


def _interval(m):
    a, b, c, d = m
    s, t = Fraction(a, c), Fraction(b, d)
    return (s, t) if s <= t else (t, s)


def isolate_real_roots(f, eps=None):
    """Isolating rational intervals (lo, hi) for the real roots of a
    squarefree integer polynomial f (ascending coefficients), sorted
    ascending: the intervals of sympy's ``dup_isolate_real_roots_sqf``.
    Exact rational roots that the method meets come back as degenerate
    (r, r) intervals.  With eps, every nondegenerate interval is narrower
    than eps."""
    f = [int(c) for c in reversed(f)]
    while f and not f[0]:
        f.pop(0)
    if len(f) <= 1:
        return []
    if eps is not None:
        eps = Fraction(eps)
    roots = []
    if not f[-1]:
        while not f[-1]:
            f.pop()
        roots.append((Fraction(0), Fraction(0)))
    for m in _positive_roots(_mirror(f), eps):
        lo, hi = _interval(m)
        roots.append((-hi, -lo))
    roots.extend(_interval(m) for m in _positive_roots(f, eps))
    return sorted(roots)


# ---------------------------------------------------------------------------
# integer polynomials (ascending coefficient lists, trimmed)
# ---------------------------------------------------------------------------

def _primitive(f):
    """f divided by its content, with a positive leading coefficient."""
    g = 0
    for c in f:
        g = gcd(g, c)
    if f[-1] < 0:
        g = -g
    return [c // g for c in f]


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _divides(f, g):
    """f / g if g divides f exactly over Z, else None."""
    f = list(f)
    lead, dg = g[-1], len(g) - 1
    q = [0] * (len(f) - dg)
    for k in range(len(f) - 1, dg - 1, -1):
        c, r = divmod(f[k], lead)
        if r:
            return None
        q[k - dg] = c
        if c:
            for i in range(dg):
                f[k - dg + i] -= c * g[i]
    return q if not any(f[:dg]) else None


def _prem(a, b):
    """Pseudo-remainder of a by b, trimmed."""
    a, lead = list(a), b[-1]
    while len(a) >= len(b):
        c, shift = a[-1], len(a) - len(b)
        a = [x * lead for x in a]
        for i, y in enumerate(b):
            a[shift + i] -= c * y
        a.pop()
        while a and not a[-1]:
            a.pop()
    return a


def _gcd(a, b):
    """Primitive gcd over Z by the primitive remainder sequence."""
    while b:
        a, b = b, _prem(a, b)
        if b:
            b = _primitive(b)
    return _primitive(a)


def _deriv(f):
    return [i * f[i] for i in range(1, len(f))]


def sign_at(f, x):
    """Sign of f(x) for an integer polynomial f and a Fraction x."""
    num, den = x.numerator, x.denominator
    acc, scale = 0, 1
    for c in reversed(f):
        acc = acc * num + c * scale
        scale *= den
    return (acc > 0) - (acc < 0)


def squarefree_part(f):
    """f / gcd(f, f') for a trimmed nonzero integer polynomial f: the product
    of its distinct irreducible factors, times the sign and content of f."""
    g = _gcd(f, _deriv(f))
    return f if len(g) == 1 else _divides(f, g)


# ---------------------------------------------------------------------------
# factorization over Z
# ---------------------------------------------------------------------------

def irreducible_factors(f):
    """Distinct irreducible factors over Q of an integer polynomial
    (ascending coefficients), as primitive integer tuples with positive
    leading coefficients, with multiplicities, ordered by (degree,
    coefficients); a constant or zero gives []."""
    f = [int(c) for c in f]
    while f and not f[-1]:
        f.pop()
    if len(f) <= 1:
        return []
    f = _primitive(f)
    out = []
    k = 0
    while not f[k]:
        k += 1
    if k:
        out.append(((0, 1), k))
        f = f[k:]
    if len(f) > 1:
        for h in _factor_squarefree(squarefree_part(f)):
            m = 0
            while (q := _divides(f, h)) is not None:
                f, m = q, m + 1
            out.append((tuple(h), m))
    out.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return out


def _linear(num, den):
    """den*x - num as a primitive factor of a root num/den."""
    r = Fraction(num, den)
    return [-r.numerator, r.denominator]


def _factor_squarefree(f):
    """Irreducible factors of a squarefree primitive f with f(0) != 0."""
    if len(f) <= 2:
        return [f]
    if len(f) == 3:
        # a quadratic splits iff its discriminant is a square
        c, b, a = f
        disc = b * b - 4 * a * c
        s = isqrt(disc) if disc >= 0 else -1
        if s * s != disc:
            return [f]
        return [_linear(-b - s, 2 * a), _linear(-b + s, 2 * a)]
    return _zassenhaus(f)


def _primes():
    p = 3
    while True:
        if all(p % d for d in range(3, isqrt(p) + 1, 2)):
            yield p
        p += 2


def _zassenhaus(f):
    """Irreducible factors of a squarefree primitive f of degree >= 3."""
    n, lead = len(f) - 1, f[-1]
    # the first good primes (p does not divide lead, f mod p squarefree);
    # keep the one with fewest modular factors
    best, tried = None, 0
    for p in _primes():
        if lead % p == 0:
            continue
        fp = _gf_monic(_gf(f, p), p)
        if len(_gf_gcd(fp, _gf(_deriv(fp), p), p)) != 1:
            continue
        ddf = _gf_ddf(fp, p)
        r = sum((len(g) - 1) // d for g, d in ddf)
        if r == 1:
            return [f]
        if best is None or r < best[0]:
            best = (r, p, ddf)
        tried += 1
        if tried == 3:
            break
    _, p, ddf = best
    rng = random.Random(p)
    modular = [h for g, d in ddf for h in _gf_edf(g, d, p, rng)]
    # Mignotte: every coefficient of lead * (a factor / its leading
    # coefficient) is below bound in absolute value
    bound = abs(lead) * 2 ** n * (isqrt(sum(c * c for c in f)) + 1)
    pk = p
    while pk <= 2 * bound:
        pk *= pk
    modular = _hensel_lift(f, modular, p, pk)
    return _recombine(f, modular, pk)


def _symmetric(f, m):
    """Coefficients reduced into (-m/2, m/2], trimmed."""
    half = m // 2
    out = [c % m for c in f]
    out = [c - m if c > half else c for c in out]
    while out and not out[-1]:
        out.pop()
    return out


def _recombine(f, modular, pk):
    """True factors from the lifted monic modular factors of f mod pk:
    the primitive parts of products of subsets of increasing size, times
    the leading coefficient, that divide f exactly."""
    factors = []
    rest = list(range(len(modular)))
    s = 1
    while 2 * s <= len(rest):
        for subset in combinations(rest, s):
            g = [f[-1]]
            for i in subset:
                g = _symmetric(_mul(g, modular[i]), pk)
            g = _primitive(g)
            if not g[0] or f[0] % g[0]:
                continue
            q = _divides(f, g)
            if q is None:
                continue
            # the smallest subsets that give a true factor give the
            # irreducible ones: smaller factors were taken out before
            factors.append(g)
            f = q
            rest = [i for i in rest if i not in subset]
            break
        else:
            s += 1
    return factors + [f]


def _hensel_lift(f, modular, p, pk):
    """Lift the monic factorization f = lead * prod(modular) mod p to a
    monic factorization mod pk (pk a power of p reached by squaring)."""
    if len(modular) == 1:
        inv = pow(f[-1], -1, pk)
        return [_symmetric([c * inv for c in f], pk)]
    k = len(modular) // 2
    g = [f[-1] % p]
    for h in modular[:k]:
        g = _gf_mul(g, h, p)
    h = [1]
    for u in modular[k:]:
        h = _gf_mul(h, u, p)
    s, t = _gf_gcdex(g, h, p)
    m = p
    while m < pk:
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
        m *= m
    return _hensel_lift(g, modular[:k], p, pk) + _hensel_lift(h, modular[k:], p, pk)


def _hensel_step(f, g, h, s, t, m):
    """Quadratic Hensel step (von zur Gathen and Gerhard, Modern Computer
    Algebra, Algorithm 15.10): from f = g h and s g + t h = 1 mod m, with h
    monic, to the same mod m**2."""
    mm = m * m
    e = _symmetric(_sub(f, _mul(g, h)), mm)
    q, r = _gf_divmod(_mul(s, e), h, mm)
    gg = _symmetric(_add(g, _add(_mul(t, e), _mul(q, g))), mm)
    hh = _symmetric(_add(h, r), mm)
    b = _symmetric(_sub(_add(_mul(s, gg), _mul(t, hh)), [1]), mm)
    c, d = _gf_divmod(_mul(s, b), hh, mm)
    ss = _symmetric(_sub(s, d), mm)
    tt = _symmetric(_sub(t, _add(_mul(t, b), _mul(c, gg))), mm)
    return gg, hh, ss, tt


def _add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] += y
    return out


def _sub(a, b):
    return _add(a, [-y for y in b])


# ---------------------------------------------------------------------------
# polynomials over GF(p) (ascending lists of residues, trimmed)
# ---------------------------------------------------------------------------

def _gf(f, p):
    out = [c % p for c in f]
    while out and not out[-1]:
        out.pop()
    return out


def _gf_monic(f, p):
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def _gf_mul(a, b, p):
    return _gf(_mul(a, b), p)


def _gf_sub(a, b, p):
    return _gf(_sub(a, b), p)


def _gf_divmod(a, b, p):
    """Quotient and remainder mod p; p need not be prime when b's leading
    coefficient is a unit mod p, as in Hensel lifting by a monic b."""
    a = list(a)
    db, inv = len(b) - 1, pow(b[-1], -1, p)
    q = [0] * max(0, len(a) - db)
    for k in range(len(a) - 1, db - 1, -1):
        c = a[k] * inv % p
        q[k - db] = c
        if c:
            # a[k] is cancelled and never read again; the rest is reduced
            # once at the end
            for i in range(db):
                a[k - db + i] -= c * b[i]
    return _gf(q, p), _gf(a[:db], p)


def _gf_gcd(a, b, p):
    """Monic gcd."""
    while b:
        a, b = b, _gf_divmod(a, b, p)[1]
    return _gf_monic(a, p) if a else a


def _gf_gcdex(a, b, p):
    """(s, t) with s a + t b = 1 for coprime a, b; deg s < deg b."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _gf_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _gf_sub(s0, _gf_mul(q, s1, p), p)
        t0, t1 = t1, _gf_sub(t0, _gf_mul(q, t1, p), p)
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _gf_powmod(a, e, f, p):
    out, a = [1], _gf_divmod(a, f, p)[1]
    while e:
        if e & 1:
            out = _gf_divmod(_gf_mul(out, a, p), f, p)[1]
        e >>= 1
        if e:
            a = _gf_divmod(_gf_mul(a, a, p), f, p)[1]
    return out


def _gf_ddf(f, p):
    """Distinct-degree factorization of a monic squarefree f: pairs (g, d)
    with g the product of the irreducible factors of degree d."""
    out, h, d = [], [0, 1], 1
    while 2 * d <= len(f) - 1:
        h = _gf_powmod(h, p, f, p)
        g = _gf_gcd(f, _gf_sub(h, [0, 1], p), p)
        if len(g) > 1:
            out.append((g, d))
            f = _gf_divmod(f, g, p)[0]
            h = _gf_divmod(h, f, p)[1]
        d += 1
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _gf_edf(f, d, p, rng):
    """Equal-degree factorization (Cantor-Zassenhaus, p odd) of a monic
    product of irreducibles of degree d."""
    if len(f) - 1 == d:
        return [f]
    e = (p ** d - 1) // 2
    while True:
        a = [rng.randrange(p) for _ in range(len(f) - 1)]
        g = _gf_gcd(f, _gf_sub(_gf_powmod(_gf(a, p), e, f, p), [1], p), p)
        if 1 < len(g) < len(f):
            return (_gf_edf(g, d, p, rng)
                    + _gf_edf(_gf_divmod(f, g, p)[0], d, p, rng))


# ---------------------------------------------------------------------------
# complex-root isolation (ascending coefficient lists)
# ---------------------------------------------------------------------------
#
# Collins-Krandick bisection as sympy's ``dup_isolate_complex_roots_sqf``
# runs it.  Its rectangles depend only on the bound B, on eps and on the
# number of roots in each rectangle it meets, so any exact count gives the
# same ones.  The count is the winding number of f around the rectangle,
# read off the sequence of half-axes and quadrants that f(z) visits along
# each edge.  An edge lies on a line z = p0 + T d, T in [0, 1]; the roots of
# Re f * Im f on the line are isolated once, by Descartes' rule of signs, and
# each edge of a child rectangle is a dyadic piece of a line of its parent.
# Everything runs in the plane scaled by 1/B, where every corner is dyadic.
# A rectangle with one root skips the levels between it and its leaf
# (``_locate``): the leaf is a fixed grid square, so a guess at the root names
# it, and a count on four fresh lines certifies it.

# positions of f(z) in eighths of a turn from the positive real axis: the
# half-axes A1..A4 are 0, 2, 4, 6 and the open quadrants Q1..Q4 are 1, 3, 5,
# 7; _OO is f(z) = 0
_OO = None
_ZERO, _ONE = Fraction(0), Fraction(1)

# what a count leaves out, for the edges S, E, N, W and for the corners where
# they start (SW, SE, NE, NW): a rectangle is [u, s) x (v, t], so it keeps
# its W and N edges and its NW corner, and the two halves of a rectangle
# part its roots between them
_EDGES_OUT = (1, 1, 0, 0)
_CORNERS_OUT = (1, 1, 1, 0)


def _position(re, im):
    if re > 0:
        return 0 if not im else 1 if im > 0 else 7
    if re < 0:
        return 4 if not im else 3 if im > 0 else 5
    return _OO if not im else 2 if im > 0 else 6


def _turn(p, q, origin, excluded):
    """The turn of f, in eighths, from position p to position q, passing
    through 0 when `origin`.  A step of one eighth, or of a quarter between
    open quadrants, is a plain turn.  Any other step passed through or beside
    a root on the boundary; it counts counterclockwise (2 to 9 eighths) when
    that root is inside, and the other way round when it is `excluded`."""
    d = (q - p) % 8
    if not origin and (d in (0, 1, 7) or (p & 1 and d in (2, 6))):
        return d if d < 4 else d - 8
    if d < 2:
        d += 8
    return d - 8 if excluded else d


def _count(edges):
    """Roots of f in a rectangle, from the position sequences of its edges
    S, E, N, W in counterclockwise order."""
    seqs = [e.seq() for e in edges]
    total = 0
    for i, seq in enumerate(seqs):
        if not seq:
            continue
        if seq[-1] is _OO:
            seq = seq[:-1]
        if seq[0] is _OO:
            seq = seq[1:]
            total += _turn(seqs[i - 1][-2], seq[0], True, _CORNERS_OUT[i])
        p, k = seq[0], 1
        while k < len(seq):
            origin = seq[k] is _OO
            k += origin
            total += _turn(p, seq[k], origin, _EDGES_OUT[i])
            p, k = seq[k], k + 1
    return total // 8


def _unit_roots(f, depth=None):
    """The roots in [0, 1] of an integer polynomial f (ascending), by
    Descartes' rule of signs and bisection (Collins and Akritas, "Polynomial
    real root isolation using Descartes' rule of signs", SYMSAC 1976): sorted
    items (a, b), with a == b for a root at a dyadic point and otherwise an
    open dyadic interval with one simple root and no root at either end.

    The bisection ends only for squarefree f.  With `depth`, it gives up and
    returns None instead of bisecting below 2^-depth."""
    out = []
    if not f[0]:
        out.append((_ZERO, _ZERO))
    if not sum(f):
        out.append((_ONE, _ONE))
    # (k, j, q): q (descending) is f on [k / 2^j, (k + 1) / 2^j] mapped to [0, 1]
    stack = [(0, 0, f[::-1])]
    while stack:
        k, j, q = stack.pop()
        v = _sign_variations(_shift(q[::-1], 1))
        if not v:
            continue
        if v == 1 and q[-1] and sum(q):
            out.append((Fraction(k, 1 << j), Fraction(k + 1, 1 << j)))
            continue
        if j == depth:
            return None
        left = [c << i for i, c in enumerate(q)]
        right = _shift(left, 1)
        if not right[-1]:
            mid = Fraction(2 * k + 1, 1 << (j + 1))
            out.append((mid, mid))
        stack.append((2 * k, j + 1, left))
        stack.append((2 * k + 1, j + 1, right))
    return sorted(out)


def circle_roots(f):
    """The number of roots on |z| = 1 in the open upper half-plane of a
    squarefree palindromic integer polynomial f (ascending) of degree 2k
    with f(1) and f(-1) nonzero.

    Such an f is z^k h(z + 1/z), and z = e^(i theta), 0 < theta < pi, is a
    root exactly when 2 cos(theta), in (-2, 2), is a root of h, which is
    squarefree too.  h comes from z^j + z^-j = P_j(t), with P_0 = 2,
    P_1 = t and P_(j+1) = t P_j - P_(j-1), written at once in u with
    t = 4u - 2, so its roots in (-2, 2) are the ones ``_unit_roots`` finds
    in (0, 1)."""
    k = (len(f) - 1) // 2
    t = [-2, 4]
    prev, cur, h = [2], t, [f[k]]
    for c in f[k + 1:]:
        h = _add(h, [c * x for x in cur])
        prev, cur = cur, _sub(_mul(t, cur), prev)
    return len(_unit_roots(h))


def _content_free(f):
    """f over its content, trimmed; unlike ``_primitive`` the signs stay."""
    g = 0
    for c in f:
        g = gcd(g, c)
    f = [c // g for c in f] if g > 1 else list(f)
    while f and not f[-1]:
        f.pop()
    return f


def _common_part(a, b):
    """The squarefree part of gcd(a, b), or None when it is constant."""
    g = _gcd(a, b)
    return squarefree_part(g) if len(g) > 1 else None


class _Line:
    """f along the segment x0 + i y0 + T d, T in [0, 1], with d = length or
    i * length: Re f and Im f as integer polynomials in T, each up to a
    positive factor, and the roots of their product in [0, 1] as items of
    ``_unit_roots``."""

    __slots__ = ("re", "im", "prod", "roots", "zeros")

    def __init__(self, g, x0, y0, length, vertical):
        den = max(x0.denominator, y0.denominator, length.denominator)
        a, b, size = int(x0 * den), int(y0 * den), int(length * den)
        # den^n g((W + a + i b) / den), by a Taylor shift in Z[i] ...
        n = len(g) - 1
        re, pw = [], 1
        for c in reversed(g):
            re.append(c * pw)
            pw *= den
        re.reverse()
        im = [0] * (n + 1)
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                r1, i1 = re[j + 1], im[j + 1]
                re[j] += a * r1 - b * i1
                im[j] += a * i1 + b * r1
        # ... at W = T * size (horizontal) or W = i T * size (vertical)
        pw = 1
        for j in range(n + 1):
            r, s = re[j] * pw, im[j] * pw
            if vertical:
                r, s = ((r, s), (-s, r), (-r, -s), (s, -r))[j % 4]
            re[j], im[j] = r, s
            pw *= size
        self.re, self.im = _content_free(re), _content_free(im)
        if not self.im:
            prod = self.re
        elif not self.re:
            prod = self.im
        else:
            prod = _mul(self.re, self.im)
        # zeros: a squarefree polynomial whose roots are the zeros of f in
        # the open root intervals, or None.  Where f is real or imaginary
        # all along the line, every root is one.  Otherwise a zero of f is a
        # common root of Re f and Im f, so a repeated root of prod; prod is
        # almost always squarefree in [0, 1], which the bisection shows by
        # ending above 2^-24, and only if it does not are the repeated
        # factors taken out and the common ones kept as zeros
        zeros = None
        roots = _unit_roots(prod, 24) if len(prod) > 1 else []
        if roots is None:
            prod = squarefree_part(prod)
            roots = _unit_roots(prod)
            if self.re and self.im:
                zeros = _common_part(self.re, self.im)
        if not self.re or not self.im:
            zeros = prod
        self.prod, self.roots, self.zeros = prod, roots, zeros

    def position(self, x):
        return _position(sign_at(self.re, x), sign_at(self.im, x))

    def split(self, m):
        """Refine the root interval around m, if any, so that none has m
        inside."""
        for i, (a, b) in enumerate(self.roots):
            if a < m < b:
                sm = sign_at(self.prod, m)
                if not sm:
                    self.roots[i] = (m, m)
                elif sm != sign_at(self.prod, a):
                    self.roots[i] = (a, m)
                else:
                    self.roots[i] = (m, b)
                return

    def positions(self, lo, hi, back):
        """The positions f visits along [lo, hi], backwards when `back`, in
        the form of sympy's ``_intervals_to_quadrants``: the position in each
        gap between the zeros of Re f * Im f, and between gaps the position
        at each of those zeros found at a dyadic point, and _OO at each zero
        of f.  [] when there is no zero."""
        items = [(a, b) for a, b in self.roots if lo <= a and b <= hi]
        if not items:
            return []
        s, t = lo, hi
        if back:
            items = [(b, a) for a, b in reversed(items)]
            s, t = hi, lo
        seq = [] if items[0] == (s, s) else [self.position(s)]
        last = len(items) - 1
        for i, (near, far) in enumerate(items):
            if near != far:
                zeros = self.zeros
                if zeros and sign_at(zeros, near) != sign_at(zeros, far):
                    seq.append(_OO)
                gap = far
            else:
                seq.append(self.position(near))
                if i < last:
                    nxt, nxt_far = items[i + 1]
                    gap = nxt if nxt != nxt_far else (near + nxt) / 2
                elif near == t:
                    break
                else:
                    gap = t
            seq.append(self.position(gap))
        return seq


class _Edge:
    """The piece [lo, hi] of a line, traversed backwards when `back`."""

    __slots__ = ("line", "lo", "hi", "back", "_seq")

    def __init__(self, line, lo, hi, back):
        self.line, self.lo, self.hi, self.back = line, lo, hi, back
        self._seq = None

    def seq(self):
        if self._seq is None:
            self._seq = self.line.positions(self.lo, self.hi, self.back)
        return self._seq

    def halves(self):
        mid = (self.lo + self.hi) / 2
        self.line.split(mid)
        return (_Edge(self.line, self.lo, mid, self.back),
                _Edge(self.line, mid, self.hi, self.back))


def _halves(g, rect):
    """Halve (count, u, v, s, t, edges) by a vertical line when it is wider
    than high, else by a horizontal one, as sympy's ``_vertical_bisection``
    and ``_horizontal_bisection`` do."""
    n, u, v, s, t, (south, east, north, west) = rect
    if s - u > t - v:
        x = (u + s) / 2
        line = _Line(g, x, v, t - v, True)
        s1, s2 = south.halves()
        n1, n2 = north.halves()
        a = (u, v, x, t, (s1, _Edge(line, _ZERO, _ONE, False), n1, west))
        b = (x, v, s, t, (s2, east, n2, _Edge(line, _ZERO, _ONE, True)))
    else:
        y = (v + t) / 2
        line = _Line(g, u, y, s - u, False)
        e1, e2 = east.halves()
        w1, w2 = west.halves()
        a = (u, v, s, y, (south, e1, _Edge(line, _ZERO, _ONE, True), w1))
        b = (u, y, s, t, (_Edge(line, _ZERO, _ONE, False), e2, north, w2))
    count = _count(a[4])
    return [(count,) + a, (n - count,) + b]


def _small(rect, small):
    _, u, v, s, t, _ = rect
    return s - u < small and t - v < small


def _descend(g, rects, small):
    """Descend until each rectangle that holds a root holds one and is
    smaller than `small` both ways: the leaves.  A rectangle with two or more
    roots is bisected; one with a single root goes straight to its leaf
    (``_locate``), and is bisected once only when that fails."""
    leaves = []
    # the least k >= 0 with 2^-k < small
    level = (small.denominator // small.numerator).bit_length()
    while rects:
        rect = rects.pop()
        if rect[0] == 1:
            leaf = _locate(g, rect, level)
            if leaf is not None:
                leaves.append(leaf)
                continue
        for child in _halves(g, rect):
            if child[0] == 1 and _small(child, small):
                leaves.append(child)
            elif child[0] >= 1:
                rects.append(child)
    return leaves


# bits of fixed point below a leaf's side, and the Newton steps that may be
# taken, in ``_locate``
_GUARD = 16
_NEWTON_STEPS = 40
# fixed-point units: a guess this close to an edge that its square leaves out
# is not tried (see ``_locate``)
_NEAR = 4


def _value(f, x, y, prec):
    """f(z) at z = (x + i y) / 2^prec, in the same fixed point, by Horner
    with truncation."""
    re, im = f[-1] << prec, 0
    for c in reversed(f[:-1]):
        re, im = ((re * x - im * y) >> prec) + (c << prec), (re * y + im * x) >> prec
    return re, im


def _locate(g, rect, level):
    """The leaf that bisection reaches from `rect`, which holds one root and
    is not small, or None.

    ``_halves`` halves the wider side, and the height on a tie, so from the
    first rectangle (2 x 1) on, every rectangle is a square or twice as wide
    as high, and the first one below 2^-level both ways is the square of
    side 2^-level.  Those squares, [u, s) x (v, t] each, partition `rect`, so
    the leaf is the one that holds the root.  Integer complex Newton from
    the centre of `rect`, in fixed point 2^-prec, guesses the root; the
    square the guess falls in is certified by a count of 1 on fresh lines
    for its four edges.  None when Newton does not settle, the guess it
    settles on is not in `rect` or lies within _NEAR units of the bottom or
    the right edge of its square, or the count is 0.

    Truncation leaves a guess a unit or two off the root, so a root on an
    edge of the grid, such as a real root on Im z = 0, can put the guess
    just inside the square beyond it, which leaves that edge out and counts
    0; such a guess goes straight to the fallback without building lines."""
    _, u, v, s, t, _ = rect
    prec = level + _GUARD
    one = 1 << prec
    lo_x, lo_y, hi_x, hi_y = (int(c * one) for c in (u, v, s, t))
    x, y = (lo_x + hi_x) >> 1, (lo_y + hi_y) >> 1
    dg = _deriv(g)
    for _ in range(_NEWTON_STEPS):
        gr, gi = _value(g, x, y, prec)
        dr, di = _value(dg, x, y, prec)
        norm = dr * dr + di * di
        if not norm:
            return None
        dx = ((gr * dr + gi * di) << prec) // norm
        dy = ((gi * dr - gr * di) << prec) // norm
        x, y = x - dx, y - dy
        if abs(x) > 2 * one or abs(y) > 2 * one:
            return None     # far outside the box [-1, 1]^2 that holds every root
        if abs(dx) >> _GUARD == 0 and abs(dy) >> _GUARD == 0:
            break
    else:
        return None
    # only the settled guess must lie in `rect`: on the way, a step may cross
    # an edge that the root lies on
    if not (lo_x <= x < hi_x and lo_y < y <= hi_y):
        return None
    # the square [x0, x0 + side) x (y0, y0 + side] that holds x + i y
    side = 1 << _GUARD
    x0, y0 = x // side * side, (y - 1) // side * side
    if y - y0 <= _NEAR or x0 + side - x <= _NEAR:
        return None
    u, v = Fraction(x0, one), Fraction(y0, one)
    s, t = Fraction(x0 + side, one), Fraction(y0 + side, one)
    length = s - u
    edges = (_Edge(_Line(g, u, v, length, False), _ZERO, _ONE, False),
             _Edge(_Line(g, s, v, length, True), _ZERO, _ONE, False),
             _Edge(_Line(g, u, t, length, False), _ZERO, _ONE, True),
             _Edge(_Line(g, u, v, length, True), _ZERO, _ONE, True))
    if _count(edges) != 1:
        return None
    return (1, u, v, s, t, edges)


class RootRectangles(list):
    """The rectangles ((re_lo, im_lo), (re_hi, im_hi)) of
    ``isolate_complex_roots``, with the leaves behind them:
    ``refined(eps)`` carries the same descent on to a smaller eps, each leaf
    going straight to its square at the new eps where it can (``_locate``),
    and so gives the rectangles a fresh call with that eps would."""

    def __init__(self, g=(), scale=1, leaves=()):
        self._g, self._scale, self._leaves = g, scale, list(leaves)
        super().__init__(sorted(((u * scale, v * scale), (s * scale, t * scale))
                                for _, u, v, s, t, _ in self._leaves))

    def refined(self, eps):
        small = Fraction(eps) / self._scale
        done = [r for r in self._leaves if _small(r, small)]
        todo = [r for r in self._leaves if not _small(r, small)]
        return RootRectangles(self._g, self._scale, done + _descend(self._g, todo, small))


def rect_modulus_sq(rect):
    """(least, greatest) |z|^2 over a closed rectangle of ``RootRectangles``."""
    (re_lo, im_lo), (re_hi, im_hi) = rect
    dx = Fraction(0) if re_lo <= 0 <= re_hi else min(abs(re_lo), abs(re_hi))
    dy = Fraction(0) if im_lo <= 0 <= im_hi else min(abs(im_lo), abs(im_hi))
    mx = max(abs(re_lo), abs(re_hi))
    my = max(abs(im_lo), abs(im_hi))
    return dx * dx + dy * dy, mx * mx + my * my


def isolate_complex_roots(f, eps):
    """Isolating rectangles for the roots in the open upper half-plane of a
    squarefree integer polynomial f (ascending coefficients), sorted by their
    lower-left corners: the upper-half-plane rectangles of sympy's
    ``dup_isolate_complex_roots_sqf`` (Collins and Krandick, "An efficient
    algorithm for infallible polynomial complex root isolation", ISSAC 1992),
    each narrower than eps both ways.  A rectangle (a, b) is
    [a.re, b.re) x (a.im, b.im] and holds one root."""
    f = [int(c) for c in f]
    while f and not f[-1]:
        f.pop()
    if len(f) <= 2:
        return RootRectangles()
    n = len(f) - 1
    bound = Fraction(2 * max(abs(c) for c in f), abs(f[-1]))
    # g(w) = f(bound * w) up to a positive factor: its roots lie inside
    # [-1, 1] x [-1, 1]
    p, q = bound.numerator, bound.denominator
    g = _content_free([c * p ** k * q ** (n - k) for k, c in enumerate(f)])
    one, zero = _ONE, _ZERO
    top = (-one, zero, one, one, (
        _Edge(_Line(g, -one, zero, 2 * one, False), zero, one, False),
        _Edge(_Line(g, one, zero, one, True), zero, one, False),
        _Edge(_Line(g, -one, one, 2 * one, False), zero, one, True),
        _Edge(_Line(g, -one, zero, one, True), zero, one, True)))
    # sympy counts this first rectangle closed, so with the real roots, but
    # only to stop when it holds none; the rectangles come out the same
    count = _count(top[4])
    if count < 1:
        return RootRectangles()
    return RootRectangles(g, bound, _descend(g, [(count,) + top], Fraction(eps) / bound))
