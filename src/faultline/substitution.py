"""1-dimensional substitutions and their spectral/combinatorial data.

A substitution is a map letter -> nonempty word over a fixed alphabet.
Letters are dense integer ids with display names; words are tuples of ids.
The abelianization convention is: entry (i, j) counts occurrences of letter i
in the image of letter j, so lengths of images are the column sums.

Spectral data comes from ``perron_data`` once per substitution
(``Substitution.perron``): ``spectral_classify`` and ``tile_lengths`` read
that ``PerronData`` and never factor the characteristic polynomial again.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import chain, cycle, islice
from math import gcd
from operator import add

from . import abelian
from .algebra import (
    AlgebraicNumber,
    NumberField,
    inverse_vector,
    irreducible_factors,
    isolate_complex_roots,
    isolate_real_roots,
    pdeg,
    poly_str,
    root_interval,
    squarefree_part,
    times,
    times_root,
)
from .errors import (
    FaultlineError,
    HypothesisError,
    NoPerronRootError,
    ResourceCapError,
    ValidationError,
)
from .zpoly import circle_roots, rect_modulus_sq

DEFAULT_MAX_WORD_LEN = 10 ** 6


@dataclass(frozen=True)
class Letter:
    id: int
    name: str


class Substitution:
    """Alphabet plus one nonempty rule word per letter.  Immutable."""

    def __init__(self, alphabet, rules):
        """alphabet: sequence of unique display names.
        rules: mapping name -> word, where a word is a sequence of names (a
        plain string is read letter-by-letter, which works whenever all names
        are single characters)."""
        names = list(alphabet)
        if len(set(names)) != len(names) or not names:
            raise ValidationError("alphabet names must be nonempty and unique")
        self.letters = tuple(Letter(i, n) for i, n in enumerate(names))
        self._index = {n: i for i, n in enumerate(names)}
        self._ids = frozenset(range(len(names)))
        imgs = []
        for name in names:
            if name not in rules:
                raise ValidationError(f"no rule for letter {name!r}")
            imgs.append(self.word(rules[name]))
            if not imgs[-1]:
                raise ValidationError(f"rule for {name!r} is empty")
        self.rules = tuple(imgs)
        self._matrix = None
        self._perron = None     # PerronData on a field no caller refines

    # -- words ------------------------------------------------------------------

    @property
    def alphabet(self):
        return tuple(l.name for l in self.letters)

    @property
    def size(self):
        return len(self.letters)

    def word(self, w):
        """Coerce a string / name sequence / id sequence to a word (id tuple)."""
        out = []
        for s in w:
            if isinstance(s, int):
                if not 0 <= s < self.size:
                    raise ValidationError(f"letter id {s} out of range")
                out.append(s)
            else:
                if s not in self._index:
                    raise ValidationError(f"unknown letter {s!r}")
                out.append(self._index[s])
        return tuple(out)

    def text(self, word):
        return "".join(self.letters[i].name for i in word)

    # -- action ------------------------------------------------------------------

    def apply(self, word):
        """One substitution step: concatenation of rule images in order."""
        # an id tuple is checked in one pass; anything else goes through word()
        if not (isinstance(word, tuple) and set(word) <= self._ids):
            word = self.word(word)
        out = []
        for i in word:
            out.extend(self.rules[i])
        return tuple(out)

    def prefixes(self, seed, n):
        """Yield the first n letters of self^j(seed) for j = 0, 1, 2, ...,
        each read off the one before (no rule is empty), in O(n) a round."""
        word = (seed,)
        while True:
            yield word
            word = tuple(islice(chain.from_iterable(self.rules[x] for x in word), n))

    # -- abelianization and spectra ---------------------------------------------

    def matrix(self):
        """Abelianization: entry (i, j) counts letter i in the image of j.
        Cached; an immutable tuple of row tuples."""
        if self._matrix is None:
            n = self.size
            m = [[0] * n for _ in range(n)]
            for j in range(n):
                for i in self.rules[j]:
                    m[i][j] += 1
            self._matrix = tuple(map(tuple, m))
        return self._matrix

    def length_vector(self):
        return tuple(len(r) for r in self.rules)

    def is_primitive(self):
        return is_primitive(self.matrix())

    def perron(self):
        """``perron_data`` of the abelianization, computed once per
        substitution.  Every call gets the root on a new field at the root
        interval that ``perron_data`` left: printed enclosures read a field's
        refinement (``NumberField``), so no caller sees another's."""
        if self._perron is None:
            self._perron = perron_data(self.matrix())
        pd = self._perron
        return PerronData(charpoly=pd.charpoly,
                          root=AlgebraicNumber(pd.root.field.copy(), pd.root.coeffs),
                          primitive=pd.primitive, factors=pd.factors,
                          real_roots=pd.real_roots)

    def spectral_class(self):
        return spectral_classify(self.perron())

    def tile_lengths(self):
        return tile_lengths(self)

    # -- language ------------------------------------------------------------------

    def legal_words(self, n, max_len=DEFAULT_MAX_WORD_LEN):
        """All length-n factors of the images s^k(a), k >= 1: the factors of
        each letter's first image that has any, closed under substitution.
        Every length-n factor of s(v) lies in s(u) for a length-n factor u
        of v, so the closure holds the factors of every later image.  Without
        primitivity a factor of an early image need not recur in later ones,
        so no single long iterate would do."""
        if n < 1:
            raise ValidationError("factor length must be >= 1")
        factors = set()
        for a in range(self.size):
            w = self.apply((a,))
            # after ``size`` steps through length-1 images only, every letter
            # of w lies on a cycle of such letters: w never grows again
            stalled = 0
            while len(w) < n and stalled < self.size:
                nxt = self.apply(w)
                stalled = stalled + 1 if len(nxt) == len(w) else 0
                w = nxt
                if len(w) > max_len:
                    raise ResourceCapError("legal_words expansion exceeded the word cap")
            factors.update(w[i:i + n] for i in range(len(w) - n + 1))
        # close under substitution, applying each word once
        todo = factors
        while todo:
            new = set()
            for w in todo:
                img = self.apply(w)
                new.update(img[i:i + n] for i in range(len(img) - n + 1))
            todo = new - factors
            factors |= todo
        return factors

    # -- composition and comparison ----------------------------------------------

    def after(self, other):
        """Composite substitution self o other (apply other first)."""
        if self.alphabet != other.alphabet:
            raise HypothesisError("composition needs a common alphabet")
        rules = {l.name: self.apply(other.rules[l.id]) for l in self.letters}
        return Substitution(self.alphabet, rules)

    def __eq__(self, other):
        if not isinstance(other, Substitution):
            return NotImplemented
        return self.alphabet == other.alphabet and self.rules == other.rules

    def __hash__(self):
        return hash((self.alphabet, self.rules))

    def __repr__(self):
        body = ", ".join(f"{l.name}->{self.text(r)}" for l, r in zip(self.letters, self.rules))
        return f"Substitution({body})"


# ---------------------------------------------------------------------------
# Perron data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerronData:
    charpoly: tuple          # full characteristic polynomial, ascending
    root: AlgebraicNumber    # Perron eigenvalue in its minimal field
    primitive: bool
    factors: tuple           # irreducible_factors(charpoly)
    real_roots: tuple        # isolate_real_roots of its squarefree part, ascending


def is_primitive(m):
    """Some power of the non-negative matrix m is entrywise positive, checked
    up to the Wielandt bound (n-1)^2 + 1 on Boolean powers: row i of a power
    is the set of columns where it is positive."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValidationError("primitivity needs a square matrix")
    support = [frozenset(j for j, x in enumerate(row) if x) for row in m]
    power = support
    for _ in range((n - 1) ** 2 + 1):
        if all(len(row) == n for row in power):
            return True
        power = [frozenset().union(*(support[k] for k in row)) for row in power]
    return False


def perron_data(m):
    """Characteristic polynomial, its irreducible factors (computed once,
    for the Perron root's field and for ``spectral_classify``), Perron root
    (largest real eigenvalue) as an exact algebraic number, and
    primitivity.  The isolating intervals of the real roots that found the
    Perron root are kept (``real_roots``): the escape test of ``fault`` reads
    the conjugates of lambda off them."""
    if not any(map(any, m)):
        raise NoPerronRootError("zero matrix has no Perron root")
    if any(x < 0 for row in m for x in row):
        raise ValidationError("substitution matrices must be non-negative")
    cp = abelian.charpoly(m)
    factors = tuple(irreducible_factors(cp))
    sf = squarefree_part(cp)
    real = tuple(isolate_real_roots(sf))
    field, root = NumberField.with_largest_of(sf, real, factors)
    if root.sign() <= 0:
        raise NoPerronRootError("largest real eigenvalue is not positive")
    return PerronData(charpoly=cp, root=root, primitive=is_primitive(m), factors=factors,
                      real_roots=real)


# ---------------------------------------------------------------------------
# spectral classification
# ---------------------------------------------------------------------------

class SpectralKind(Enum):
    PISOT = "Pisot"
    SALEM = "Salem"
    NON_PISOT_EXPANDING = "NonPisotExpanding"
    UNIMODULAR = "Unimodular"


@dataclass(frozen=True)
class SpectralClass:
    kind: SpectralKind
    second_eigenvalue_modulus: tuple  # rational interval (lo, hi) of the largest non-Perron modulus

    def __str__(self):
        lo, hi = self.second_eigenvalue_modulus
        return f"{self.kind.value}(|second| in [{lo}, {hi}])"


_WIDTH = Fraction(1, 2 ** 64)      # the width of a real or quadratic modulus enclosure
_DEEPEST = Fraction(1, 2 ** 4096)  # rectangles never need refining past this


def _straddling(squares):
    return sum(lo <= 1 <= hi for lo, hi in squares)


def spectral_classify(pd):
    """Classify the non-Perron roots of the characteristic polynomial by
    their modulus against 1, exactly, and enclose the largest modulus in a
    rational interval.  The interval is exact for rational roots and at most
    2^-64 wide for irrational real roots and the non-real pair of a
    quadratic factor.  For a non-real root of a factor of degree >= 3 it is
    read off the root's rectangle, whose sides are under 2^-16, so it is
    under 2^-15 wide, and narrower where the rectangles were refined further
    for the comparison with 1.

    Rational roots compare as they are, irrational real roots by
    ``NumberField.sign`` of +-x - 1, and a non-real pair of a quadratic
    factor by its constant term, |z|^2.  The non-real roots of a factor of
    degree >= 3 lie in certified rectangles, refined down to 2^-64 while any
    straddles |z| = 1, and past that while more straddle than the factor has
    roots on the circle (``circle_roots``): then every straddling rectangle
    holds one.  ``pd`` is the ``PerronData`` of the matrix, on a field of its
    own, as ``Substitution.perron`` hands it out."""
    moduli, votes = [], []   # per non-Perron root: modulus enclosure, sign of |z| - 1
    for fac, _ in pd.factors:
        deg, own = pdeg(fac), fac == pd.root.field.poly
        if deg == 1:
            r = abs(Fraction(fac[0]))
            if not own:
                moduli.append((r, r))
                votes.append((r > 1) - (r < 1))
            continue
        real = isolate_real_roots(fac, eps=Fraction(1, 2 ** 24))
        # the Perron root is the largest real root of its minimal polynomial
        for lo, hi in real[:-1] if own else real:
            field = NumberField(fac, (lo, hi))
            a, b = field.gen().interval(_WIDTH)
            moduli.append((max(a, -b, 0), max(-a, b)))
            votes.append(field.sign((-1, 1 if hi > 0 else -1)))
        if len(real) == deg:
            continue
        if deg == 2:
            # a non-real pair of a monic quadratic: |z|^2 is the constant term
            moduli.append(root_interval(fac[0], 2, _WIDTH))
            votes.append(int(fac[0] > 1))
            continue
        eps = Fraction(1, 2 ** 16)
        rects = isolate_complex_roots(fac, eps)
        while eps > _WIDTH and _straddling(map(rect_modulus_sq, rects)):
            eps = max(eps * eps, _WIDTH)
            rects = rects.refined(eps)
        squares = [rect_modulus_sq(rect) for rect in rects]
        moduli.extend((root_interval(lo, 2, _WIDTH)[0], root_interval(hi, 2, _WIDTH)[1])
                      for lo, hi in squares)
        # a root z on |z| = 1 is non-real here, and 1/z = conj(z) is a root
        # too, so the irreducible factor equals its reversal
        on_circle = circle_roots(fac) if fac == fac[::-1] else 0
        while _straddling(squares) > on_circle:
            if eps <= _DEEPEST:
                raise FaultlineError(f"no separation of the roots of {poly_str(fac)} "
                                     "from |z| = 1 found")
            eps *= eps
            rects = rects.refined(eps)
            squares = [rect_modulus_sq(rect) for rect in rects]
        votes.extend((lo > 1) - (hi < 1) for lo, hi in squares)

    second = tuple(map(max, zip(*moduli))) if moduli else (Fraction(0), Fraction(0))
    if 1 in votes:
        kind = SpectralKind.NON_PISOT_EXPANDING
    elif not any(votes) and pd.root.is_rational() and pd.root.as_fraction() == 1:
        kind = SpectralKind.UNIMODULAR
    elif 0 in votes:
        kind = SpectralKind.SALEM
    else:
        kind = SpectralKind.PISOT
    return SpectralClass(kind=kind, second_eigenvalue_modulus=second)


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TileLengths:
    """Tile lengths as integer coefficient vectors over one denominator: the
    length of letter i is sum(vectors[i][j] * lambda**j) / den, with lambda
    the root of ``field`` and den > 0 least."""
    field: NumberField
    vectors: tuple
    den: int


def _lowest_terms(vectors, den):
    """(vectors, den) with the common factor of every entry and den divided
    out: the least denominator of the values vectors[i] / den."""
    g = gcd(den, *(c for v in vectors for c in v))
    return tuple(tuple(c // g for c in v) for v in vectors), den // g


def tile_lengths(s):
    """Natural tile lengths: a left Perron eigenvector of the abelianization,
    exact in Q(lambda), as a ``TileLengths`` on the field that
    ``Substitution.perron`` hands out, a new one each call.

    Rational lambda gives the primitive positive integer eigenvector; for
    irrational lambda the vector is scaled so the first entry is lambda when
    that lands in Z[lambda], else so the first entry is 1.  Either way
    length(s(x)) = lambda * length(x) holds exactly.

    The eigenvector is q(M^T) e_0, where charpoly(x) = (x - lambda) q(x): by
    Cayley-Hamilton every column of q(M^T) lies in the lambda-eigenspace of
    M^T, and the first is nonzero because lambda is a simple root for
    primitive M.  Everything is computed on integer coefficient vectors over
    the power basis of Z[lambda]: one inverse of the first entry normalises
    it to 1, and ``times_root`` steps do the rest."""
    pd = s.perron()
    if not pd.primitive:
        raise HypothesisError("tile lengths need a primitive substitution")
    field = pd.root.field
    n, deg, poly = s.size, field.degree, field.poly
    mt = abelian.transpose(s.matrix())
    # Horner for q(M^T) e_0, with the coefficients of q by synthetic division:
    # q_{n-1} = 1 and q_{i-1} = p_i + lambda * q_i
    q = (1,) + (0,) * (deg - 1)
    vec = [q] + [(0,) * deg] * (n - 1)
    for i in range(n - 1, 0, -1):
        q = times_root(q, poly)
        q = (q[0] + pd.charpoly[i],) + q[1:]
        vec = [tuple(sum(m * v[k] for m, v in zip(row, vec)) for k in range(deg))
               for row in mt]
        vec[0] = tuple(map(add, vec[0], q))
    inv, d = inverse_vector(vec[0], poly)
    unit = [times(v, inv, poly) for v in vec]   # over d; the first entry is 1
    if deg == 1:
        # the numerators in lowest terms are the primitive integer vector
        return TileLengths(field, _lowest_terms(unit, d)[0], 1)
    scaled = _lowest_terms([times_root(v, poly) for v in unit], d)
    return TileLengths(field, *(scaled if scaled[1] == 1 else _lowest_terms(unit, d)))


# ---------------------------------------------------------------------------
# shift conjugacy
# ---------------------------------------------------------------------------

def shift_conjugacy(s1, s2, max_len=8):
    """Shortest word u with s2(x) u = u s1(x) for every letter x, of length
    0..max_len; None when no certificate is found in range.  Such a u
    exhibits s2 as a shift of s1, hence equal tiling spaces.

    s2(x) u = u s1(x) with |s2(x)| = |s1(x)| > 0 makes u a prefix of the
    periodic word s2(x) s2(x) ..., so each length has one candidate: the
    prefix of that length for x the first letter."""
    if s1.alphabet != s2.alphabet:
        raise HypothesisError("shift conjugacy needs a common alphabet")
    if s1.length_vector() != s2.length_vector():
        raise HypothesisError("shift conjugacy needs equal image lengths")
    letters = range(s1.size)
    for length in range(max_len + 1):
        u = tuple(islice(cycle(s2.rules[0]), length))
        if all(s2.rules[x] + u == u + s1.rules[x] for x in letters):
            return u
    return None
