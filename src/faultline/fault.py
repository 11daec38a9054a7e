"""Fault-line dynamics along a horizontal boundary.

Two substitutions act on the rows touching the boundary; iterating from an
aligned seed letter produces a pair of words per round.  The discrepancy at a
prefix is the difference in counts of letter 0 between the two rows up to
the same exact horizontal position (positions live in Q(lambda), and every
comparison is exact).  Offsets are the induced shears lambda*m reduced modulo
a tile width.  They are kept as integer coefficient vectors over the widths'
common denominator: reduction, ordering and gaps run on integers, and reports
print each from its vector.

The rows are never built.  Each round is carried by its set of overlap
states (top tile, bottom tile, count difference), which the two
substitutions map to the next round's set; a round's distinct discrepancies
are read off its states.  One ``OverlapGraph`` per boundary expands each
state once and keeps each walk, which traces and the classifier read: a
trace costs per distinct state, not per letter.  A trace's ``Row``s know
their length only; the letters a report prints are the first ones of each
round, read off ``Substitution.prefixes``.

``classify_boundary`` reads no offset and no letter.  A state places its
overlap at x = <w, D>, and a child has x' = lambda x + <w, P1 - P2>.  Read
at a conjugate lambda_j of lambda (the star map), x_j' = lambda_j x_j + c
with |c| <= C_j.  A walk that closes meets in finitely many placed overlaps:
``Rigid`` when every walk does.  A state with |lambda_j| > 1 and
|x_j| > C_j / (|lambda_j| - 1) escapes: each child has
|x_j'| - R >= |lambda_j| (|x_j| - R) for R = C_j / (|lambda_j| - 1), and
every state has a child, so x_j, and with it x, takes infinitely many
values: ``RegularFault``.  An escape passes to every descendant, so a
walk is decided in the step that walks it: each round of a walk that adds
a placed overlap is tested for an escape, and its first round that escapes
is recorded; no later round can close it, and the classifier stops there.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from functools import cached_property, cmp_to_key
from math import floor, lcm
from operator import add, mul, sub

from .abelian import matpow
from .algebra import NumberField, mod_quotient, root_interval, times
from .errors import HypothesisError, ResourceCapError, ValidationError
from .zpoly import isolate_complex_roots, rect_modulus_sq, sign_at

DEFAULT_ROUNDS = 12
DEFAULT_MAX_STATES = 100_000   # overlap states over all rounds of a trace

_SCALE = 1 << 96   # fixed-point scale of the sign filter


@dataclass(frozen=True)
class Row:
    """The word substitution^round(seed), named but never built: ``length``
    is computed from the substitution matrix on each read (``len()`` only up
    to sys.maxsize).  Its letters are read off ``Substitution.prefixes``,
    which gives the first n letters of each round."""
    substitution: object
    seed: int
    round: int

    @property
    def length(self):
        """|substitution^round(seed)|: column seed of matrix^round, summed."""
        return sum(row[self.seed] for row in matpow(self.substitution.matrix(), self.round))

    def __len__(self):
        return self.length


@dataclass(frozen=True)
class BoundaryStep:
    round: int
    top: Row
    bottom: Row
    offset_vectors: tuple         # the distinct shear offsets, sorted ascending, as
                                  # integer coefficient vectors over the widths' den
    discrepancy_values: tuple     # distinct m values this round, sorted

    @property
    def max_abs_discrepancy(self):
        v = self.discrepancy_values
        return max(abs(v[0]), abs(v[-1])) if v else 0


@dataclass(frozen=True)
class BoundaryTrace:
    seed: int
    widths: object                # the TileLengths of the top substitution, whose
                                  # field and den the offset vectors are over
    steps: tuple

    def max_abs_by_round(self):
        return tuple(s.max_abs_discrepancy for s in self.steps)


class _ScanWidths:
    """Tile widths as the sign filter reads them: the integer coefficient
    vectors over one denominator of a ``TileLengths``, and their image scaled
    by 2^96, built on first use and then kept for the whole graph."""

    def __init__(self, widths):
        self.field, self.vectors, self.den = widths.field, widths.vectors, widths.den

    @cached_property
    def scaled(self):
        # |widths[i] * 2^96 - scaled[i]| <= 1.  This refinement also sets the
        # field enclosures that reports print (cli.alg_json): another width
        # here would change report bytes.
        out = []
        for v in self.vectors:
            a, b, e = self.field.enclose(v, self.den, Fraction(1, _SCALE))
            out.append(round(Fraction((a + b) * _SCALE, 2 * e)))
        return out

    def sign(self, x, image):
        """Sign of sum(x[i] * widths[i]) for an integer vector x whose filter
        image sum(x[i] * scaled[i]) is ``image``.  The filter decides it
        whenever the image lies outside the margin sum(|x[i]|); a zero x
        (margin 0) is an exact tie; only the rest goes to the exact sign."""
        margin = sum(map(abs, x))
        if image > margin:
            return 1
        if image < -margin:
            return -1
        if not margin:
            return 0
        return self.field.sign(self.value(x))

    def value(self, x):
        """The coefficient vector over ``den`` of sum(x[i] * widths[i])."""
        return tuple(sum(d * v[j] for d, v in zip(x, self.vectors))
                     for j in range(self.field.degree))


class _Conjugate:
    """A conjugate lambda_j of lambda with |lambda_j| > 1, as the escape
    test reads it: per letter, the width w_j at lambda_j as a fixed-point
    image (re, im), each part within 1 of 2^96 times the exact one (im is
    exactly 0 for a real lambda_j), and ``radius_sq`` >= (2^96 R)^2 for
    R = C_j / (|lambda_j| - 1), with ``bound`` its floor, against which the
    integer moduli of the filter compare as against ``radius_sq`` itself.
    C_j bounds |<w_j, P1 - P2>| over every top child prefix P1 and bottom
    child prefix P2.  A real conjugate keeps its ``_ScanWidths`` for the
    exact test where the filter cannot decide."""

    def __init__(self, images, low, spans, scan=None):
        # images: per letter (re, im); low: a rational lower bound > 1 of
        # |lambda_j|; spans: the top and the bottom child prefix vectors
        self.re, self.im = (tuple(w[k] for w in images) for k in (0, 1))
        self.scan, self.real = scan, scan is not None
        # C_j as the largest |c| over the pairs themselves: the hull of the
        # c in a rectangle would grow with the rectangle's turn against the
        # c, which the order of the alphabet sets through the width of
        # letter 0 (the widths' unit)
        top, bottom = (set(map(tuple, ps)) for ps in spans)
        c_sq = max(self._moduli_sq(tuple(map(sub, p, q)))[1] for p in top for q in bottom)
        self.radius_sq = c_sq / (low - 1) ** 2
        self.bound = floor(self.radius_sq)

    def _moduli_sq(self, x):
        """The least and the greatest |z|^2, as integers, over the rectangle
        that holds 2^96 <w_j, x> for an integer vector x: the images' sum,
        widened by sum(|x[i]|) in each part that is not exactly 0."""
        m = sum(map(abs, x))
        re = abs(sum(map(mul, x, self.re)))
        if self.real:
            return max(re - m, 0) ** 2, (re + m) ** 2
        im = abs(sum(map(mul, x, self.im)))
        return max(re - m, 0) ** 2 + max(im - m, 0) ** 2, (re + m) ** 2 + (im + m) ** 2

    def escapes(self, d):
        """Whether |<w_j, d>| > R: certified by the filter, and for a real
        conjugate decided by an exact sign where the filter cannot."""
        lo, hi = self._moduli_sq(d)
        if lo > self.bound:
            return True
        if hi <= self.bound or not self.real:
            return False
        # x^2 - radius_sq / 2^192 for x = value / den, times den^2 2^192 q
        n, q = self.radius_sq.numerator, self.radius_sq.denominator
        field, v = self.scan.field, self.scan.value(d)
        sq = [c * q * _SCALE * _SCALE for c in times(v, v, field.poly)]
        sq[0] -= n * self.scan.den ** 2
        return field.sign(sq) > 0


def _horner_box(nums, den, rect):
    """Rectangle enclosure (re_lo, re_hi, im_lo, im_hi) of
    sum(nums[i] z^i) / den over z in the closed rectangle ``rect``, by
    Horner's rule in rectangular interval arithmetic."""
    (xl, yl), (xh, yh) = rect

    def span(a, b, c, d):
        t = (a * c, a * d, b * c, b * d)
        return min(t), max(t)

    a = b = Fraction(nums[-1])
    c = d = Fraction(0)
    for k in reversed(nums[:-1]):
        # (re + i im)(x + i y) = (re x - im y) + i (re y + im x)
        rx, iy, ry, ix = span(a, b, xl, xh), span(c, d, yl, yh), \
            span(a, b, yl, yh), span(c, d, xl, xh)
        a, b, c, d = rx[0] - iy[1] + k, rx[1] - iy[0] + k, ry[0] + ix[0], ry[1] + ix[1]
    return a / den, b / den, c / den, d / den


def _conjugates(widths, roots):
    """(images, low, scan) for a ``_Conjugate`` of each conjugate lambda_j
    of the widths' lambda with |lambda_j| > 1 by a margin the 2^-96
    enclosures see.  The real ones are read off ``roots``, the isolating
    intervals of the real roots of the squarefree charpoly
    (``PerronData.real_roots``), as those across which the field's ``poly``
    changes sign, each on a field of its own (lambda, the largest, is left
    out); one of each non-real pair comes from ``isolate_complex_roots``.
    A rational lambda has none: no interval changes sign across a linear
    ``poly``, which has no non-real root either.  None of them refines
    ``widths.field``."""
    poly, unit = widths.field.poly, Fraction(1, _SCALE)
    real = [(lo, hi) for lo, hi in roots if sign_at(poly, lo) * sign_at(poly, hi) < 0]
    out = []
    for lo, hi in real[:-1]:
        if max(-lo, hi) <= 1:
            continue
        scan = _ScanWidths(replace(widths, field=NumberField(poly, (lo, hi))))
        a, b, e = scan.field.enclose((0, 1), 1, unit)
        low = Fraction(min(abs(a), abs(b)), e) if a * b > 0 else 0
        if low > 1:
            out.append(([(s, 0) for s in scan.scaled], low, scan))
    if len(real) == widths.field.degree:
        return out
    eps = Fraction(1, 2 ** 16)
    rects = isolate_complex_roots(poly, eps)
    while True:
        boxes = [[_horner_box(v, widths.den, rect) for v in widths.vectors] for rect in rects]
        if all(b - a <= unit and d - c <= unit for box in boxes for a, b, c, d in box):
            break
        eps *= eps
        rects = rects.refined(eps)
    for rect, box in zip(rects, boxes):
        low = root_interval(rect_modulus_sq(rect)[0], 2, unit)[0]
        if low > 1:
            images = [(round((a + b) / 2 * _SCALE), round((c + d) / 2 * _SCALE))
                      for a, b, c, d in box]
            out.append((images, low, None))
    return out


def _prefix_counts(word, zero):
    """Letter counts of word[:i] for i = 0 .. len(word)."""
    out = [zero]
    for x in word:
        c = list(out[-1])
        c[x] += 1
        out.append(tuple(c))
    return out


class OverlapGraph:
    """The overlap graph of the boundary between rows of ``top`` and
    ``bottom`` (Solomyak, ETDS 17, 1997; Sirvent-Solomyak, Canad. Math.
    Bull. 45, 2002), walked from aligned seed letters.  The rows must span
    the same exact interval each round.

    A state (t, b, D) is a top tile t and a bottom tile b whose interiors
    overlap, with D the letter counts left of t minus those left of b, so
    left(t) - left(b) = <w, D> for the widths w.  Round 0 of the walk from
    seed x is {(x, x, 0)}.  Both rows share the abelianization M and
    <w, M D> = lambda <w, D>, so the child pair (t', b') =
    (top(t)[i], bottom(b)[j]) has D' = M D + P1(t, i) - P2(b, j), with P1, P2
    the letter counts of the children before t' and b'.  One merge sweep per
    state walks the overlapping children in order of their right edges.  The
    sign it steps by, of <w, E> for E = D' + e_t' - e_b', is
    right(t') - right(b') and gives the child's read-off:

    - <w, E> < 0: the cut right(t') falls inside b': (D' + e_t')[0];
    - <w, E> = 0: the cut is the right edge of b', which counts: E[0];
    - <w, E> > 0: b' ends before the cut: no value.

    Every top-tile cut lies in exactly one bottom tile's (left, right], so a
    round's read-offs are the distinct letter-0 discrepancies at its
    top-tile prefixes.  Aligned equal tiles with equal images have aligned
    equal children, decided without a sign, so the filter image is built on
    the first round whose rows differ.

    A state's children depend only on the state: each is expanded once per
    graph (``expanded``: (t, b, D) -> (children, read-offs)), and each
    seed's walk is kept as far as it has been asked for (``walks``), so each
    round is walked once whoever asks for it.  The walks' exact signs refine
    the widths' one field, whose enclosures reports print.  A walk closes at
    the first round that adds no placed overlap (t, b, <w, D>), keyed by the
    state when D -> <w, D> is injective (the field has the alphabet's
    degree), and escapes at the first round that leaves it open and has a
    state that escapes; ``_step`` decides both, whoever walks the round.
    The round that takes the states of all the rounds of a walk past
    ``max_states`` raises ResourceCapError."""

    def __init__(self, top, bottom, max_states=DEFAULT_MAX_STATES):
        if top.alphabet != bottom.alphabet:
            raise HypothesisError("boundary trace needs a common alphabet")
        if top.length_vector() != bottom.length_vector():
            raise HypothesisError("boundary trace needs equal per-letter image lengths")
        if top.matrix() != bottom.matrix():
            raise HypothesisError("boundary trace needs equal abelianizations")
        self.top, self.bottom, self.max_states = top, bottom, max_states
        self.widths = top.tile_lengths()
        self.scan = _ScanWidths(self.widths)
        self.expanded, self.walks, self._tables = {}, {}, {}
        self._zero = (0,) * top.size
        self._injective = self.scan.field.degree == top.size

    def rounds(self, seed, k):
        """Yield the sorted distinct read-offs of rounds 1 .. k of the walk
        from ``seed`` (a letter name or index), each walked when first asked."""
        walk = self._walk(seed)
        for rnd in range(k):
            if rnd == len(walk.rounds):
                self._step(walk)
            yield walk.rounds[rnd]

    def closes(self, seed, cap):
        """Whether the walk from ``seed`` closes within ``cap`` rounds.  The
        walk stops at its closing round, at its first round that escapes
        (``_step`` decides both), or at round ``cap``."""
        walk = self._walk(seed)
        while walk.closed is None and walk.escaped is None and len(walk.rounds) < cap:
            self._step(walk)
        return walk.closed is not None and walk.closed <= cap

    def escapes(self, seed, cap):
        """Whether a state of the walk from ``seed`` escapes in a conjugate
        of lambda (the module docstring) by round ``cap``, as far as the
        walk has been walked.  An escape passes to every descendant, so the
        first round that escapes, which ``_step`` records, stands for every
        round after it."""
        walk = self._walk(seed)
        return walk.escaped is not None and walk.escaped <= cap

    def _escape_in(self, states):
        # whether a state of ``states`` escapes in a conjugate of lambda; a
        # state with D = 0 has x_j = 0 and cannot, so it finds no conjugate
        ds = {d for _, _, d in states} - {self._zero}
        return bool(ds) and any(c.escapes(d) for c in self.conjugates for d in ds)

    @cached_property
    def conjugates(self):
        """The ``_Conjugate`` of each conjugate of lambda that can escape,
        found the first time a walk stays open after a round with a state
        whose D is not 0."""
        found = _conjugates(self.widths, self.top.perron().real_roots)
        if not found:
            return ()
        spans = [[p for rule in s.rules for p in _prefix_counts(rule, self._zero)[:-1]]
                 for s in (self.top, self.bottom)]
        return tuple(_Conjugate(images, low, spans, scan) for images, low, scan in found)

    def _walk(self, seed):
        seed, = self.top.word((seed,))
        if seed not in self.walks:
            self.walks[seed] = walk = _Walk({(seed, seed, self._zero)})
            self._adds_no_overlap(walk)
        return self.walks[seed]

    def _step(self, walk):
        children, values = set(), set()
        for state in walk.states:
            entry = self.expanded.get(state)
            if entry is None:
                entry = self.expanded[state] = self._expand(*state)
            children.update(entry[0])
            values.update(entry[1])
        spent = walk.spent + len(children)
        if spent > self.max_states:
            raise ResourceCapError(f"boundary trace exceeded the {self.max_states}-state "
                                   f"budget at round {len(walk.rounds) + 1}")
        walk.states, walk.spent = children, spent
        walk.rounds.append(tuple(sorted(values)))
        if walk.closed is None and walk.escaped is None:
            if self._adds_no_overlap(walk):
                walk.closed = len(walk.rounds)
            elif self._escape_in(children):
                # an escaped walk never closes: drop its placed overlaps
                walk.escaped, walk.seen = len(walk.rounds), None

    def _adds_no_overlap(self, walk):
        # whether the walk's last round adds no placed overlap to those it
        # has; else it adds them
        placed = walk.states if self._injective else \
            {(t, b, self.scan.value(d)) for t, b, d in walk.states}
        if placed <= walk.seen:
            return True
        walk.seen.update(placed)
        return False

    def _expand(self, t, b, d):
        # the children of state (t, b, d) in the order the sweep meets them,
        # and its read-off values
        kids1, kids2, zero, widths = self.top.rules[t], self.bottom.rules[b], self._zero, self.scan
        if t == b and d == zero and kids1 == kids2:
            return tuple((x, x, zero) for x in kids1), (0,)
        if (t, b) not in self._tables:
            # for children i of t and j of b: the vectors P1(t, i) - P2(b, j),
            # their filter images and their filter margins
            p1, p2 = _prefix_counts(kids1, zero), _prefix_counts(kids2, zero)
            vec = [[tuple(map(sub, u, v)) for v in p2] for u in p1]
            image = [[sum(map(mul, x, widths.scaled)) for x in row] for row in vec]
            margin = [[sum(map(abs, x)) for x in row] for row in vec]
            self._tables[t, b] = (vec, image, margin)
        vec, image, margin = self._tables[t, b]
        base = tuple(sum(map(mul, row, d)) for row in self.top.matrix())
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
        children, values = [], []
        while i < p and j < q:
            s = sign(i + 1, j + 1)
            children.append((kids1[i], kids2[j], tuple(map(add, base, vec[i][j]))))
            if s <= 0:
                values.append(base[0] + vec[i + 1][j + (s == 0)][0])
                i += 1
            if s >= 0:
                j += 1
        return tuple(children), tuple(values)


class _Walk:
    """One seed's walk, as far as it has been asked for.  It is decided at
    its first round that closes or escapes; ``seen``, which only the closure
    test reads, is kept as a closed walk's certificate and dropped at an
    escape."""

    def __init__(self, states):
        self.states = states    # the last round's states
        self.rounds = []        # the sorted distinct read-offs of rounds 1, 2, ...
        self.spent = 0          # the states of those rounds together
        self.seen = set()       # the placed overlaps up to the deciding round;
                                # None once the walk escapes
        self.closed = None      # the first round that added no placed overlap
        self.escaped = None     # the first round that escapes, if none closed before


def boundary_trace(graph, seed, k, modulus=None):
    """Trace k substitution rounds of the rows of an ``OverlapGraph`` from
    one aligned seed letter, a name or an index.

    ``modulus`` is the letter index of the tile width that offsets are
    reduced by; it defaults to the widest tile.  The graph's ``max_states``
    caps the overlap states of all rounds together, which is what a trace
    pays for; rows are never built."""
    if k < 1:
        raise ValidationError("need at least one round")
    seed, = graph.top.word((seed,))
    # offsets m*w_0 - q*w_mod as integer vectors m*V_0 - q*V_mod over one den
    field, vectors, den = graph.scan.field, graph.scan.vectors, graph.scan.den
    if modulus is None:
        # the widest tile, the first of equal ones
        modulus = 0
        for i in range(1, len(vectors)):
            if field.sign(tuple(map(sub, vectors[i], vectors[modulus]))) > 0:
                modulus = i
    if field.sign(vectors[modulus]) <= 0:
        raise ValidationError("offset modulus must be positive")
    mod_vector = vectors[modulus]
    unit = vectors[0]
    # the same discrepancy values recur round after round: reduce each once,
    # and keep its enclosure at the refinement it was reduced at
    reduced = {}
    steps = []
    for rnd, ms in enumerate(graph.rounds(seed, k), 1):
        for m in ms:
            if m not in reduced:
                shift = tuple(m * x for x in unit)
                q = mod_quotient(field, shift, mod_vector)
                o = tuple(x - q * y for x, y in zip(shift, mod_vector))
                reduced[m] = (o, field.enclose(o, den))
        order = order_vectors(field, den, [reduced[m][0] for m in ms],
                              [reduced[m][1] for m in ms])
        # two m can reduce to one offset: keep each once (equal vectors over
        # one den are equal values)
        offsets = dict.fromkeys(reduced[ms[i]][0] for i in order)
        steps.append(
            BoundaryStep(
                round=rnd,
                top=Row(graph.top, seed, rnd),
                bottom=Row(graph.bottom, seed, rnd),
                offset_vectors=tuple(offsets),
                discrepancy_values=ms,
            )
        )
    return BoundaryTrace(seed=seed, widths=graph.widths, steps=tuple(steps))


def order_vectors(field, den, vectors, enclosures=None):
    """Indices of ``vectors`` in ascending order of the field elements they
    are the integer coefficient vectors of (over den > 0); equal values in
    index order, as ``sorted`` orders the values.

    Values are ordered by certified enclosures, integer triples (a, b, e) for
    [a/e, b/e] as ``field.enclose`` gives them; exact signs run only inside
    groups of overlapping enclosures, and equal vectors compare equal without
    one.  ``enclosures`` may supply an enclosure per vector (each at any
    refinement); by default they are taken at the current root interval."""
    if enclosures is None:
        enclosures = [field.enclose(v, den) for v in vectors]
    scale = lcm(*{e for _, _, e in enclosures})
    bounds = [(a * (scale // e), b * (scale // e)) for a, b, e in enclosures]
    order = sorted(range(len(vectors)), key=lambda i: bounds[i][0])

    def exact(i, j):
        u, v = vectors[i], vectors[j]
        if u != v:
            return field.sign(tuple(map(sub, u, v)))
        return (i > j) - (i < j)

    out = []
    group = []
    group_hi = None
    for i in order:
        lo, hi = bounds[i]
        if group and lo > group_hi:
            # every value in the group lies below this one
            group.sort(key=cmp_to_key(exact))
            out.extend(group)
            group = []
        if not group or hi > group_hi:
            group_hi = hi
        group.append(i)
    group.sort(key=cmp_to_key(exact))
    out.extend(group)
    return tuple(out)


def min_gap_vector(field, den, ordered):
    """The least difference of consecutive vectors in ``ordered`` (ascending
    by value), as a vector over den; None for fewer than two.  All the
    differences are ordered, not only scanned for the least: the exact signs
    of that ordering refine the field, and printed enclosures read that
    refinement (cli.alg_json)."""
    gaps = [tuple(map(sub, b, a)) for a, b in zip(ordered, ordered[1:])]
    return gaps[order_vectors(field, den, gaps)[0]] if gaps else None


def discrepancy_growth(trace):
    """Geometric-mean growth of the max |discrepancy| over the last half of
    the rounds, as a rational interval.  All-zero discrepancies give (0, 0)."""
    maxes = trace.max_abs_by_round()
    k = len(maxes)
    if k < 4:
        raise ValidationError("growth estimate needs at least 4 rounds")
    if all(m == 0 for m in maxes):
        return (Fraction(0), Fraction(0))
    start = k // 2
    base = maxes[start - 1]
    last = maxes[k - 1]
    if base == 0 or last == 0:
        return (Fraction(0), Fraction(0))
    return root_interval(Fraction(last, base), k - start, Fraction(1, 10 ** 6))


def offset_statistics(trace):
    """Distinct exact offsets across the whole trace and the minimum positive
    gap between them, over the trace's ``widths``."""
    if not trace.steps:
        raise ValidationError("empty trace")
    field, den = trace.widths.field, trace.widths.den
    # equal vectors over one den are equal values
    distinct = list(dict.fromkeys(v for s in trace.steps for v in s.offset_vectors))
    distinct = [distinct[i] for i in order_vectors(field, den, distinct)]
    return OffsetStats(
        distinct_count=len(distinct),
        min_gap_vector=min_gap_vector(field, den, distinct),
    )


@dataclass(frozen=True)
class OffsetStats:
    distinct_count: int
    min_gap_vector: object     # integer vector over the widths' den, or None when < 2 offsets


class BoundaryKind(Enum):
    RIGID = "Rigid"
    REGULAR_FAULT = "RegularFault"
    UNDETERMINED = "Undetermined"


def classify_boundary(graph, cap=DEFAULT_ROUNDS):
    """The ``BoundaryKind`` of the boundary of an ``OverlapGraph``, from its
    walks from each aligned seed (x, x, 0), seed 0 first, each stopped at
    its closing round, at its first round that escapes, after ``cap``
    rounds, or where the state budget trips (``OverlapGraph.closes``).  The
    children of a state and their placed overlaps depend on D only through
    <w, D>, so a closed walk meets in finitely many ways.

    RegularFault at the first walk that escapes by round ``cap``, as its
    walk recorded it (``OverlapGraph.escapes``); Rigid when every walk
    closes.  Otherwise Undetermined when any walk that does not close
    reached the cap, and a ResourceCapError only when the budget stopped
    every such walk.  No verdict reads a label, and none depends on the order of the
    seeds."""
    if cap < 4:
        raise ValidationError("classification needs cap >= 4")
    open_walks = []     # per walk that does not close: its budget trip or None
    for seed in range(graph.top.size):
        try:
            if graph.closes(seed, cap):
                continue
            open_walks.append(None)
        except ResourceCapError as exc:
            open_walks.append(exc)
        if graph.escapes(seed, cap):
            return BoundaryKind.REGULAR_FAULT
    if not open_walks:
        return BoundaryKind.RIGID
    if None not in open_walks:
        raise open_walks[0]
    return BoundaryKind.UNDETERMINED
