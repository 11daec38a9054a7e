"""Fault-line dynamics along a horizontal boundary.

Two substitutions act on the rows touching the boundary; iterating from an
aligned seed letter produces a pair of words per round.  The discrepancy at a
prefix is the difference in tracked-letter counts between the two rows up to
the same exact horizontal position (positions live in Q(lambda), and every
comparison is exact).  Offsets are the induced shears lambda*m reduced modulo
a tile width.  They are kept as integer coefficient vectors over the widths'
common denominator: reduction, ordering and gaps run on integers, and reports
print each from its vector.  Classification reads no offset and no tracked
letter: a boundary is ``Rigid`` when the overlap states it reaches from every
aligned seed close (``classify_boundary``).

The rows are never built.  Each round is carried by its set of overlap
states (top tile, bottom tile, count difference), which the two
substitutions map to the next round's set; a round's distinct discrepancies
are read off its states.  A state's children and read-offs depend only on
the state, so each state is expanded once per trace, however many rounds it
comes back in: a trace costs per distinct state, not per letter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property, cmp_to_key
from itertools import islice
from math import lcm
from operator import add, mul, sub

from .algebra import mod_quotient, root_interval
from .errors import HypothesisError, ResourceCapError, ValidationError
from .substitution import SpectralKind

DEFAULT_ROUNDS = 12
DEFAULT_MAX_STATES = 100_000   # overlap states over all rounds of a trace

_SCALE = 1 << 96   # fixed-point scale of the sign filter


@dataclass(frozen=True)
class Row:
    """The word substitution^round(seed), read lazily: ``length`` is computed
    from the letter lengths on each read (``len()`` only up to sys.maxsize),
    and iteration descends the rules depth first, so the first n letters cost
    O(round + n)."""
    substitution: object
    seed: int
    round: int

    @property
    def length(self):
        """|substitution^round(seed)|, by ``image_lengths``."""
        return next(islice(self.substitution.image_lengths(), self.round, None))[self.seed]

    def __len__(self):
        return self.length

    def __iter__(self):
        rules, depth = self.substitution.rules, self.round + 1
        stack = [iter((self.seed,))]
        while stack:
            for x in stack[-1]:
                if len(stack) == depth:
                    yield x
                else:
                    stack.append(iter(rules[x]))
                    break
            else:
                stack.pop()


@dataclass(frozen=True)
class BoundaryStep:
    round: int
    top: Row
    bottom: Row
    offset_vectors: tuple         # the distinct shear offsets, sorted ascending,
                                  # as integer coefficient vectors over den
    discrepancy_values: tuple     # distinct m values this round, sorted
    field: object                 # the NumberField of the offsets
    den: int

    @property
    def max_abs_discrepancy(self):
        v = self.discrepancy_values
        return max(abs(v[0]), abs(v[-1])) if v else 0


@dataclass(frozen=True)
class BoundaryTrace:
    top_sub: object
    bottom_sub: object
    seed: int
    tracked_letter: int
    widths: object                # the TileLengths of the top substitution
    modulus: int                  # letter whose width is the offset modulus
    steps: tuple
    # the overlap states the trace expanded: (t, b, D) -> (children, read-offs)
    expanded: dict = field(default_factory=dict, repr=False, compare=False)

    def max_abs_by_round(self):
        return tuple(s.max_abs_discrepancy for s in self.steps)


class _ScanWidths:
    """Tile widths as the sign filter reads them: the integer coefficient
    vectors over one denominator of a ``TileLengths``, and their image scaled
    by 2^96, built on first use and then kept for the whole trace."""

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


def _prefix_counts(word, zero):
    """Letter counts of word[:i] for i = 0 .. len(word)."""
    out = [zero]
    for x in word:
        c = list(out[-1])
        c[x] += 1
        out.append(tuple(c))
    return out


def _discrepancy_rounds(top, bottom, seed, k, widths, tracked,
                        max_states=DEFAULT_MAX_STATES, *, expanded=None, seen=None):
    """Yield the sorted distinct discrepancies of rounds 1 .. k, each round
    computed when it is asked for.  ``widths`` is a ``_ScanWidths``.  The
    round that takes the states of all rounds so far past ``max_states``
    raises ResourceCapError.  ``expanded`` is the table of expanded states,
    (t, b, D) -> (children, read-offs), to read and fill; it may come from
    another trace of the same rows and tracked letter, whatever its seed
    and widths, since both entries are exact.

    ``seen`` is a set of placed overlaps (t, b, <w, D>) to fill from round 0
    on; the walk stops, before yielding it, at the first round that adds
    none.  A placed overlap is keyed by its state when the field has the
    alphabet's degree (D -> <w, D> is then injective), else by <w, D>'s vector.

    A round is carried by its overlap states.  A state (t, b, D) is a top
    tile t and a bottom tile b whose interiors overlap, with D the letter
    counts left of t minus those left of b, so left(t) - left(b) = <w, D> for
    the widths w.  Round 0 is {(seed, seed, 0)}.  Both rows share the
    abelianization M and <w, M D> = lambda <w, D>, so the child pair
    (t', b') = (top(t)[i], bottom(b)[j]) has count difference
    D' = M D + P1(t, i) - P2(b, j), with P1, P2 the letter counts of the
    children before t' and b'.  One merge sweep per state walks the
    overlapping children of t and b in order of their right edges.  The
    comparison it steps by, the sign of <w, E> for E = D' + e_t' - e_b', is
    right(t') - right(b') and is also the child's read-off:

    - <w, E> < 0: the cut right(t') falls inside b'; the discrepancy there is
      (D' + e_t')[tracked];
    - <w, E> = 0: the cut is the right edge of b', which counts: E[tracked];
    - <w, E> > 0: b' ends before the cut; the state gives no value.

    Every top-tile cut lies in exactly one bottom tile's (left, right], so a
    round's values are the distinct discrepancies at all of its top-tile
    prefixes.  Aligned equal tiles (x, x, 0) with equal images have aligned
    equal children, decided without a sign; so the filter image is built on
    the first round whose rows differ."""
    rules1, rules2, matrix = top.rules, bottom.rules, top.matrix()
    zero = (0,) * top.size
    tables = {}

    def table(t, b):
        # for children i of t and j of b: the vectors P1(t, i) - P2(b, j),
        # their filter images and their filter margins
        if (t, b) not in tables:
            p1, p2 = _prefix_counts(rules1[t], zero), _prefix_counts(rules2[b], zero)
            vec = [[tuple(map(sub, u, v)) for v in p2] for u in p1]
            image = [[sum(map(mul, x, widths.scaled)) for x in row] for row in vec]
            margin = [[sum(map(abs, x)) for x in row] for row in vec]
            tables[t, b] = (vec, image, margin)
        return tables[t, b]

    def expand(t, b, d):
        # the children of state (t, b, d) in the order the sweep meets them,
        # and its read-off values
        kids1, kids2 = rules1[t], rules2[b]
        if t == b and d == zero and kids1 == kids2:
            return tuple((x, x, zero) for x in kids1), (0,)
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
        children, values = [], []
        while i < p and j < q:
            s = sign(i + 1, j + 1)
            children.append((kids1[i], kids2[j], tuple(map(add, base, vec[i][j]))))
            if s <= 0:
                values.append(base[tracked] + vec[i + 1][j + (s == 0)][tracked])
                i += 1
            if s >= 0:
                j += 1
        return tuple(children), tuple(values)

    # a state's children depend only on the state, and states recur from
    # round to round: expand each once per trace.  Every entry is a state
    # some round counted, so ``max_states`` bounds this too.  A repeated
    # expansion would not refine the field either: its exact signs were
    # decided once, and a narrower root interval decides them again.
    if expanded is None:
        expanded = {}
    injective = widths.field.degree == top.size

    def closes(states):
        # whether ``seen`` holds each placed overlap of a round; else it takes them
        if seen is None:
            return False
        placed = states if injective else {(t, b, widths.value(d)) for t, b, d in states}
        if placed <= seen:
            return True
        seen.update(placed)
        return False

    states, spent = {(seed, seed, zero)}, 0   # spent: states of rounds 1 .. rnd
    if closes(states):
        return
    for rnd in range(1, k + 1):
        children, values = set(), set()
        for state in states:
            entry = expanded.get(state)
            if entry is None:
                entry = expanded[state] = expand(*state)
            children.update(entry[0])
            values.update(entry[1])
        spent += len(children)
        if spent > max_states:
            raise ResourceCapError(
                f"boundary trace exceeded the {max_states}-state budget at round {rnd}")
        states = children
        if closes(states):
            return
        yield tuple(sorted(values))


def _check_pair(top, bottom):
    """The rows of a boundary must span the same exact interval each round."""
    if top.alphabet != bottom.alphabet:
        raise HypothesisError("boundary trace needs a common alphabet")
    if top.length_vector() != bottom.length_vector():
        raise HypothesisError("boundary trace needs equal per-letter image lengths")
    if top.matrix() != bottom.matrix():
        raise HypothesisError("boundary trace needs equal abelianizations")


def boundary_trace(top, bottom, seed, k, modulus=None, tracked_letter=0,
                   max_states=DEFAULT_MAX_STATES):
    """Trace k substitution rounds of the two rows touching a boundary,
    starting from one aligned seed letter.

    Requires equal alphabets and equal abelianizations (the rows must span
    the same exact interval each round).  ``modulus`` is the letter index
    of the tile width that offsets are reduced by; it defaults to the widest
    tile.  ``max_states`` caps the overlap states of all rounds together,
    which is what a trace pays for; rows are never built."""
    if k < 1:
        raise ValidationError("need at least one round")
    _check_pair(top, bottom)
    seed = top.word([seed])[0] if not isinstance(seed, int) else seed
    widths = top.tile_lengths()
    scan = _ScanWidths(widths)
    # offsets m*w_t - q*w_mod as integer vectors m*V_t - q*V_mod over one den
    field, vectors, den = scan.field, scan.vectors, scan.den
    if modulus is None:
        # the widest tile, the first of equal ones
        modulus = 0
        for i in range(1, len(vectors)):
            if field.sign(tuple(map(sub, vectors[i], vectors[modulus]))) > 0:
                modulus = i
    if field.sign(vectors[modulus]) <= 0:
        raise ValidationError("offset modulus must be positive")
    mod_vector = vectors[modulus]
    unit = vectors[tracked_letter]
    expanded = {}
    rounds = _discrepancy_rounds(top, bottom, seed, k, scan, tracked_letter, max_states,
                                 expanded=expanded)
    # the same discrepancy values recur round after round: reduce each once,
    # and keep its enclosure at the refinement it was reduced at
    reduced = {}
    steps = []
    for rnd, ms in enumerate(rounds, 1):
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
                top=Row(top, seed, rnd),
                bottom=Row(bottom, seed, rnd),
                offset_vectors=tuple(offsets),
                discrepancy_values=ms,
                field=field,
                den=den,
            )
        )
    return BoundaryTrace(
        top_sub=top,
        bottom_sub=bottom,
        seed=seed,
        tracked_letter=tracked_letter,
        widths=widths,
        modulus=modulus,
        steps=tuple(steps),
        expanded=expanded,
    )


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
    gap between them; also the per-round distinct counts."""
    if not trace.steps:
        raise ValidationError("empty trace")
    field, den = trace.steps[0].field, trace.steps[0].den
    # equal vectors over one den are equal values
    distinct = list(dict.fromkeys(v for s in trace.steps for v in s.offset_vectors))
    distinct = [distinct[i] for i in order_vectors(field, den, distinct)]
    return OffsetStats(
        distinct_count=len(distinct),
        min_gap_vector=min_gap_vector(field, den, distinct),
        per_round_counts=tuple(len(s.offset_vectors) for s in trace.steps),
        field=field,
        den=den,
    )


@dataclass(frozen=True)
class OffsetStats:
    distinct_count: int
    min_gap_vector: object     # integer vector over den, or None when < 2 offsets
    per_round_counts: tuple
    field: object
    den: int


class BoundaryKind(Enum):
    RIGID = "Rigid"
    REGULAR_FAULT = "RegularFault"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class BoundaryClass:
    kind: BoundaryKind
    spectral_kind: SpectralKind | None   # None for Rigid, decided without it

    def __str__(self):
        return self.kind.value


def classify_boundary(top, bottom, cap=DEFAULT_ROUNDS, max_states=DEFAULT_MAX_STATES, *,
                      spectral=None, expanded=None):
    """Classify the boundary between rows of ``top`` and ``bottom`` by
    walking its overlap states for at most ``cap`` rounds from each aligned
    seed (x, x, 0), seed 0 first; ``max_states`` bounds each walk as in
    ``boundary_trace``.

    A walk closes at the first round that adds no placed overlap
    (t, b, left(t) - left(b)) to those of its earlier rounds.  The children
    of a state and their placed overlaps depend on D only through <w, D>,
    so the placed overlaps of a closed walk are closed under children: its
    rows meet in finitely many ways.  Rigid when every walk closes, which
    reads no label.  The first walk that does not close goes to
    ``classify_rounds``, with ``spectral`` a callable that returns the
    SpectralKind of the top matrix, by default the top substitution's.
    ``expanded`` is as in ``_discrepancy_rounds``, for tracked letter 0,
    such as ``BoundaryTrace.expanded``.  The widths get a field of their
    own, so this pass refines no field that a report prints."""
    if cap < 4:
        raise ValidationError("classification needs cap >= 4")
    _check_pair(top, bottom)
    scan = _ScanWidths(top.tile_lengths())
    expanded = {} if expanded is None else expanded
    for seed in range(top.size):
        rounds = tuple(_discrepancy_rounds(top, bottom, seed, cap, scan, 0, max_states,
                                           expanded=expanded, seen=set()))
        if len(rounds) == cap:
            return classify_rounds(rounds, spectral or (lambda: top.spectral_class().kind))
    return BoundaryClass(kind=BoundaryKind.RIGID, spectral_kind=None)


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
        return BoundaryClass(kind=BoundaryKind.REGULAR_FAULT, spectral_kind=kind)
    return BoundaryClass(kind=BoundaryKind.UNDETERMINED, spectral_kind=kind)
