"""Fault-line dynamics along a horizontal boundary.

Two substitutions act on the rows touching the boundary; iterating from an
aligned seed letter produces a pair of words per round.  The discrepancy at a
prefix is the difference in tracked-letter counts between the two rows up to
the same exact horizontal position (positions live in Q(lambda), and every
comparison is exact).  Offsets are the induced shears lambda*m reduced modulo
a tile width.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, cmp_to_key

from .algebra import clear_denominators, integer_vectors, mod_reduce, root_interval
from .errors import HypothesisError, ResourceCapError, ValidationError
from .substitution import DEFAULT_MAX_WORD_LEN, SpectralKind, spectral_classify

DEFAULT_ROUNDS = 12

_SCALE = 1 << 96   # fixed-point scale of the prefix scan's filter


@dataclass(frozen=True)
class BoundaryStep:
    round: int
    top: tuple
    bottom: tuple
    prefix_discrepancies: tuple   # per top-tile prefix, exact position cut
    offsets: tuple                # distinct shear offsets this round, sorted ascending
    discrepancy_values: tuple     # distinct m values this round, sorted

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
    widths: tuple                 # tile widths, AlgebraicNumbers
    modulus: object               # AlgebraicNumber, the offset modulus
    steps: tuple

    def max_abs_by_round(self):
        return tuple(s.max_abs_discrepancy for s in self.steps)


class _ScanWidths:
    """Tile widths as the prefix scan reads them: integer coefficient vectors
    over one denominator, and their image scaled by 2^96, built on first use
    and then kept for the whole trace."""

    def __init__(self, widths):
        self.field = widths[0].field
        self.vectors, self.den = integer_vectors(widths)

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


def _prefix_discrepancies(top, bottom, widths, tracked):
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


def boundary_trace(top, bottom, seed, k, modulus=None, tracked_letter=0,
                   max_word_len=DEFAULT_MAX_WORD_LEN):
    """Trace k substitution rounds of the two rows touching a boundary,
    starting from one aligned seed letter.

    Requires equal alphabets and equal abelianizations (the rows must span
    the same exact interval each round).  The offset modulus defaults to the
    widest tile."""
    if k < 1:
        raise ValidationError("need at least one round")
    if top.alphabet != bottom.alphabet:
        raise HypothesisError("boundary trace needs a common alphabet")
    if top.length_vector() != bottom.length_vector():
        raise HypothesisError("boundary trace needs equal per-letter image lengths")
    if top.matrix() != bottom.matrix():
        raise HypothesisError("boundary trace needs equal abelianizations")
    seed = top.word([seed])[0] if not isinstance(seed, int) else seed
    widths = top.tile_lengths()
    if modulus is None:
        modulus = max(widths)
    elif isinstance(modulus, int):
        modulus = widths[modulus]
    if modulus.sign() <= 0:
        raise ValidationError("offset modulus must be positive")

    unit_shift = widths[tracked_letter]
    scan_widths = _ScanWidths(widths)
    # the same discrepancy values recur round after round: reduce each once
    reduced = {}
    steps = []
    wt = wb = (seed,)
    for rnd in range(1, k + 1):
        wt = top.apply(wt)
        wb = bottom.apply(wb)
        if len(wt) > max_word_len:
            raise ResourceCapError(f"boundary trace exceeded the {max_word_len}-letter word cap")
        ds = _prefix_discrepancies(wt, wb, scan_widths, tracked_letter)
        ms = tuple(sorted(set(ds)))
        for m in ms:
            if m not in reduced:
                o = mod_reduce(unit_shift * m, modulus)
                reduced[m] = (o, _enclosure(o))
        offsets = sort_exact([reduced[m][0] for m in ms], [reduced[m][1] for m in ms])
        steps.append(
            BoundaryStep(
                round=rnd,
                top=wt,
                bottom=wb,
                prefix_discrepancies=ds,
                offsets=offsets,
                discrepancy_values=ms,
            )
        )
    return BoundaryTrace(
        top_sub=top,
        bottom_sub=bottom,
        seed=seed,
        tracked_letter=tracked_letter,
        widths=tuple(widths),
        modulus=modulus,
        steps=tuple(steps),
    )


def _enclosure(x):
    """(lo, hi) around x at its field's current refinement; never refines."""
    a, b, e = x.field.enclose(*clear_denominators(x.coeffs))
    return (Fraction(a, e), Fraction(b, e))


def sort_exact(values, enclosures=None):
    """Algebraic numbers sorted ascending, equal values in input order, as
    ``sorted`` would give.

    Values are ordered by certified enclosures; exact Q(lambda) comparisons
    run only inside groups of overlapping enclosures.  ``enclosures`` may
    supply an enclosure per value (each at any refinement)."""
    if enclosures is None:
        enclosures = [_enclosure(x) for x in values]
    order = sorted(range(len(values)), key=lambda i: enclosures[i][0])

    def exact(i, j):
        return values[i].compare(values[j]) or (i > j) - (i < j)

    out = []
    group = []
    group_hi = None
    for i in order:
        lo, hi = enclosures[i]
        if group and lo > group_hi:
            # every value in the group lies below this one
            group.sort(key=cmp_to_key(exact))
            out.extend(values[j] for j in group)
            group = []
        if not group or hi > group_hi:
            group_hi = hi
        group.append(i)
    group.sort(key=cmp_to_key(exact))
    out.extend(values[j] for j in group)
    return tuple(out)


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
    # equality of algebraic numbers is exact (coefficient-wise)
    distinct = sort_exact(list(dict.fromkeys(o for s in trace.steps for o in s.offsets)))
    gaps = [b - a for a, b in zip(distinct, distinct[1:])]
    min_gap = sort_exact(gaps)[0] if gaps else None
    per_round = tuple(len(s.offsets) for s in trace.steps)
    return OffsetStats(
        distinct_count=len(distinct),
        min_gap=min_gap,
        per_round_counts=per_round,
    )


@dataclass(frozen=True)
class OffsetStats:
    distinct_count: int
    min_gap: object            # AlgebraicNumber or None when < 2 offsets
    per_round_counts: tuple


class BoundaryKind(Enum):
    RIGID = "Rigid"
    REGULAR_FAULT = "RegularFault"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class BoundaryClass:
    kind: BoundaryKind
    growth_ratio: tuple          # rational interval
    max_discrepancy_by_round: tuple
    offsets_by_round: tuple      # distinct counts per round
    spectral_kind: SpectralKind

    def __str__(self):
        return self.kind.value


def classify_boundary(top, bottom, cap=DEFAULT_ROUNDS, modulus=None,
                      max_word_len=DEFAULT_MAX_WORD_LEN):
    """Rigid when the offsets stay a single constant through the cap;
    RegularFault when the horizontal expansion is NonPisotExpanding and the
    max discrepancy strictly increases across the last three doubling
    checkpoints; otherwise Undetermined (deliberately: for more than two
    letters the dichotomy is open)."""
    if cap < 4:
        raise ValidationError("classification needs cap >= 4")
    return classify_trace(boundary_trace(top, bottom, seed=0, k=cap, modulus=modulus,
                                         max_word_len=max_word_len))


def classify_trace(trace):
    """classify_boundary on an existing trace, which must start from seed
    letter 0; the cap is its number of rounds."""
    if trace.seed != 0:
        raise ValidationError("classification is defined on the trace from seed letter 0")
    cap = len(trace.steps)
    maxes = trace.max_abs_by_round()
    growth = discrepancy_growth(trace)
    per_round = tuple(len(s.offsets) for s in trace.steps)
    spectral = spectral_classify(trace.top_sub.matrix()).kind

    all_offsets = set()
    for s in trace.steps:
        all_offsets.update(s.offsets)
    if len(all_offsets) <= 1:
        kind = BoundaryKind.RIGID
    else:
        c = cap // 4
        checkpoints = (maxes[c - 1], maxes[2 * c - 1], maxes[4 * c - 1])
        if (spectral is SpectralKind.NON_PISOT_EXPANDING
                and checkpoints[0] < checkpoints[1] < checkpoints[2]):
            kind = BoundaryKind.REGULAR_FAULT
        else:
            kind = BoundaryKind.UNDETERMINED
    return BoundaryClass(
        kind=kind,
        growth_ratio=growth,
        max_discrepancy_by_round=maxes,
        offsets_by_round=per_round,
        spectral_kind=spectral,
    )
