"""Direct-product-variation substitutions and the cohomology of their tiling
spaces.

A DPV is a vertical substitution rho together with a family of horizontal
substitutions sigma_1..sigma_N on a shared alphabet, one chosen per row of
each vertical image.  Boundaries between infinite-order vertical supertiles
sit at vertices of the Anderson-Putnam complex of rho; each eventual vertex
either generates a fault line or is rigid, and the count n of fault vertices
parameterizes H^2 and H^3:

    H^0 = Z,  H^1 = nu,  H^2 = mu (x) (nu (+) Z^(n-1)),  H^3 = (mu (x) mu)^n,

with mu = H^1 of the horizontal tiling space and nu = H^1 of the vertical
one, both computed as direct limits over the AP complexes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .abelian import (
    DirectLimitGroup,
    GroupExpr,
    direct_limit,
    direct_sum,
    invariants,
    mat,
    normalize,
    recognize,
    tensor,
    transpose,
)
from .ap_complex import collar, graph_h1
from .errors import ValidationError
from .fault import DEFAULT_MAX_STATES, DEFAULT_ROUNDS, BoundaryKind, OverlapGraph, classify_boundary
from .substitution import Substitution, shift_conjugacy


class _Once(dict):
    """key -> compute(key), computed on the first lookup of the key."""

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


def limits_table():
    """matrix -> (direct_limit(matrix), recognize of that limit), each
    distinct matrix limited and recognized once."""

    def limit(a):
        g = direct_limit(a)
        return g, recognize(g)

    return _Once(limit)


@dataclass(frozen=True)
class DPVSubstitution:
    """Vertical substitution, horizontal family, and the per-row assignment
    of horizontal substitutions.

    row_sigma maps each vertical letter v to a tuple of indices into the
    horizontal family, one per row of rho(v), ordered bottom to top.  The
    2-d tile set is the full product {(v, h)}; the image array of tile (v, h)
    has rows ((rho(v)[j], c) for c in sigma_{row_sigma[v][j]}(h))."""

    vertical: Substitution
    horizontal: tuple
    row_sigma: tuple  # per vertical letter id: tuple of sigma indices

    def __post_init__(self):
        rho = self.vertical
        if not self.horizontal:
            raise ValidationError("need at least one horizontal substitution")
        base = self.horizontal[0]
        for s in self.horizontal[1:]:
            if s.alphabet != base.alphabet:
                raise ValidationError("horizontal substitutions must share an alphabet")
        if len(self.row_sigma) != rho.size:
            raise ValidationError("row_sigma must cover the vertical alphabet")
        for v, ks in enumerate(self.row_sigma):
            if len(ks) != len(rho.rules[v]):
                raise ValidationError(
                    f"row_sigma for {rho.letters[v].name!r} must list one sigma per row "
                    f"of its image ({len(rho.rules[v])} rows)"
                )
            for k in ks:
                if not 0 <= k < len(self.horizontal):
                    raise ValidationError(f"sigma index {k} out of range")

    @cached_property
    def vertical_complex(self):
        """Anderson-Putnam complex of the vertical substitution, built once:
        nu, the essential vertices, the cochain limits and the reports all
        read this one."""
        return collar(self.vertical)[1]

    # Every direct limit of the document is computed and recognized once:
    # the table is keyed by matrix, and the stages that meet the same one
    # (mu, nu and the cochain limits, and a second report) read one entry.

    @cached_property
    def limits(self):
        """``limits_table`` of this document."""
        return limits_table()

    @cached_property
    def vertical_heights(self):
        """(tile heights, expansion factor) of the vertical substitution, all
        integers, computed once: patch placement and the overlay both read
        it.  The heights are rational exactly when the Perron field has
        degree 1; then ``tile_lengths`` gives the primitive integer vector,
        and the root of x + poly[0] is the expansion factor."""
        lengths = self.vertical.tile_lengths()
        if lengths.field.degree != 1:
            raise ValidationError(
                "rendering needs rational vertical tile heights "
                "(irrational vertical expansion is unsupported)"
            )
        return tuple(v[0] for v in lengths.vectors), -lengths.field.poly[0]

    def member_log(self):
        """``validate_dpv``'s entries comparing each horizontal member with
        the first: equal per-letter image lengths, then equal abelianization
        (so one stretching factor, and rows of one width)."""
        base, out = self.horizontal[0], []
        for i, s in enumerate(self.horizontal[1:], start=1):
            if s.length_vector() != base.length_vector():
                out.append(_log("error", f"lengths-0-{i}", "per-letter image lengths differ"))
            elif s.matrix() != base.matrix():
                out.append(_log("error", f"abelianization-0-{i}", "abelianizations differ"))
            else:
                out.append(_log("ok", f"abelianization-0-{i}",
                                "equal image lengths and abelianization (same stretching factor)"))
        return out

    def check_members(self):
        """Raise ``validate_dpv``'s ValidationError for the errors of
        ``member_log``, if any."""
        errors = [e for e in self.member_log() if e["level"] == "error"]
        if errors:
            raise _hypothesis_error([], errors)

    # -- tiles ---------------------------------------------------------------

    @property
    def n_tiles(self):
        return self.vertical.size * self.horizontal[0].size

    def tile_index(self, v, h):
        return v * self.horizontal[0].size + h

    def image_array(self, v, h):
        """Rows of the image of tile (v, h), bottom to top; each row is a
        tuple of (vertical letter, horizontal letter) pairs."""
        rows = []
        for j, v2 in enumerate(self.vertical.rules[v]):
            sigma = self.horizontal[self.row_sigma[v][j]]
            rows.append(tuple((v2, h2) for h2 in sigma.rules[h]))
        return tuple(rows)

    def count_matrix(self):
        """2-d abelianization: entry (t', t) counts tile t' in the image
        array of tile t."""
        n = self.n_tiles
        m = [[0] * n for _ in range(n)]
        for v in range(self.vertical.size):
            for h in range(self.horizontal[0].size):
                t = self.tile_index(v, h)
                for row in self.image_array(v, h):
                    for (v2, h2) in row:
                        m[self.tile_index(v2, h2)][t] += 1
        return mat(m)


# ---------------------------------------------------------------------------
# hypothesis checking
# ---------------------------------------------------------------------------

def _log(level, check, detail):
    return {"level": level, "check": check, "detail": detail}


def validate_dpv(d):
    """Check the standing hypotheses: primitivity of the vertical and of
    every horizontal substitution, a vertical that expands (some image has
    two letters or more), equal per-letter image lengths, equal
    abelianizations (hence one stretching factor), and pairwise shift
    conjugacy as a same-tiling-space certificate (a warning when the search
    fails; the hypothesis stays unverified rather than refuted)."""
    log = []
    errors = []
    rho = d.vertical
    if rho.is_primitive():
        log.append(_log("ok", "vertical-primitive", "vertical substitution is primitive"))
    else:
        errors.append(_log("error", "vertical-primitive", "vertical substitution is not primitive"))
    if all(len(r) == 1 for r in rho.rules):
        errors.append(_log("error", "vertical-expanding",
                           "vertical substitution does not expand: every image is one letter"))
    for i, s in enumerate(d.horizontal):
        if s.is_primitive():
            log.append(_log("ok", f"horizontal-{i}-primitive", "primitive"))
        else:
            errors.append(_log("error", f"horizontal-{i}-primitive", "not primitive"))
    for entry in d.member_log():
        (errors if entry["level"] == "error" else log).append(entry)
    for i in range(len(d.horizontal)):
        for j in range(i + 1, len(d.horizontal)):
            if d.horizontal[i].length_vector() != d.horizontal[j].length_vector():
                continue  # already a hard error above
            u = shift_conjugacy(d.horizontal[i], d.horizontal[j])
            if u is not None:
                log.append(_log("ok", f"conjugacy-{i}-{j}",
                                f"shift conjugacy by u of length {len(u)}: same tiling space"))
            else:
                log.append(_log("warn", f"conjugacy-{i}-{j}",
                                "no shift-conjugacy certificate found; same-tiling-space "
                                "hypothesis is unverified"))
    if errors:
        raise _hypothesis_error(log, errors)
    return tuple(log)


def _hypothesis_error(log, errors):
    """The ValidationError naming each failed check, with the whole log."""
    err = ValidationError("; ".join(e["check"] + ": " + e["detail"] for e in errors))
    err.hypothesis_log = tuple(log + errors)
    return err


# ---------------------------------------------------------------------------
# essential vertices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VertexBoundary:
    vertex: int
    lower: str               # collared letter below the boundary
    upper: str               # collared letter above
    lower_core: str          # underlying letters, for display
    upper_core: str
    cycle_length: int
    top_sigmas: tuple        # sigma indices applied above, one period
    bottom_sigmas: tuple     # sigma indices applied below, one period
    kind: BoundaryKind


@dataclass(frozen=True)
class EssentialVertexReport:
    vertices: tuple            # VertexBoundary per eventual vertex
    eventual: tuple            # eventual vertex ids
    n_fault: int
    n_undetermined: int

    @property
    def n(self):
        """Definite count of fault vertices, or a (lo, hi) range when some
        boundary is undetermined."""
        if self.n_undetermined == 0:
            return self.n_fault
        return (self.n_fault, self.n_fault + self.n_undetermined)


def _eventual_vertices(cx):
    current = set(range(cx.n_vertices))
    for _ in range(cx.n_vertices):
        current = {cx.vertex_map[v] for v in current}
    return tuple(sorted(current))


def _junction_cycle(cx, e, f):
    """Iterate (e, f) -> (last of image of e, first of image of f) to its
    eventual cycle; returns the cycle as a list of pairs."""
    seen = {}
    seq = []
    pair = (e, f)
    while pair not in seen:
        seen[pair] = len(seq)
        seq.append(pair)
        pair = (cx.edge_map[pair[0]][-1], cx.edge_map[pair[1]][0])
    return seq[seen[pair]:]


def _compose(family, indices):
    comp = family[indices[0]]
    for k in indices[1:]:
        comp = family[k].after(comp)
    return comp


def essential_vertices(d, cap=DEFAULT_ROUNDS, max_states=DEFAULT_MAX_STATES):
    """Classify the boundary at every eventual vertex of the vertical AP
    complex.

    The junction pair at a vertex evolves with an eventually periodic orbit;
    composing the per-row horizontal substitutions over one period gives the
    effective top and bottom substitutions at that boundary, which
    classify_boundary classifies.  A cycle of length L is traced for
    max(4, ceil(cap / L)) composite rounds and at most ``max_states``
    overlap states in all (ResourceCapError past that).  Each distinct
    (top, bottom) pair is classified once."""
    rho = d.vertical
    cx = d.vertical_complex
    eventual = _eventual_vertices(cx)
    entries = []
    # composite boundaries repeat across vertices: classify each (top,
    # bottom) pair once
    classes = {}
    for v in eventual:
        junctions = cx.junctions_at(v)
        assert junctions, "an eventual vertex must carry at least one junction"
        cycles = []
        for (e, f) in junctions:
            cycle = _junction_cycle(cx, e, f)
            # rotate the cycle to start at this vertex
            starts = [i for i, (ce, _) in enumerate(cycle)
                      if cx.vertex_of((ce, "end")) == v]
            assert starts, "junction cycle must revisit its vertex"
            i0 = starts[0]
            cycles.append(tuple(cycle[i0:] + cycle[:i0]))
        distinct = sorted(set(cycles))
        kinds = set()
        chosen = None
        for cycle in distinct:
            bottom_idx = []
            top_idx = []
            for (ce, cf) in cycle:
                x = cx.edges[ce].core
                y = cx.edges[cf].core
                bottom_idx.append(d.row_sigma[x][len(rho.rules[x]) - 1])
                top_idx.append(d.row_sigma[y][0])
            pair = (tuple(top_idx), tuple(bottom_idx))
            if pair not in classes:
                top_comp = _compose(d.horizontal, top_idx)
                bottom_comp = _compose(d.horizontal, bottom_idx)
                # one composite round is |cycle| substitution steps; keep the
                # effective depth near the configured cap
                rounds = max(4, -(-cap // len(cycle)))
                classes[pair] = classify_boundary(
                    OverlapGraph(top_comp, bottom_comp, max_states), rounds)
            kinds.add(classes[pair])
            if chosen is None:
                chosen = (cycle, *pair)
        cycle, top_idx, bottom_idx = chosen
        kind = classes[top_idx, bottom_idx] if len(kinds) == 1 else BoundaryKind.UNDETERMINED
        e0, f0 = cycle[0]
        entries.append(
            VertexBoundary(
                vertex=v,
                lower=cx.edge_names[e0],
                upper=cx.edge_names[f0],
                lower_core=rho.letters[cx.edges[e0].core].name,
                upper_core=rho.letters[cx.edges[f0].core].name,
                cycle_length=len(cycle),
                top_sigmas=top_idx,
                bottom_sigmas=bottom_idx,
                kind=kind,
            )
        )
    n_fault = sum(1 for en in entries if en.kind is BoundaryKind.REGULAR_FAULT)
    n_und = sum(1 for en in entries if en.kind is BoundaryKind.UNDETERMINED)
    return EssentialVertexReport(
        vertices=tuple(entries),
        eventual=eventual,
        n_fault=n_fault,
        n_undetermined=n_und,
    )


# ---------------------------------------------------------------------------
# cochain limits and the H^1 groups
# ---------------------------------------------------------------------------

def h1_limit(cx, limits=None):
    """H^1 of the substitution tiling space of ``cx.base`` as a direct limit
    over its AP complex ``cx``, cross-checked against the direct limit of the
    plain abelianization transpose.  When both recognize to the same group
    the abelianization presentation is reported (it is the canonical small
    one); otherwise the AP-complex value wins.  ``limits`` is the caller's
    ``limits_table``, by default a new one, so that equal matrices are
    limited once either way.

    Returns (expr, limit group, hypothesis note, graph_h1 data)."""
    limits = limits_table() if limits is None else limits
    data = graph_h1(cx)
    dl_ap, expr_ap = limits[data.induced_h1]
    dl_ab, expr_ab = limits[transpose(cx.base.matrix())]
    agree = (
        expr_ap == expr_ab
        and dl_ap.r == dl_ab.r
        and dl_ap.charpoly_prime == dl_ab.charpoly_prime
        and abs(dl_ap.det_prime) == abs(dl_ab.det_prime)
    )
    if agree:
        note = _log("ok", "h1-presentation",
                    "AP-complex and abelianization limits agree; reporting the "
                    "abelianization presentation")
        return expr_ab, dl_ab, note, data
    note = _log("warn", "h1-presentation",
                f"AP-complex limit {expr_ap.canonical()} differs from the plain "
                f"abelianization limit {expr_ab.canonical()}; using the AP value")
    return expr_ap, dl_ap, note, data


def compute_mu(d):
    """mu = H^1 of the horizontal tiling space (first family member)."""
    return h1_limit(collar(d.horizontal[0])[1], d.limits)[:3]


def compute_nu(d):
    """nu = H^1 of the vertical tiling space."""
    return h1_limit(d.vertical_complex, d.limits)[:3]


def cochain_limits(d):
    """Direct limits of the 1-cochains (edge-matrix transpose) and 0-cochains
    (vertex pullback) on the vertical AP complex; ``d.limits`` holds their
    recognized groups too."""
    cx = d.vertical_complex
    d1 = d.limits[transpose(cx.edge_matrix)][0]
    d0 = d.limits[cx.vertex_pullback_matrix()][0]
    return d0, d1


# ---------------------------------------------------------------------------
# the cohomology report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CohomologyReport:
    h0: GroupExpr
    h1: Optional[GroupExpr]
    h2: Optional[GroupExpr]
    h3: Optional[GroupExpr]
    hk_above_3: GroupExpr
    mu: GroupExpr
    nu: GroupExpr
    mu_group: DirectLimitGroup
    nu_group: DirectLimitGroup
    d0: DirectLimitGroup
    d1: DirectLimitGroup
    d0_recognized: GroupExpr
    d1_recognized: GroupExpr
    essential: EssentialVertexReport
    hypothesis_log: tuple
    variants: tuple = field(default=())   # ((n, h2, h3), ...) when n is a range

    @property
    def determinate(self):
        return self.h2 is not None


def _assemble(mu, nu, mu_mu, n):
    """(H^2, H^3) for n fault vertices; ``mu_mu`` is tensor(mu, mu), which
    every n shares."""
    h2 = tensor(mu, direct_sum(nu, GroupExpr.zpow(n - 1)))
    h3 = GroupExpr(kind="power", base=mu_mu, power=n)
    return h2, normalize(h3)


def cohomology(d, cap=DEFAULT_ROUNDS, max_states=DEFAULT_MAX_STATES):
    """Full pipeline: hypotheses, essential vertices, cochain limits, and the
    assembled H^0..H^3.  ``cap`` and ``max_states`` bound the boundary traces
    as in essential_vertices.

    When some boundary classification is undetermined the report is partial:
    H^2/H^3 are None and ``variants`` carries the formula for every n >= 1
    in the range.  When every boundary is rigid (n = 0) the formulas do not
    apply and H^1..H^3 are None; so H^1 is None too when the range starts
    at 0."""
    log = list(validate_dpv(d))
    mu, mu_dl, mu_note = compute_mu(d)
    nu, nu_dl, nu_note = compute_nu(d)
    log.extend((mu_note, nu_note))
    ev = essential_vertices(d, cap=cap, max_states=max_states)
    d0, d1 = cochain_limits(d)
    d0_rec, d1_rec = d.limits[d0.a][1], d.limits[d1.a][1]

    # exact rank identity: 1-cochain limit vs nu and the eventual vertices
    lhs = d1.r
    rhs = nu_dl.r + len(ev.eventual) - 1
    assert lhs == rhs, f"cochain rank identity failed: {lhs} != {rhs}"
    log.append(_log("ok", "cochain-rank-identity",
                    f"rank(d1) = rank(nu) + eventual - 1 = {lhs}"))

    n = ev.n
    h1, h2, h3, variants = nu, None, None, ()
    if isinstance(n, tuple):
        detail = f"{ev.n_fault} fault vertices plus {ev.n_undetermined} undetermined"
        log.append(_log("warn", "essential-vertices", detail))
        mu_mu = tensor(mu, mu)
        variants = tuple((nn, *_assemble(mu, nu, mu_mu, nn))
                         for nn in range(max(n[0], 1), n[1] + 1))
        if n[0] == 0:
            # n = 0 is one of the counts it stands for, and there H^1 = nu
            # does not hold either
            h1 = None
    elif n == 0:
        log.append(_log("warn", "essential-vertices",
                        "no fault vertices: the space has finite local complexity and "
                        "these formulas do not apply"))
        h1 = None
    else:
        h2, h3 = _assemble(mu, nu, tensor(mu, mu), n)
        if ev.n_fault == len(ev.eventual):
            want = direct_sum(nu, GroupExpr.zpow(n - 1))
            if invariants(d1_rec) == invariants(want):
                log.append(_log("ok", "theorem-regime-crosscheck",
                                f"d1 recognizes as nu (+) Z^{n - 1} at invariant level"))
            else:
                log.append(_log("warn", "theorem-regime-crosscheck",
                                f"d1 = {d1_rec.canonical()} vs nu (+) Z^(n-1) = "
                                f"{want.canonical()}: invariant mismatch"))
    return CohomologyReport(
        h0=GroupExpr.z(), h1=h1, h2=h2, h3=h3,
        hk_above_3=GroupExpr.trivial(),
        mu=mu, nu=nu, mu_group=mu_dl, nu_group=nu_dl,
        d0=d0, d1=d1, d0_recognized=d0_rec, d1_recognized=d1_rec,
        essential=ev, hypothesis_log=tuple(log), variants=variants,
    )
