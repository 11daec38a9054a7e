"""DPV validation, essential vertices, cochain limits, cohomology reports."""

import random
from collections import Counter

import pytest
from hypothesis import event, given, settings, strategies as st

from faultline import abelian, dpv
from faultline.abelian import det, recognize
from faultline.documents import bundled_document
from faultline.dpv import (
    DPVSubstitution,
    cochain_limits,
    cohomology,
    compute_mu,
    compute_nu,
    essential_vertices,
    validate_dpv,
)
from faultline.errors import ResourceCapError, ValidationError
from faultline.fault import BoundaryKind
from faultline.substitution import Substitution

from conftest import random_substitution, relabelled, rng_for, shuffled_twin

MU = "Z[1/L:x^2-x-3]"


@pytest.fixture
def doubling_swap():
    return bundled_document("doubling_swap").dpv


@pytest.fixture
def pd_dpv():
    return bundled_document("period_doubling").dpv


@pytest.fixture
def thirds():
    return bundled_document("row_thirds").dpv


def test_image_arrays(doubling_swap, pd_dpv):
    # the checkerboard swap: bottom row b a, top row a b
    arr = doubling_swap.image_array(0, 0)
    assert arr == (((0, 1), (0, 0)), ((0, 0), (0, 1)))
    arr_b = doubling_swap.image_array(0, 1)
    assert arr_b == (((0, 0), (0, 0), (0, 0)), ((0, 0), (0, 0), (0, 0)))
    # four-letter variant: vertical letters alternate per the vertical rule
    arr_pd = pd_dpv.image_array(0, 0)
    assert [row[0][0] for row in arr_pd] == [0, 1]
    assert doubling_swap.count_matrix() == ((2, 6), (2, 0))


def test_validate_passes_bundled(doubling_swap, pd_dpv, thirds):
    for d in (doubling_swap, pd_dpv, thirds):
        log = validate_dpv(d)
        assert any(e["check"].startswith("conjugacy") and e["level"] == "ok" for e in log)
        assert all(e["level"] != "error" for e in log)


def test_validate_single_sigma_trivial():
    s1 = Substitution(["a", "b"], {"a": "ba", "b": "aaa"})
    rho = Substitution(["v"], {"v": "vv"})
    d = DPVSubstitution(vertical=rho, horizontal=(s1,), row_sigma=((0, 0),))
    log = validate_dpv(d)
    assert all(e["level"] in ("ok", "warn") for e in log)


def test_validate_rejects_mismatched_abelianization():
    s1 = Substitution(["a", "b"], {"a": "ba", "b": "aaa"})
    bad = Substitution(["a", "b"], {"a": "ab", "b": "aab"})
    rho = Substitution(["v"], {"v": "vv"})
    d = DPVSubstitution(vertical=rho, horizontal=(s1, bad), row_sigma=((0, 1),))
    with pytest.raises(ValidationError):
        validate_dpv(d)


def test_validate_rejects_nonprimitive_vertical():
    s1 = Substitution(["a", "b"], {"a": "ba", "b": "aaa"})
    rho = Substitution(["u", "v"], {"u": "uu", "v": "uv"})
    d = DPVSubstitution(vertical=rho, horizontal=(s1,), row_sigma=((0, 0), (0, 0)))
    with pytest.raises(ValidationError):
        validate_dpv(d)


def test_validate_rejects_a_vertical_that_does_not_expand():
    # v -> v is primitive, but its AP complex has no junction at its vertex
    s1 = Substitution(["a", "b"], {"a": "ba", "b": "aaa"})
    rho = Substitution(["v"], {"v": "v"})
    d = DPVSubstitution(vertical=rho, horizontal=(s1,), row_sigma=((0,),))
    with pytest.raises(ValidationError, match="^vertical-expanding: "):
        validate_dpv(d)
    with pytest.raises(ValidationError, match="^vertical-expanding: "):
        cohomology(d)


def test_row_sigma_shape_checked():
    s1 = Substitution(["a", "b"], {"a": "ba", "b": "aaa"})
    rho = Substitution(["v"], {"v": "vv"})
    with pytest.raises(ValidationError):
        DPVSubstitution(vertical=rho, horizontal=(s1,), row_sigma=((0,),))


def test_essential_vertices_doubling_swap(doubling_swap):
    ev = essential_vertices(doubling_swap)
    assert len(ev.eventual) == 1
    assert ev.n == 1
    vb = ev.vertices[0]
    assert vb.kind is BoundaryKind.REGULAR_FAULT
    # above the boundary sigma1 acts, below it sigma2
    assert vb.top_sigmas == (0,)
    assert vb.bottom_sigmas == (1,)


def test_essential_vertices_period_doubling(pd_dpv):
    ev = essential_vertices(pd_dpv)
    assert len(ev.eventual) == 2
    assert ev.n == 2
    kinds = [vb.kind for vb in ev.vertices]
    assert kinds == [BoundaryKind.REGULAR_FAULT] * 2
    junctions = {(vb.lower_core, vb.upper_core) for vb in ev.vertices}
    # one boundary between two 0-rows (two betas), one between a 1-row and a
    # 0-row (alpha below, gamma above)
    assert junctions == {("0", "0"), ("1", "0")}
    assert {vb.cycle_length for vb in ev.vertices} == {2}


def test_essential_vertices_thirds(thirds):
    ev = essential_vertices(thirds)
    assert len(ev.eventual) == 3
    assert ev.n == 1
    by_kind = {}
    for vb in ev.vertices:
        by_kind.setdefault(vb.kind, []).append((vb.lower_core, vb.upper_core))
    assert by_kind[BoundaryKind.REGULAR_FAULT] == [("ga", "al")]
    assert sorted(by_kind[BoundaryKind.RIGID]) == [("al", "be"), ("be", "ga")]
    # the rigid boundaries have identical composed substitutions on both sides
    for vb in ev.vertices:
        if vb.kind is BoundaryKind.RIGID:
            assert sorted(vb.top_sigmas) == sorted(vb.bottom_sigmas)


def test_essential_vertices_classifies_each_pair_once(monkeypatch):
    # composite boundaries repeat across the boundaries of one call; each
    # distinct (top, bottom) composite pair is classified once, no spectral
    # class is asked for, and every boundary gets the kind a fresh
    # classification of its pair gives
    calls, classified = [], []
    spectral_class = Substitution.spectral_class
    monkeypatch.setattr(Substitution, "spectral_class", lambda s: calls.append(
        s.matrix()) or spectral_class(s))
    classify_boundary = dpv.classify_boundary

    def recorded(graph, *args, **kw):
        kind = classify_boundary(graph, *args, **kw)
        classified.append(((graph.top.rules, graph.bottom.rules), kind))
        return kind

    monkeypatch.setattr(dpv, "classify_boundary", recorded)
    rng = rng_for("spectral-once")
    family = (Substitution(["a", "b"], {"a": "ba", "b": "aaa"}),
              Substitution(["a", "b"], {"a": "ab", "b": "aaa"}))
    docs = [bundled_document(name).dpv for name in ("doubling_swap", "period_doubling", "row_thirds")]
    for _ in range(12):
        rho = random_substitution(rng, rng.choice((2, 3)), max_len=2)
        docs.append(DPVSubstitution(rho, family, tuple(
            tuple(rng.randrange(2) for _ in r) for r in rho.rules)))
    # six eventual vertices over three distinct composite pairs (the document
    # of the next test)
    rho = Substitution(["a", "b", "c"], {"a": "b", "b": "cc", "c": "ab"})
    docs.append(DPVSubstitution(rho, family, ((0,), (0, 0), (1, 0))))
    n_traces = []
    for d in docs:
        classified.clear()
        ev = essential_vertices(d, cap=8)
        assert len({pair for pair, _ in classified}) == len(classified)
        kinds = {kind for _, kind in classified}
        assert all(vb.kind in kinds for vb in ev.vertices)
        n_traces.append(len(classified))
    assert calls == []
    assert len(docs) == 16
    assert n_traces[1] == 1 and n_traces[-1] == 3


def test_rigid_boundaries_never_ask_for_a_spectral_class(monkeypatch):
    # Fibonacci on every row under a Fibonacci vertical: every boundary is
    # Rigid, which the integer test decides without the spectral class
    calls = []
    spectral_class = Substitution.spectral_class
    monkeypatch.setattr(Substitution, "spectral_class", lambda s: calls.append(
        s.matrix()) or spectral_class(s))
    fib = Substitution(["a", "b"], {"a": "ab", "b": "a"})
    rho = Substitution(["v", "w"], {"v": "vw", "w": "v"})
    ev = essential_vertices(DPVSubstitution(rho, (fib,), ((0, 0), (0,))))
    assert ev.vertices and all(vb.kind is BoundaryKind.RIGID for vb in ev.vertices)
    assert calls == []


def test_fast_growing_composite_boundaries_trace_under_the_default_budget():
    # six composite boundaries whose 4-round rows have 589,951,041 letters:
    # a trace pays per overlap state, so each classifies at full depth
    family = (Substitution(["a", "b"], {"a": "ba", "b": "aaa"}),
              Substitution(["a", "b"], {"a": "ab", "b": "aaa"}))
    rho = Substitution(["a", "b", "c"], {"a": "b", "b": "cc", "c": "ab"})
    d = DPVSubstitution(rho, family, ((0,), (0, 0), (1, 0)))
    ev = essential_vertices(d, cap=8)
    assert [vb.kind for vb in ev.vertices] == [BoundaryKind.REGULAR_FAULT] * 6
    # every boundary's walks run under the budget: 100 states trip at round 2,
    # before any walk escapes; under 1,000 each walk escapes before it trips,
    # and the escape decides
    with pytest.raises(ResourceCapError, match="100-state budget at round 2$"):
        essential_vertices(d, cap=8, max_states=100)
    ev = essential_vertices(d, cap=8, max_states=1000)
    assert [vb.kind for vb in ev.vertices] == [BoundaryKind.REGULAR_FAULT] * 6


def test_compute_mu_nu(doubling_swap, pd_dpv):
    mu, mu_dl, note = compute_mu(doubling_swap)
    assert mu.canonical() == MU
    assert mu_dl.r == 2
    assert mu_dl.charpoly_prime == (-3, -1, 1)
    assert mu_dl.a_prime == ((1, 1), (3, 0))
    assert note["level"] == "ok"

    nu3, _, _ = compute_nu(doubling_swap)
    assert nu3.canonical() == "Z[1/2]"
    nu4, _, _ = compute_nu(pd_dpv)
    assert nu4.canonical() == "Z[1/2] (+) Z"


def test_cochain_limits(doubling_swap, pd_dpv, thirds):
    d0, d1 = cochain_limits(doubling_swap)
    assert d1.a_prime == ((2,),)
    assert recognize(d1).canonical() == "Z[1/2]"
    assert recognize(d0).canonical() == "Z"

    d0, d1 = cochain_limits(pd_dpv)
    assert d1.a == ((0, 1, 1), (1, 0, 1), (1, 1, 0))
    assert recognize(d1).canonical() == "Z[1/2] (+) Z^2"
    assert d0.r == 2

    d0, d1 = cochain_limits(thirds)
    assert d0.r == 3  # three eventual vertices


def test_cohomology_reports(doubling_swap, pd_dpv, thirds):
    rep3 = cohomology(doubling_swap)
    assert rep3.h0.canonical() == "Z"
    assert rep3.h1.canonical() == "Z[1/2]"
    assert rep3.h2.canonical() == f"{MU} (x) Z[1/2]"
    assert rep3.h2.rank() == 2
    assert [list(r) for r in map(tuple, rep3.h2.presentation_matrix())] == [[2, 2], [6, 0]]
    assert rep3.h3.canonical() == f"{MU} (x) {MU}"
    assert rep3.h3.rank() == 4
    assert rep3.hk_above_3.canonical() == "0"

    rep4 = cohomology(pd_dpv)
    assert rep4.h1.canonical() == "Z[1/2] (+) Z"
    assert rep4.h2.canonical() == f"{MU}^2 (+) ({MU} (x) Z[1/2])"
    assert rep4.h3.canonical() == f"({MU} (x) {MU})^2"
    assert rep4.d1_recognized.canonical() == "Z[1/2] (+) Z^2"

    rep5 = cohomology(thirds)
    assert (rep5.h0, rep5.h1, rep5.h2, rep5.h3) == (rep3.h0, rep3.h1, rep3.h2, rep3.h3)
    assert rep5.mu == rep3.mu and rep5.nu == rep3.nu
    assert rep5.essential.n == 1


def test_cohomology_crosscheck_logged(pd_dpv):
    rep = cohomology(pd_dpv)
    checks = {e["check"]: e["level"] for e in rep.hypothesis_log}
    assert checks.get("theorem-regime-crosscheck") == "ok"
    assert checks.get("cochain-rank-identity") == "ok"


def test_cohomology_zero_faults_partial():
    # golden-mean pair: Pisot expansion whose overlap states close, so the
    # single eventual boundary is Rigid and n = 0: the fault formulas do not
    # apply and the report stays partial
    t1 = Substitution(["a", "b"], {"a": "ab", "b": "a"})
    t2 = Substitution(["a", "b"], {"a": "ba", "b": "a"})
    rho = Substitution(["v"], {"v": "vv"})
    d = DPVSubstitution(vertical=rho, horizontal=(t1, t2), row_sigma=((0, 1),))
    rep = cohomology(d)
    assert rep.essential.n == 0
    # H^1 = nu is a formula for n >= 1 too, so it is left out with H^2, H^3
    assert rep.h1 is None and rep.h2 is None and rep.h3 is None


def test_cohomology_undetermined_range_variants():
    # a three-letter pair whose overlap states do not close within the cap
    # and whose discrepancies do not grow, hence Undetermined, and the report
    # parameterizes H^2/H^3 by the feasible fault counts
    s1 = Substitution(["a", "b", "c"], {"a": "cb", "b": "baa", "c": "b"})
    s2 = Substitution(["a", "b", "c"], {"a": "cb", "b": "aab", "c": "b"})
    rho = Substitution(["v"], {"v": "vv"})
    d = DPVSubstitution(vertical=rho, horizontal=(s1, s2), row_sigma=((0, 1),))
    rep = cohomology(d)
    if rep.determinate:
        pytest.skip("pair classified definitively; variant path not exercised")
    assert rep.essential.n == (0, 1)
    assert rep.h2 is None and rep.h3 is None
    assert [n for (n, _, _) in rep.variants] == [1]
    _, h2, h3 = rep.variants[0]
    assert h2.rank() == rep.mu.rank() * rep.nu.rank()
    assert h3.rank() == rep.mu.rank() ** 2


def test_undetermined_range_from_zero_leaves_h1_null():
    # n = (0, 1): n = 0 is one of the counts the range stands for, and there
    # H^1 = nu does not hold, so H^1 is null as it is for n = 0; n = 1 is
    # the one variant
    s1 = Substitution(["a", "b", "c"], {"a": "cb", "b": "baa", "c": "b"})
    s2 = Substitution(["a", "b", "c"], {"a": "cb", "b": "aab", "c": "b"})
    rho = Substitution(["v"], {"v": "vv"})
    d = DPVSubstitution(vertical=rho, horizontal=(s1, s2), row_sigma=((0, 1),))
    rep = cohomology(d)
    assert rep.essential.n == (0, 1)
    assert rep.h1 is None and rep.h2 is None and rep.h3 is None
    assert [n for (n, _, _) in rep.variants] == [1]


def test_rank_identity_bundled_and_random():
    for name in ("doubling_swap", "period_doubling", "row_thirds"):
        d = bundled_document(name).dpv
        nu, nu_dl, _ = compute_nu(d)
        d0, d1 = cochain_limits(d)
        ev = essential_vertices(d)
        assert d1.r == nu_dl.r + len(ev.eventual) - 1
    rng = rng_for("rank-identity")
    from faultline.ap_complex import collar, graph_h1
    from faultline.abelian import direct_limit, transpose

    for _ in range(8):
        rho = random_substitution(rng, rng.choice((2, 3, 4)))
        _, cx = collar(rho)
        data = graph_h1(cx)
        nu_dl = direct_limit(data.induced_h1)
        d1 = direct_limit(transpose(cx.edge_matrix))
        current = set(range(cx.n_vertices))
        for _ in range(cx.n_vertices):
            current = {cx.vertex_map[v] for v in current}
        assert d1.r == nu_dl.r + len(current) - 1


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32), n_letters=st.integers(2, 4), data=st.data())
def test_cohomology_does_not_depend_on_the_order_of_any_alphabet(seed, n_letters, data):
    # a DPV over a random horizontal, or a non-Pisot one, and its shuffled
    # twins, under a random vertical: listing the horizontal and the
    # vertical alphabet in other orders changes no tiling, so no vertex may
    # change its kind, and where both orders decide every vertex, n and the
    # groups are the same; the budget trips in both orders or in neither.
    rng = random.Random(seed)
    s = random_substitution(rng, n_letters)
    if data.draw(st.booleans()):
        # a -> a^p b, b -> a^q with q > p + 1: non-Pisot, so its twins fault
        p = rng.randint(1, 2)
        s = Substitution(["a", "b"], {"a": "a" * p + "b", "b": "a" * rng.randint(p + 2, 4)})
    family = [s] + [shuffled_twin(rng, s) for _ in range(rng.randint(1, 2))]
    rho = random_substitution(rng, rng.randint(1, 2), max_len=2)
    while max(map(len, rho.rules)) < 2:
        rho = random_substitution(rng, rho.size, max_len=2)
    row_sigma = tuple(tuple(rng.randrange(len(family)) for _ in img) for img in rho.rules)
    order = data.draw(st.permutations(s.alphabet))
    vorder = data.draw(st.permutations(rho.alphabet))

    def report(vertical, horizontal, rows):
        d = DPVSubstitution(vertical=vertical, horizontal=tuple(horizontal), row_sigma=rows)
        try:
            return cohomology(d, cap=8, max_states=20_000)
        except ResourceCapError:
            return None

    reports = report(rho, family, row_sigma), report(
        relabelled(rho, vorder), (relabelled(x, order) for x in family),
        tuple(row_sigma[rho.alphabet.index(v)] for v in vorder))
    if None in reports:
        assert reports == (None, None)
        event("budget tripped")
        return
    kinds = [Counter(v.kind for v in rep.essential.vertices) for rep in reports]
    assert kinds[0] == kinds[1]
    if kinds[0][BoundaryKind.UNDETERMINED]:
        event("undetermined")
        return
    event(f"n = {reports[0].essential.n}")

    def groups(rep):
        # an unrecognised limit prints its presentation, which the order
        # conjugates; its rank and determinant do not change
        return [g and ("Lim(" not in g.canonical() and g.canonical(), g.rank(), g.det_class())
                for g in (rep.h0, rep.h1, rep.h2, rep.h3)]

    assert reports[0].essential.n == reports[1].essential.n
    assert groups(reports[0]) == groups(reports[1])


def _count_invariants(monkeypatch):
    """Record every direct limit with the Smith forms run inside it."""
    seen = {"limits": []}
    inside = []
    limit, smith = abelian.direct_limit, abelian.smith_normal_form

    def counted_limit(a):
        inside.append([])
        try:
            return limit(a)
        finally:
            seen["limits"].append((a, inside.pop()))

    def counted_smith(a):
        if inside:
            inside[-1].append(a)
        return smith(a)

    for module in (abelian, dpv):
        monkeypatch.setattr(module, "direct_limit", counted_limit)
    monkeypatch.setattr(abelian, "smith_normal_form", counted_smith)
    return seen


def _undetermined_pair():
    # as in test_undetermined_range_from_zero_leaves_h1_null: n = (0, 1),
    # so the report carries a variant
    s1 = Substitution(["a", "b", "c"], {"a": "cb", "b": "baa", "c": "b"})
    s2 = Substitution(["a", "b", "c"], {"a": "cb", "b": "aab", "c": "b"})
    rho = Substitution(["v"], {"v": "vv"})
    return DPVSubstitution(vertical=rho, horizontal=(s1, s2), row_sigma=((0, 1),))


def _singular_vertical():
    # v -> vw, w -> vw: the vertical's matrix, its edge and vertex maps are
    # singular, so their limits need the Smith form
    rho = Substitution(["v", "w"], {"v": "vw", "w": "vw"})
    horizontal = bundled_document("doubling_swap").dpv.horizontal
    return DPVSubstitution(vertical=rho, horizontal=horizontal, row_sigma=((0, 1), (0, 1)))


@pytest.mark.parametrize("name", ["doubling_swap", "period_doubling", "row_thirds",
                                  "undetermined pair", "singular vertical"])
def test_cohomology_computes_each_invariant_once(monkeypatch, name):
    # one direct limit per distinct matrix and a Smith form only inside the
    # limit of a singular bonding map; a second report on the same DPV
    # reads them
    d = {"undetermined pair": _undetermined_pair,
         "singular vertical": _singular_vertical}.get(name, lambda: bundled_document(name).dpv)()
    seen = _count_invariants(monkeypatch)
    first = cohomology(d)
    matrices = [a for a, _ in seen["limits"]]
    assert len(matrices) == len(set(matrices)) > 0
    for a, smith in seen["limits"]:
        assert bool(smith) == (det(a) == 0), a
    for calls in seen.values():
        calls.clear()
    assert cohomology(d) == first
    assert seen == {"limits": []}
