"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value here is either exact (asserted in the field / over Z) or
carries the stated interval tolerance.  The oracle suites re-derive their
expectations with independent brute-force implementations.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import sub

from faultline.abelian import (
    det,
    direct_limit,
    mat,
    matmul,
    matpow,
    recognize,
    shape,
    smith_normal_form,
    transpose,
)
from faultline.algebra import times_root
from faultline.ap_complex import collar, graph_h1
from faultline.documents import bundled_document
from faultline.dpv import cochain_limits, cohomology, compute_nu, essential_vertices
from faultline.fault import (
    BoundaryKind,
    OverlapGraph,
    _ScanWidths,
    boundary_trace,
    classify_boundary,
    discrepancy_growth,
)
from faultline.render import generate_patch
from faultline.substitution import SpectralKind, Substitution

from conftest import (
    numbers,
    patch_tiles,
    random_substitution,
    rng_for,
    row_letters,
    scan_prefix_discrepancies,
    shuffled_twin,
    zero,
)

MU = "Z[1/L:x^2-x-3]"


def sigma_pair():
    return (
        Substitution(["a", "b"], {"a": "ba", "b": "aaa"}),
        Substitution(["a", "b"], {"a": "ab", "b": "aaa"}),
    )


def ok(label):
    print(f"PASS {label}")


def test_criterion_01_spectral_data():
    s1, _ = sigma_pair()
    pd = s1.perron()
    assert pd.charpoly == (-3, -1, 1)  # x^2 - x - 3, exactly
    lo, hi = pd.root.interval(Fraction(1, 10 ** 6))
    # the expansion constant is 2.30277..., within the 1e-4 tolerance of the
    # stated [2.3028, 2.3029] bracket
    assert Fraction(23028, 10000) - Fraction(1, 10000) <= lo
    assert hi <= Fraction(23029, 10000) + Fraction(1, 10000)
    sc = s1.spectral_class()
    assert sc.kind is SpectralKind.NON_PISOT_EXPANDING
    lo, hi = sc.second_eigenvalue_modulus
    assert Fraction(1302, 1000) <= lo <= hi <= Fraction(1303, 1000)
    ok("criterion 1: spectral data of the two-letter pair")


def test_criterion_02_displayed_word_pairs():
    s1, s2 = sigma_pair()
    trace = boundary_trace(OverlapGraph(s1, s2), "a", 4)
    got = [(s1.text(row_letters(st.top)), s2.text(row_letters(st.bottom))) for st in trace.steps]
    assert got == [
        ("ba", "ab"),
        ("aaaba", "abaaa"),
        ("bababaaaaba", "abaaaababab"),
        ("aaabaaaabaaaababababaaaaba", "abaaaababababaaaabaaaabaaa"),
    ]
    assert len(got[3][0]) == 26 and len(got[3][1]) == 26
    ok("criterion 2: four displayed word pairs reproduced verbatim")


def test_criterion_03_growth_and_offsets():
    s1, s2 = sigma_pair()
    trace = boundary_trace(OverlapGraph(s1, s2), "a", 12)
    lo, hi = discrepancy_growth(trace)
    target = 1.3027756377319946  # lambda - 1
    # the interval must contain a value within 5% of lambda - 1
    assert float(lo) <= target * 1.05 and float(hi) >= target * 0.95
    counts = [len(st.offset_vectors) for st in trace.steps]
    for i in range(3, 9):  # rounds 4..10, strictly increasing
        assert counts[i] < counts[i + 1]
    ok("criterion 3: growth ratio within 5% and strictly growing offset counts")


def test_criterion_04_offset_recurrence():
    s1, _ = sigma_pair()
    poly = s1.perron().root.field.poly
    lam = (0, 1)                                  # coefficients on 1, lambda
    lam2 = times_root(lam, poly)
    lam3 = times_root(lam2, poly)
    o2 = tuple(map(sub, lam2, lam))
    assert o2 == (3, 0)                           # lambda^2 - lambda = 3 exactly
    o3_direct = tuple(a - b - c for a, b, c in zip(lam3, lam2, lam))
    o3_recurrence = tuple(map(sub, times_root(o2, poly), lam))
    assert o3_direct == o3_recurrence             # exact identity in Z[lambda]
    ok("criterion 4: offset recurrence is exact in the field")


def test_criterion_05_mu_recognition():
    g = direct_limit(mat([[1, 1], [3, 0]]))
    expr = recognize(g)
    assert expr.canonical() == MU
    assert expr.poly == (-3, -1, 1)
    assert g.r == 2
    ok("criterion 5: the horizontal H^1 limit recognizes as Z[1/lambda]")


def test_criterion_06_simple_example_end_to_end():
    rep = cohomology(bundled_document("doubling_swap").dpv)
    assert rep.h0.canonical() == "Z"
    assert rep.h1.canonical() == "Z[1/2]"
    assert rep.h2.canonical() == f"{MU} (x) Z[1/2]"
    assert rep.h2.rank() == 2
    assert [list(r) for r in map(tuple, rep.h2.presentation_matrix())] == [[2, 2], [6, 0]]
    assert rep.h3.canonical() == f"{MU} (x) {MU}"
    assert rep.h3.rank() == 4
    assert rep.hk_above_3.canonical() == "0"
    assert rep.essential.n == 1
    ok("criterion 6: doubling-swap cohomology matches in the canonical grammar")


def test_criterion_07_period_doubling_pipeline():
    doc = bundled_document("period_doubling")
    rho = doc.substitutions["rho"]
    collared, cx = collar(rho)
    alpha, beta, gamma = "0|1", "0|0", "1|0"
    img = {cx.edge_names[i]: [cx.edge_names[j] for j in w] for i, w in enumerate(cx.edge_map)}
    assert img == {alpha: [gamma, beta], beta: [gamma, alpha], gamma: [beta, alpha]}
    assert cx.n_edges == 3 and cx.n_vertices == 2
    assert tuple(cx.vertex_map) == (1, 0)  # the substitution swaps the vertices
    d0, d1 = cochain_limits(doc.dpv)
    assert recognize(d1).canonical() == "Z[1/2] (+) Z^2"
    rep = cohomology(doc.dpv)
    assert rep.essential.n == 2
    assert rep.h1.canonical() == "Z[1/2] (+) Z"
    assert rep.h2.canonical() == f"{MU}^2 (+) ({MU} (x) Z[1/2])"
    assert rep.h3.canonical() == f"({MU} (x) {MU})^2"
    ok("criterion 7: period-doubling pipeline (collaring through H^3)")


def test_criterion_08_three_row_example():
    rep3 = cohomology(bundled_document("doubling_swap").dpv)
    rep5 = cohomology(bundled_document("row_thirds").dpv)
    ev = rep5.essential
    assert len(ev.eventual) == 3
    faults = [(vb.lower_core, vb.upper_core) for vb in ev.vertices
              if vb.kind is BoundaryKind.REGULAR_FAULT]
    assert faults == [("ga", "al")]
    assert ev.n == 1
    assert (rep5.h0, rep5.h1, rep5.h2, rep5.h3) == (rep3.h0, rep3.h1, rep3.h2, rep3.h3)
    assert rep5.mu == rep3.mu and rep5.nu == rep3.nu
    ok("criterion 8: three-row rewriting reproduces the doubling-swap report with n=1")


def test_criterion_09_rank_identity():
    for name in ("doubling_swap", "period_doubling", "row_thirds"):
        d = bundled_document(name).dpv
        _, nu_dl, _ = compute_nu(d)
        _, d1 = cochain_limits(d)
        ev = essential_vertices(d)
        assert d1.r == nu_dl.r + len(ev.eventual) - 1
    rng = rng_for("acceptance-rank")
    checked = 0
    while checked < 20:
        rho = random_substitution(rng, rng.choice((2, 3, 4)))
        _, cx = collar(rho)
        data = graph_h1(cx)
        nu_dl = direct_limit(data.induced_h1)
        d1 = direct_limit(transpose(cx.edge_matrix))
        current = set(range(cx.n_vertices))
        for _ in range(cx.n_vertices):
            current = {cx.vertex_map[v] for v in current}
        assert d1.r == nu_dl.r + len(current) - 1
        checked += 1
    ok("criterion 9: cochain rank identity on 3 bundled + 20 random verticals")


def brute_invariant_factors(m):
    rows, cols = shape(m)
    out = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for ri in combinations(range(rows), k):
            for ci in combinations(range(cols), k):
                g = gcd(g, abs(det([[m[i][j] for j in ci] for i in ri])))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


def naive_discrepancies(top, bottom, widths, tracked):
    field, widths = widths.field, numbers(widths)
    out = []
    for j in range(1, len(top) + 1):
        cut = zero(field)
        for c in top[:j]:
            cut = cut + widths[c]
        pos = zero(field)
        taken = []
        for c in bottom:
            nxt = pos + widths[c]
            if nxt.compare(cut) <= 0:
                taken.append(c)
                pos = nxt
            else:
                break
        out.append(top[:j].count(tracked) - taken.count(tracked))
    return out


def test_criterion_10a_smith_normal_form_oracle():
    rng = rng_for("acceptance-snf")
    for _ in range(500):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = mat([[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)])
        snf = smith_normal_form(a)
        assert matmul(matmul(snf.u, a), snf.v) == snf.d
        assert abs(det(snf.u)) == 1 and abs(det(snf.v)) == 1
        nonzero = [x for x in snf.diagonal if x != 0]
        assert nonzero == brute_invariant_factors(a)
    ok("criterion 10a: 500 Smith forms against brute-force determinantal divisors")


def test_criterion_10b_discrepancy_oracle():
    rng = rng_for("acceptance-scan")
    cases = 0
    while cases < 200:
        s = random_substitution(rng, 2, max_len=3)
        t = shuffled_twin(rng, s)
        k = rng.randint(1, 4)
        trace = boundary_trace(OverlapGraph(s, t), rng.randint(0, 1), k)
        st = trace.steps[-1]
        if len(st.top) > 140:
            continue
        top, bottom = tuple(row_letters(st.top)), tuple(row_letters(st.bottom))
        want = naive_discrepancies(top, bottom, trace.widths, 0)
        assert list(scan_prefix_discrepancies(top, bottom, _ScanWidths(trace.widths), 0)) == want
        assert st.discrepancy_values == tuple(sorted(set(want)))
        cases += 1
    ok("criterion 10b: 200 prefix-discrepancy traces against the naive scanner")


def test_criterion_10c_renderer_counts_oracle():
    for name in ("doubling_swap", "period_doubling"):
        d = bundled_document(name).dpv
        cm = d.count_matrix()
        for k in range(6):
            patch = generate_patch(d, (0, 0), k)
            counts = Counter(t.tile for t in patch_tiles(patch))
            power = matpow(cm, k)
            col = d.tile_index(0, 0)
            for v in range(d.vertical.size):
                for h in range(d.horizontal[0].size):
                    assert counts.get((v, h), 0) == power[d.tile_index(v, h)][col]
    ok("criterion 10c: renderer tile counts against 2-d matrix powers, k <= 5")


def test_criterion_11_rigid_sanity():
    rng = rng_for("acceptance-rigid")
    for _ in range(50):
        s = random_substitution(rng, 2, max_len=3)
        assert classify_boundary(OverlapGraph(s, s), cap=12) is BoundaryKind.RIGID
    s1, s2 = sigma_pair()
    assert classify_boundary(OverlapGraph(s1, s2)) is BoundaryKind.REGULAR_FAULT
    ok("criterion 11: 50 self-boundaries rigid; the paper pair is a regular fault")
