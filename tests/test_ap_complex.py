"""Anderson-Putnam complexes: border forcing, collaring, vertex dynamics, H^1."""

import pytest
from hypothesis import given, settings, strategies as st

from faultline.abelian import charpoly, direct_limit, recognize, transpose
from faultline.ap_complex import border_forcing, collar, graph_h1
from faultline.errors import ValidationError
from faultline.substitution import Substitution

from conftest import iterate, random_substitution, reference_border_forcing, rng_for


def test_border_forcing_period_doubling(period_doubling):
    right, left = border_forcing(period_doubling)
    assert right == 1    # every substituted letter begins with 0
    assert left is None


def test_border_forcing_identity_one_letter():
    s = Substitution(["a"], {"a": "a"})
    assert border_forcing(s) == (1, 1)


def test_border_forcing_sigma1_brute(sigma1):
    # first letters of the m-fold images differ for every m up to the cap,
    # while last letters agree from m=1 on
    right, left = border_forcing(sigma1, cap=8)
    for m in range(1, 9):
        firsts = {iterate(sigma1, (a,), m)[0] for a in range(2)}
        lasts = {iterate(sigma1, (a,), m)[-1] for a in range(2)}
        assert len(firsts) == 2
        assert len(lasts) == 1
    assert right is None
    assert left == 1


@st.composite
def substitutions(draw, max_letters=6, max_len=5):
    n = draw(st.integers(1, max_letters))
    names = [chr(ord("a") + i) for i in range(n)]
    letter = st.sampled_from(names)
    return Substitution(names, {x: draw(st.lists(letter, min_size=1, max_size=max_len))
                                for x in names})


@settings(max_examples=200, deadline=None)
@given(s=substitutions(), cap=st.integers(1, 8))
def test_border_forcing_matches_reference(s, cap):
    assert border_forcing(s, cap) == reference_border_forcing(s, cap)


def test_border_forcing_builds_no_image(monkeypatch, sigma1, period_doubling):
    def forbidden(*args):
        raise AssertionError("border_forcing applied the substitution")

    monkeypatch.setattr(Substitution, "apply", forbidden)
    assert border_forcing(sigma1) == (None, 1)
    assert border_forcing(period_doubling) == (1, None)


def test_collar_period_doubling(period_doubling):
    collared, cx = collar(period_doubling)
    # alpha = 1 preceded by 0, beta = 0 preceded by 0, gamma = 0 preceded by 1
    alpha, beta, gamma = "0|1", "0|0", "1|0"
    assert set(cx.edge_names) == {alpha, beta, gamma}
    img = {cx.edge_names[i]: [cx.edge_names[j] for j in w] for i, w in enumerate(cx.edge_map)}
    assert img[alpha] == [gamma, beta]
    assert img[beta] == [gamma, alpha]
    assert img[gamma] == [beta, alpha]
    assert cx.n_vertices == 2
    assert tuple(cx.vertex_map) in ((1, 0),)  # interchanges the two vertices
    # the paper's matrix, transposed convention checked via charpoly
    assert sorted(map(sorted, cx.edge_matrix)) == sorted(
        map(sorted, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    )
    # (x-2)(x+1)^2 = x^3 - 3x - 2: eigenvalues 2, -1, -1
    assert charpoly(transpose(cx.edge_matrix)) == (-2, -3, 0, 1)


def test_collar_one_letter():
    s = Substitution(["a"], {"a": "aa"})
    collared, cx = collar(s)
    assert cx.n_edges == 1
    assert cx.n_vertices == 1
    assert cx.edge_map == ((0, 0),)


def test_collar_projects_onto_base(sigma1, period_doubling):
    rng = rng_for("collar-project")
    for s in (sigma1, period_doubling, random_substitution(rng, 2), random_substitution(rng, 3)):
        collared, cx = collar(s)
        cores = [c.core for c in cx.edges]
        # projection intertwines the substitutions on iterates
        for e in range(cx.n_edges):
            w = (e,)
            for _ in range(3):
                w = collared.apply(w)
            projected = tuple(cores[i] for i in w)
            base_word = (cores[e],)
            for _ in range(3):
                base_word = s.apply(base_word)
            assert projected == base_word


def test_edge_matrix_column_sums(sigma1, period_doubling):
    rng = rng_for("colsum")
    for s in (sigma1, period_doubling, random_substitution(rng, 3)):
        _, cx = collar(s)
        lengths = s.length_vector()
        for j, c in enumerate(cx.edges):
            col = sum(cx.edge_matrix[i][j] for i in range(cx.n_edges))
            assert col == lengths[c.core]


def test_vertex_map_eventually_permutes():
    rng = rng_for("vmap")
    for _ in range(12):
        s = random_substitution(rng, rng.choice((2, 3, 4)))
        _, cx = collar(s)
        current = set(range(cx.n_vertices))
        for _ in range(cx.n_vertices):
            current = {cx.vertex_map[v] for v in current}
        image = {cx.vertex_map[v] for v in current}
        assert image == current  # a permutation of the eventual image


def test_graph_h1_period_doubling(period_doubling):
    _, cx = collar(period_doubling)
    data = graph_h1(cx)
    assert data.h1_rank == 2
    assert recognize(direct_limit(data.induced_h1)).canonical() == "Z[1/2] (+) Z"


def test_graph_h1_single_loop():
    s = Substitution(["a"], {"a": "aa"})
    _, cx = collar(s)
    data = graph_h1(cx)
    assert data.h1_rank == 1
    assert data.induced_h1 == ((2,),)


def test_graph_h1_circle_complex(three_cycle):
    _, cx = collar(three_cycle)
    assert cx.n_edges == 3 and cx.n_vertices == 3
    data = graph_h1(cx)
    assert data.h1_rank == 1  # E - V + 1 on a circle of three edges


def test_graph_h1_disconnected_rejected():
    s = Substitution(["a", "b"], {"a": "aa", "b": "bb"})
    _, cx = collar(s)
    assert cx.n_vertices == 2
    with pytest.raises(ValidationError):
        graph_h1(cx)


def test_sigma1_complex_h1_limit(sigma1):
    # the H^1 action has the expansion's charpoly after reduction
    _, cx = collar(sigma1)
    data = graph_h1(cx)
    g = direct_limit(data.induced_h1)
    assert g.r == 2
    assert g.charpoly_prime == (-3, -1, 1)
    assert recognize(g).canonical() == "Z[1/L:x^2-x-3]"
