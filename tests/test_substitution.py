"""Substitution action, abelianization, Perron data, spectral classes,
legal words, shift conjugacy, tile lengths."""

import inspect
import random
from fractions import Fraction
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from faultline import algebra, substitution, zpoly
from faultline.abelian import mat, matmul, matpow
from faultline.algebra import times_root
from faultline.errors import (
    FaultlineError,
    HypothesisError,
    NoPerronRootError,
    ValidationError,
)
from faultline.substitution import (
    SpectralKind,
    Substitution,
    is_primitive,
    perron_data,
    shift_conjugacy,
    spectral_classify,
    tile_lengths,
)

from conftest import (
    integer_vectors,
    iterate,
    random_substitution,
    reference_shift_conjugacy,
    reference_spectral_classify,
    reference_tile_lengths,
    ring,
    rng_for,
    with_largest_real_root,
    zero,
)


def test_apply_examples(sigma1):
    assert sigma1.text(sigma1.apply("a")) == "ba"
    assert sigma1.apply(()) == ()
    assert sigma1.text(sigma1.apply("ba")) == "aaaba"


def test_apply_rejects_unknown_letter(sigma1):
    with pytest.raises(ValidationError):
        sigma1.apply("ax")
    with pytest.raises(ValidationError):
        sigma1.apply([5])
    with pytest.raises(ValidationError):
        sigma1.apply((0, 5))
    with pytest.raises(ValidationError):
        sigma1.apply(("a", "x"))
    assert sigma1.apply(("b", "a")) == sigma1.apply((1, 0)) == sigma1.apply("ba")


def test_abelianization_examples(sigma1, period_doubling):
    assert sigma1.matrix() == ((1, 3), (1, 0))
    ident = Substitution(["a", "b"], {"a": "a", "b": "b"})
    assert ident.matrix() == ((1, 0), (0, 1))
    assert period_doubling.matrix() == ((1, 2), (1, 0))


def test_matrix_is_immutable_and_hashable(sigma1):
    m = sigma1.matrix()
    assert hash(m) == hash(((1, 3), (1, 0)))
    with pytest.raises(TypeError):
        m[0][0] = 7
    with pytest.raises(TypeError):
        m[0] = (7, 7)
    # every caller shares the one cached value, which therefore cannot drift
    assert sigma1.matrix() is m and m == ((1, 3), (1, 0))


def test_letter_counts_transform_by_matrix(sigma1):
    rng = rng_for("counts")
    m = sigma1.matrix()
    for _ in range(50):
        w = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 30)))
        img = sigma1.apply(w)
        before = [w.count(0), w.count(1)]
        after = [img.count(0), img.count(1)]
        assert after == [sum(m[i][j] * before[j] for j in range(2)) for i in range(2)]
        assert len(img) == sum(after)


def test_perron_examples(sigma1, period_doubling):
    pd = sigma1.perron()
    assert pd.charpoly == (-3, -1, 1)
    lo, hi = pd.root.interval(Fraction(1, 2 ** 40))
    assert 2.30 < lo <= hi < 2.31
    assert pd.primitive

    one = perron_data(mat([[1]]))
    assert one.charpoly == (-1, 1)
    assert one.root.as_fraction() == 1

    two = period_doubling.perron()
    assert two.charpoly == (-2, -1, 1)
    assert two.root.as_fraction() == 2

    # the characteristic polynomial vanishes exactly at the Perron root
    for s in (sigma1, period_doubling):
        p = s.perron()
        acc = zero(p.root.field)
        for c in reversed(p.charpoly):
            acc = acc * ring(p.root) + c
        assert acc.is_zero()


def test_perron_zero_matrix():
    with pytest.raises(NoPerronRootError):
        perron_data(mat([[0, 0], [0, 0]]))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32), n_letters=st.integers(1, 6), repeat=st.booleans())
def test_perron_factors_are_those_of_the_squarefree_part(seed, n_letters, repeat):
    # the conftest ``with_largest_real_root`` factors the squarefree part of
    # the charpoly; ``perron_data`` reads the factors of the charpoly itself.
    # Both lists hold the same primitive factors with positive leading
    # coefficients, in the same order, so the field and ``own`` in
    # spectral_classify are as they were.  `repeat` squares the matrix's
    # charpoly by a block diagonal
    m = random_substitution(random.Random(seed), n_letters, max_len=4).matrix()
    if repeat:
        k = len(m)
        m = tuple(row + (0,) * k for row in m) + tuple((0,) * k + row for row in m)
    pd = perron_data(m)
    assert pd.factors == tuple(algebra.irreducible_factors(pd.charpoly))
    sf = zpoly.squarefree_part(list(pd.charpoly))
    assert [f for f, _ in pd.factors] == [f for f, _ in algebra.irreducible_factors(sf)]
    assert pd.root.field.poly in [f for f, _ in pd.factors]
    field, _ = with_largest_real_root(pd.charpoly)
    assert (field.poly, field.root_ints) == (pd.root.field.poly, pd.root.field.root_ints)


def test_charpoly_factored_once_per_substitution(monkeypatch):
    calls = []
    for module in (algebra, substitution):
        factor = module.irreducible_factors
        monkeypatch.setattr(module, "irreducible_factors",
                            lambda f, factor=factor: calls.append(f) or factor(f))
    # tribonacci: a factor of degree 3 with a non-real pair
    s = Substitution(["a", "b", "c"], {"a": "ab", "b": "ac", "c": "a"})
    assert s.spectral_class().kind is SpectralKind.PISOT
    s.perron(), s.tile_lengths()
    assert len(calls) == 1


def test_spectral_examples(sigma1):
    sc = sigma1.spectral_class()
    assert sc.kind is SpectralKind.NON_PISOT_EXPANDING
    lo, hi = sc.second_eigenvalue_modulus
    assert 1.30 < lo <= hi < 1.31

    assert spectral_classify(perron_data(mat([[2]]))).kind is SpectralKind.PISOT
    assert spectral_classify(perron_data(mat([[1, 1], [1, 0]]))).kind is SpectralKind.PISOT


def test_second_modulus_enclosure_widths(sigma1):
    # a real second root is enclosed to 2^-64; a non-real root of a cubic is
    # read off its isolating rectangle, here about 1.08e-5 wide, and holds
    # the modulus
    import numpy as np

    lo, hi = sigma1.spectral_class().second_eigenvalue_modulus
    assert hi - lo <= Fraction(1, 2 ** 64)
    plastic = Substitution(["a", "b", "c"], {"a": "b", "b": "c", "c": "ab"})
    lo, hi = plastic.spectral_class().second_eigenvalue_modulus
    modulus = sorted(abs(np.roots([1, 0, -1, -1])))[0]
    assert round(modulus, 6) == 0.868837
    assert lo < modulus < hi and hi - lo < Fraction(1, 2 ** 15)


def test_spectral_salem_and_unimodular(period_doubling):
    # second root of x^2-x-2 is -1: on the unit circle exactly
    assert period_doubling.spectral_class().kind is SpectralKind.SALEM
    ident = Substitution(["a"], {"a": "a"})
    assert ident.spectral_class().kind is SpectralKind.UNIMODULAR


def test_spectral_complex_pair_pisot():
    # tribonacci: charpoly x^3-x^2-x-1, complex pair strictly inside the circle
    import numpy as np

    s = Substitution(["a", "b", "c"], {"a": "ab", "b": "ac", "c": "a"})
    sc = s.spectral_class()
    roots = np.roots([1, -1, -1, -1])
    non_perron = sorted(abs(r) for r in roots)[:-1]
    assert all(m < 1 for m in non_perron)
    assert sc.kind is SpectralKind.PISOT
    lo, hi = sc.second_eigenvalue_modulus
    assert lo <= max(non_perron) + 1e-12 and max(non_perron) - 1e-12 <= hi


def test_spectral_complex_pair_expanding():
    # a -> b, b -> c, c -> aab: x^3 - x - 2, complex pair of modulus ~1.147
    import numpy as np

    s = Substitution(["a", "b", "c"], {"a": "b", "b": "c", "c": "aab"})
    roots = np.roots([1, 0, -1, -2])
    non_perron = sorted(abs(r) for r in roots)[:-1]
    assert all(m > 1 for m in non_perron)
    assert s.spectral_class().kind is SpectralKind.NON_PISOT_EXPANDING


def numpy_kind(m):
    """The spectral kind that numpy's eigenvalue moduli give, with 1e-6 as
    the width of the unit circle."""
    import numpy as np

    values = sorted(np.linalg.eigvals(np.array(m, dtype=float)),
                    key=lambda z: (abs(z.imag) < 1e-9, z.real))
    lam, moduli = values[-1].real, [abs(z) for z in values[:-1]]
    if any(x > 1 + 1e-6 for x in moduli):
        return SpectralKind.NON_PISOT_EXPANDING
    if abs(lam - 1) < 1e-6 and all(abs(x - 1) < 1e-6 for x in moduli):
        return SpectralKind.UNIMODULAR
    if any(abs(x - 1) < 1e-6 for x in moduli):
        return SpectralKind.SALEM
    return SpectralKind.PISOT


# matrices that the width-based classifier left Undetermined: a non-real
# pair on |z| = 1 of a palindromic factor of degree 4 or 6
UNDECIDED_BY_WIDTH = [
    ((1, 0, 1, 0), (0, 0, 1, 0), (1, 0, 0, 1), (0, 1, 0, 0)),
    ((1, 1, 0, 0, 1), (0, 2, 1, 0, 1), (1, 0, 0, 1, 0), (1, 0, 1, 0, 2), (0, 1, 1, 0, 0)),
    ((1, 0, 1, 0, 1, 0), (0, 1, 0, 0, 1, 0), (0, 1, 0, 1, 0, 1), (2, 1, 1, 0, 0, 0),
     (0, 1, 0, 1, 1, 1), (1, 0, 1, 0, 1, 0)),
    ((0, 0, 1, 0, 0), (0, 1, 0, 1, 0), (0, 0, 0, 1, 0), (0, 1, 0, 0, 1), (1, 1, 0, 0, 0)),
]


def _agrees_with_reference(m):
    got = spectral_classify(perron_data(m))
    kind, second = reference_spectral_classify(m)
    if kind is None:
        assert got.kind is numpy_kind(m)
    else:
        assert got.kind is kind
    # the printed enclosure keeps its bytes, decided or not
    assert got.second_eigenvalue_modulus == second


@pytest.mark.parametrize("m", UNDECIDED_BY_WIDTH)
def test_circle_roots_decide_what_the_width_left_open(m):
    assert reference_spectral_classify(m)[0] is None
    _agrees_with_reference(m)
    assert spectral_classify(perron_data(m)).kind is SpectralKind.SALEM


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32), n_letters=st.integers(2, 6))
def test_spectral_classify_matches_the_width_based_reference(seed, n_letters):
    _agrees_with_reference(random_substitution(random.Random(seed), n_letters,
                                               max_len=4).matrix())


def test_spectral_kinds_are_all_decided():
    assert {k.value for k in SpectralKind} == {"Pisot", "Salem", "NonPisotExpanding",
                                               "Unimodular"}


def test_a_root_that_never_leaves_the_circle_is_a_one_line_error(monkeypatch):
    # with a circle count of 0 the Salem quartic's pair always straddles |z| = 1;
    # refinement stops at the ceiling with an error, never with a kind
    monkeypatch.setattr(substitution, "circle_roots", lambda f: 0)
    monkeypatch.setattr(substitution, "_DEEPEST", Fraction(1, 2 ** 128))
    with pytest.raises(FaultlineError, match=r"^no separation of the roots of .* found$"):
        spectral_classify(perron_data(UNDECIDED_BY_WIDTH[0]))


def test_legal_words(period_doubling, sigma1):
    two = {period_doubling.text(w) for w in period_doubling.legal_words(2)}
    assert two == {"00", "01", "10"}
    one = period_doubling.legal_words(1)
    assert one == {(0,), (1,)}
    s1_two = {sigma1.text(w) for w in sigma1.legal_words(2)}
    # bb never occurs: images end in a and b is always followed by an image start
    long = sigma1.text(iterate(sigma1, "a", 9))
    assert "bb" not in long
    assert s1_two == {"aa", "ab", "ba"}
    factors = {long[i:i + 2] for i in range(len(long) - 1)}
    assert factors == s1_two


def test_legal_words_past_length_one_images():
    # a -> b -> c -> ab: two steps without growth before the first that grows
    s = Substitution(["a", "b", "c"], {"a": "b", "b": "c", "c": "ab"})
    long = iterate(s, "a", 40)
    assert len(long) > 10 ** 4
    for n in (1, 2, 3, 5):
        assert s.legal_words(n) == {long[i:i + n] for i in range(len(long) - n + 1)}


def test_is_primitive_matches_integer_powers():
    # the Boolean powers against the integer powers they replaced
    rng = rng_for("primitive")
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 5)
        m = mat([[rng.choice((0, 0, 1, 2)) for _ in range(n)] for _ in range(n)])
        want = any(all(x > 0 for row in matpow(m, k) for x in row)
                   for k in range(1, (n - 1) ** 2 + 2))
        assert is_primitive(m) == want
        seen.add(want)
    assert seen == {True, False}


def test_legal_words_nonprimitive_takes_union():
    # the library does not warn; `ap` and `mu` say so on stderr
    s = Substitution(["a", "b"], {"a": "aa", "b": "ab"})
    assert not s.is_primitive()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        words = s.legal_words(1)
    assert words == {(0,), (1,)}


def test_legal_words_nonprimitive_keeps_factors_of_early_images():
    # x -> ab -> cd -> ccdd ...: ab is a factor of s(x) and of no later image
    s = Substitution(["x", "a", "b", "c", "d"],
                     {"x": "ab", "a": "c", "b": "d", "c": "cc", "d": "dd"})
    assert {s.text(w) for w in s.legal_words(2)} == {"ab", "cc", "cd", "dd"}


def _iterate_factor_union(s, n):
    """The length-n factors of s^k(a), united over k >= 1 and every letter a,
    iterate by iterate.  Once |v| >= n the factors of s(v) are the factors of
    the images of v's factors, so the factor sets of one letter's iterates
    cycle; each letter stops at the first repeat."""
    def windows(w):
        return frozenset(w[i:i + n] for i in range(len(w) - n + 1))

    union = set()
    for a in range(s.size):
        w, seen = s.apply((a,)), set()
        while len(w) < n and w not in seen:     # short images: a cycle or growth
            seen.add(w)
            w = s.apply(w)
        if len(w) < n:
            continue
        factors, seen = windows(w), set()
        while factors not in seen:
            seen.add(factors)
            union |= factors
            factors = frozenset().union(*(windows(s.apply(u)) for u in factors))
    return union


def test_legal_words_is_the_union_over_every_iterate():
    rng = rng_for("legal-words-union")
    for _ in range(300):
        s = random_substitution(rng, rng.randint(1, 4), max_len=rng.randint(1, 3),
                                primitive=False)
        n = rng.randint(1, 4)
        assert s.legal_words(n) == _iterate_factor_union(s, n), (s, n)


def test_shift_conjugacy(sigma1, sigma2):
    u = shift_conjugacy(sigma1, sigma2)
    assert u == sigma1.word("a")
    assert shift_conjugacy(sigma1, sigma1) == ()
    # verify the defining identity verbatim
    for x in range(sigma1.size):
        assert sigma2.rules[x] + u == u + sigma1.rules[x]


def test_shift_conjugacy_theta_family():
    # theta1(x) = w_x a, theta2(x) = a w_x generate the same tiling space
    w1, w2 = "ab", "bb"
    t1 = Substitution(["a", "b"], {"a": w1 + "a", "b": w2 + "a"})
    t2 = Substitution(["a", "b"], {"a": "a" + w1, "b": "a" + w2})
    u = shift_conjugacy(t1, t2)
    assert u == t1.word("a")
    for x in range(2):
        assert t2.rules[x] + u == u + t1.rules[x]


@st.composite
def conjugacy_pairs(draw):
    """Two substitutions with equal image lengths over 1-3 letters: either
    s1(x) = w_x v and s2(x) = v w_x, which u = v conjugates, or s2 with the
    letters of each image of s1 reordered."""
    letters = "abc"[:draw(st.integers(1, 3))]
    v = draw(st.text(letters, max_size=4))
    ws = {x: draw(st.text(letters, min_size=0 if v else 1, max_size=4)) for x in letters}
    s1 = {x: w + v for x, w in ws.items()}
    if draw(st.booleans()):
        s2 = {x: v + w for x, w in ws.items()}
    else:
        s2 = {x: "".join(draw(st.permutations(img))) for x, img in s1.items()}
    return Substitution(letters, s1), Substitution(letters, s2)


@settings(max_examples=300, deadline=None)
@given(pair=conjugacy_pairs())
def test_shift_conjugacy_matches_the_word_search(pair):
    # u is a prefix of s2(a) s2(a) ..., so the one candidate of each length
    # finds what the search over all |A|^L words finds
    assert shift_conjugacy(*pair) == reference_shift_conjugacy(*pair)


def test_shift_conjugacy_checks_one_candidate_per_length():
    # six letters and no certificate: the word search would check
    # 6^0 + ... + 6^8 candidates.  Each check reads s1's image of the first
    # letter once, so counting those reads counts the checks.
    class CountedRules(tuple):
        def __getitem__(self, i):
            if i == 0:
                self.reads += 1
            return super().__getitem__(i)

    letters = "abcdef"
    s1 = Substitution(letters, {x: x + y for x, y in zip(letters, letters[1:] + "a")})
    s2 = Substitution(letters, {x: y + x for x, y in zip(letters, letters[1:] + "a")})
    s1.rules = CountedRules(s1.rules)
    s1.rules.reads = 0
    assert shift_conjugacy(s1, s2) is None
    max_len = inspect.signature(shift_conjugacy).parameters["max_len"].default
    assert 0 < s1.rules.reads <= max_len + 1


def test_shift_conjugacy_hypothesis_error(sigma1):
    other = Substitution(["a", "b"], {"a": "ba", "b": "aa"})
    with pytest.raises(HypothesisError):
        shift_conjugacy(sigma1, other)


def assert_eigen_identity(s, lengths):
    """length(s(x)) = lambda * length(x) on the integer vectors:
    sum_i M[i][j] * V_i == times_root(V_j) for every letter j."""
    m, vectors, poly = s.matrix(), lengths.vectors, lengths.field.poly
    for j in range(s.size):
        total = tuple(sum(m[i][j] * v[c] for i, v in enumerate(vectors))
                      for c in range(lengths.field.degree))
        assert total == times_root(vectors[j], poly)


def test_tile_lengths_examples(sigma1, period_doubling):
    lengths = sigma1.tile_lengths()
    # a is lambda wide and b is 3, over the denominator 1
    assert lengths.field.poly == (-3, -1, 1)
    assert (lengths.vectors, lengths.den) == (((0, 1), (3, 0)), 1)
    assert_eigen_identity(sigma1, lengths)

    one = Substitution(["a"], {"a": "aa"}).tile_lengths()
    assert (one.field.poly, one.vectors, one.den) == ((-2, 1), ((1,),), 1)

    two = period_doubling.tile_lengths()
    assert (two.vectors, two.den) == (((1,), (1,)), 1)


def test_tile_lengths_eigen_identity_random():
    rng = rng_for("lengths")
    for _ in range(15):
        s = random_substitution(rng, rng.choice((2, 3)))
        assert_eigen_identity(s, s.tile_lengths())


def test_tile_lengths_degenerate():
    ident = Substitution(["a", "b"], {"a": "a", "b": "b"})
    with pytest.raises(HypothesisError):
        tile_lengths(ident)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32), n_letters=st.integers(2, 6))
def test_tile_lengths_match_reference_elimination(seed, n_letters):
    s = random_substitution(random.Random(seed), n_letters)
    new, old = tile_lengths(s), reference_tile_lengths(s)
    assert (new.field.poly, new.vectors, new.den) == (old[0].field.poly,
                                                     *integer_vectors(old))


def test_composition(sigma1, sigma2):
    comp = sigma2.after(sigma1)
    for x in range(2):
        assert comp.rules[x] == sigma2.apply(sigma1.rules[x])
    assert comp.matrix() == matmul(sigma2.matrix(), sigma1.matrix())
