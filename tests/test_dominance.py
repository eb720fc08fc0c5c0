import random
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monodom import (
    FuzzParams,
    GuardExceeded,
    dominant_variables,
    is_dominant_set,
    is_taylor_minimal,
    minimalize,
    Monomial,
    odom_by_dominance,
    polarize,
    random_ideal,
    table,
)
from monodom import dominance

from conftest import (
    EXHAUSTIVE,
    I,
    brute_is_dominant,
    brute_odom,
    reference_dominant_subsets,
    reference_odom_by_dominance,
    walked_dominant_subsets,
)


def names_of(ideal, vars):
    return tuple(ideal.table.names[v] for v in vars)


def gen_index(ideal, text):
    for i, g in enumerate(ideal.generators):
        if str(g) == text:
            return i
    raise KeyError(text)


class TestDominantVariables:
    def test_running_example(self):
        # only a*b^3*c is dominant in the full set, via b
        G = I("a^2*b, a*b^3*c, b*c^2, a^2*c^2")
        everyone = range(G.q)
        for i, g in enumerate(G.generators):
            doms = dominant_variables(G, i, everyone)
            if str(g) == "a*b^3*c":
                assert names_of(G, doms) == ("b",)
            else:
                assert doms == ()

    def test_singleton_is_support(self):
        G = I("a^2*e, b")
        i = gen_index(G, "a^2*e")
        assert set(dominant_variables(G, i, [i])) == set(G.generators[i].support())

    def test_sub_triple_all_dominant(self):
        G = I("a^2*b, a*b^3*c, b*c^2")
        for i in range(G.q):
            assert dominant_variables(G, i, range(G.q)) != ()

    def test_member_required(self):
        G = I("a, b")
        with pytest.raises(ValueError):
            dominant_variables(G, 0, [1])


class TestIsDominantSet:
    def test_triple_dominant_with_injective_witness(self):
        G = I("a^2*b, a*b^3*c, b*c^2")
        ok, witness = is_dominant_set(G, range(G.q))
        assert ok
        # a variable is dominant for at most one member
        assert len(set(witness.variables)) == len(witness.variables)

    def test_four_cycle_not_dominant(self):
        G = I("a*b, c*d, a*c, b*d")
        ok, witness = is_dominant_set(G, range(G.q))
        assert not ok and witness is None
        # independent direct check: every variable's max exponent is tied
        assert not brute_is_dominant(G.exponent_rows, list(range(G.q)))

    def test_ad_bd_cd_dominant(self):
        G = I("a*d, b*d, c*d")
        ok, witness = is_dominant_set(G, range(G.q))
        assert ok
        assert set(witness.variable_names(G)) == {"a", "b", "c"}

    def test_witness_exponents_match_lcm(self):
        G = I("a^2*b, a*b^3*c, b*c^2")
        _, w = is_dominant_set(G, range(G.q))
        rows = G.exponent_rows
        lcm = [max(rows[g][v] for g in w.members) for v in range(G.n)]
        for g, v in zip(w.members, w.variables):
            assert rows[g][v] == lcm[v]


class TestOdom:
    @pytest.mark.parametrize(
        "text,vars,expected",
        [
            ("a*d, b*d, c*d", ["a", "b", "c", "d"], 3),
            ("a*d, b*d, c*d, d^2", ["a", "b", "c", "d"], 4),
            ("a, b, c", None, 3),
            ("a*b, c*d, a*c, b*d", None, 2),
            ("a^2, a*b, b^2", None, 2),
        ],
    )
    def test_known_values(self, text, vars, expected):
        M = I(text, vars)
        value, witness = odom_by_dominance(M)
        assert value == expected
        assert len(witness.members) == expected

    def test_witness_is_lex_least(self):
        M = I("a, b, c")
        _, w = odom_by_dominance(M)
        assert w.members == (0, 1, 2)

    def test_matches_brute_force(self):
        for text in (
            "a*d, b*d, c*d, d^2",
            "a^2*e, b^3*f, c*e^2, d^2*f^3",
            "a*b, c*d, a*c, b*d",
            "x1^2, x1*x2, x1*x3",
            "a^2*b, a*b^3*c, b*c^2, a^2*c^2",
        ):
            M = I(text)
            assert odom_by_dominance(M)[0] == brute_odom(M)

    def test_guard(self):
        names = [f"x{i}" for i in range(1, 23)]
        M = I(", ".join(names))
        with pytest.raises(GuardExceeded):
            odom_by_dominance(M)

    def test_covering_search_prunes_an_uncoverable_outsider(self, monkeypatch):
        # a plain scan tries all 3^12 choice vectors of the 12-subset, and 3^11
        # for each of nine 11-subsets; the pruned search rejects each at once
        M = uncoverable_outsider_ideal()
        assert (M.q, M.n) == (13, 39)
        calls = []
        extend = dominance._extend_cover

        def counted(*args):
            calls.append(None)
            return extend(*args)

        monkeypatch.setattr(dominance, "_extend_cover", counted)
        value, witness = odom_by_dominance(M)
        assert value == 11
        assert witness.members == (0, 1, 3, 4, 5, 6, 7, 8, 9, 10, 11)
        assert (value, witness) == reference_odom_by_dominance(M)
        assert len(calls) <= 100


def uncoverable_outsider_ideal():
    """12 members a_i = (product of their own three variables) * (two of s, t, r),
    with s*r, s*t and t*r on a_1..a_3 and nothing on a_4..a_12, plus g = s*t*r.

    All twelve a_i form the only dominant 12-subset. g divides its lcm, but
    holds only variables that no member is dominant in, so no choice vector
    covers it; the same holds for every 11-subset that keeps a_1..a_3.
    """
    own = [[f"y{3 * i + j}" for j in range(1, 4)] for i in range(12)]
    tbl = table(*(v for vs in own for v in vs), "s", "t", "r")
    shared = [("s", "r"), ("s", "t"), ("t", "r")] + [()] * 9

    def mono(names):
        return Monomial(tbl, tuple(int(v in names) for v in tbl.names))

    gens = [mono(vs + list(extra)) for vs, extra in zip(own, shared)]
    return minimalize(gens + [mono(["s", "t", "r"])])


def seeded_ideals(trials, **limits):
    params = FuzzParams(trials=trials, seed=13, **limits)
    return [random_ideal(params, t) for t in range(trials)]


def degree_four_ideal():
    """20 distinct degree-4 monomials in 6 variables, drawn by random.Random(5)."""
    tbl = table(*(f"x{i}" for i in range(1, 7)))
    vectors = sorted(
        tuple(c.count(v) for v in range(6))
        for c in combinations_with_replacement(range(6), 4)
    )
    chosen = random.Random(5).sample(vectors, 20)
    return minimalize([Monomial(tbl, e) for e in chosen])


class TestWalkMatchesPlainScan:
    """The pruned walk on codes against testing every subset on its own, on rows."""

    def test_subsets_and_masks_on_the_exhaustive_families(self):
        assert len(EXHAUSTIVE) == 208
        for M in EXHAUSTIVE:
            rows, sizes = M.exponent_rows, range(1, M.q + 1)
            assert list(walked_dominant_subsets(rows, sizes)) == list(
                reference_dominant_subsets(rows, sizes)
            ), M.render()

    def test_subsets_and_masks_on_seeded_draws(self):
        for M in seeded_ideals(200, n_max=8, q_max=10, exp_max=3):
            rows, sizes = M.exponent_rows, range(M.q, 0, -1)
            assert list(walked_dominant_subsets(rows, sizes)) == list(
                reference_dominant_subsets(rows, sizes)
            ), M.render()

    def test_odom_on_the_exhaustive_families(self):
        for M in EXHAUSTIVE:
            for X in (M, polarize(M)):
                assert odom_by_dominance(X) == reference_odom_by_dominance(X), X.render()

    def test_odom_on_seeded_draws(self):
        ideals = seeded_ideals(1000, n_max=8, q_max=12, exp_max=3)
        assert max(M.q for M in ideals) == 12
        for M in ideals:
            for X in (M, polarize(M)):
                assert odom_by_dominance(X) == reference_odom_by_dominance(X), X.render()

    def test_odom_with_a_huge_exponent(self):
        M = I("a^3000000000*b, b^2")
        assert odom_by_dominance(M) == reference_odom_by_dominance(M)
        assert odom_by_dominance(M)[0] == 2

    def test_q20_polarization(self):
        # the plain scan takes seconds on this polarization: sizes 20 down to 7 fail
        M = degree_four_ideal()
        assert M.q == 20
        assert odom_by_dominance(M) == reference_odom_by_dominance(M)
        assert odom_by_dominance(M)[0] == 6
        assert odom_by_dominance(polarize(M))[0] == 6


class TestTaylorMinimal:
    def test_examples(self):
        assert is_taylor_minimal(I("a*d, b*d, c*d"))
        assert not is_taylor_minimal(I("a^2, a*b, b^2"))
        assert is_taylor_minimal(I("a^2*e, b^3*f, c*e^2, d^2*f^3"))

    def test_iff_odom_equals_q(self):
        for text in ("a*d, b*d, c*d", "a^2, a*b, b^2", "a*b, c*d, a*c, b*d"):
            M = I(text)
            assert is_taylor_minimal(M) == (odom_by_dominance(M)[0] == M.q)


# ---------------------------------------------------------------------------
# properties

@st.composite
def small_ideals(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    tbl = table(*(f"x{i}" for i in range(1, n + 1)))
    k = draw(st.integers(min_value=1, max_value=5))
    mons = []
    for _ in range(k):
        exps = tuple(
            draw(st.integers(min_value=0, max_value=3)) for _ in range(n)
        )
        if any(exps):
            mons.append(Monomial(tbl, exps))
    if not mons:
        mons = [Monomial(tbl, (1,) * n)]
    return minimalize(mons)


@given(small_ideals(), st.data())
@settings(max_examples=80)
def test_subsets_of_dominant_sets_are_dominant(M, data):
    ok, witness = is_dominant_set(M, range(M.q))
    if not ok:
        return
    sub = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=M.q - 1),
            min_size=1,
            max_size=M.q,
            unique=True,
        )
    )
    assert is_dominant_set(M, sub)[0]


@given(small_ideals())
@settings(max_examples=60, deadline=None)
def test_odom_agrees_with_brute_force(M):
    assert odom_by_dominance(M)[0] == brute_odom(M)


@given(small_ideals())
@settings(max_examples=60, deadline=None)
def test_odom_invariant_under_polarization(M):
    assert odom_by_dominance(M)[0] == odom_by_dominance(polarize(M))[0]


@given(small_ideals())
@settings(max_examples=80)
def test_dominant_set_cardinality_bounded_by_n(M):
    value, witness = odom_by_dominance(M)
    assert value <= M.n
    assert len(set(witness.variables)) == len(witness.variables)
