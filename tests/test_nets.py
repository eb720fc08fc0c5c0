import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monodom import (
    GuardExceeded,
    Monomial,
    UnknownVariableError,
    is_dominant_set,
    is_net,
    minimal_nets,
    minimalize,
    odom_by_dominance,
    odom_by_nets,
    polarize,
    random_ideal,
    table,
)
from monodom import FuzzParams, _kernels

from conftest import (
    EXHAUSTIVE,
    I,
    brute_minimal_nets,
    cycle_ideal,
    dominant_set_from_net,
    family_as_tuples,
    reference_transversals,
)


class TestIsNet:
    def test_running_example(self):
        M = I("a^2*e, b^3*f, c*e^2, d^2*f^3")
        assert is_net(M, ["e", "f"])
        assert is_net(M, ["d", "e", "f"])  # net, but not minimal
        assert is_net(M, ["b", "d", "e", "f"])
        assert not is_net(M, ["b", "c", "d"])  # the misprinted candidate
        assert not is_net(M, [])

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariableError):
            is_net(I("a, b"), ["z"])


class TestMinimalNets:
    def test_running_example_family(self):
        M = I("a^2*e, b^3*f, c*e^2, d^2*f^3")
        family = {frozenset(net.names(M)) for net in minimal_nets(M)}
        assert family == {
            frozenset({"e", "f"}),
            frozenset({"a", "b", "c", "d"}),
            frozenset({"a", "c", "f"}),
            frozenset({"b", "d", "e"}),
        }

    def test_single_net(self):
        M = I("a*d, b*d, c*d, d^2", ["a", "b", "c", "d"])
        fam = minimal_nets(M)
        assert [net.names(M) for net in fam] == [("d",)]

    def test_polarized_family(self):
        M = I("a*d, b*d, c*d, d^2", ["a", "b", "c", "d"])
        P = polarize(M)
        fam = minimal_nets(P)
        assert [net.names(P) for net in fam] == [
            ("d_1",),
            ("a_1", "b_1", "c_1", "d_2"),
        ]

    def test_matches_brute_force(self):
        for text in (
            "a^2*e, b^3*f, c*e^2, d^2*f^3",
            "a*b, c*d, a*c, b*d",
            "a*e, b*e, c*e, d*e, a*b, c*d",
            "x1^2, x1*x2, x1*x3, x1*x4",
        ):
            M = I(text)
            assert family_as_tuples(minimal_nets(M)) == brute_minimal_nets(M)

    def test_family_is_antichain(self):
        M = I("a*e, b*e, c*e, d*e, a*b, c*d")
        fam = [set(net.variables) for net in minimal_nets(M)]
        for i, X in enumerate(fam):
            for j, Y in enumerate(fam):
                assert i == j or not X < Y

    def test_unused_variable_never_in_net(self):
        M = I("a^2, a*b", ["a", "b", "z"])
        for net in minimal_nets(M):
            assert M.table.index("z") not in net.variables

    def test_family_equality_ignores_discovery_order(self):
        # same supports, in a different canonical generator order, so
        # Berge finds the same nets in a different order
        names = ["a", "b", "c", "d", "e"]
        M = I("a^2*b*d, a*c^2*e, b*c*d*e^2", names)
        N = I("a*b^2*d, a^2*c*e, b*c*d^2*e", names)
        assert M.support_masks != N.support_masks
        assert minimal_nets(M) == minimal_nets(N)
        assert hash(minimal_nets(M)) == hash(minimal_nets(N))

    def test_family_guard(self, monkeypatch):
        monkeypatch.setattr("monodom.nets.NET_FAMILY_GUARD", 1)
        M = I("a*b, c*d")
        with pytest.raises(GuardExceeded) as exc:
            minimal_nets(M)
        assert str(exc.value) == "2 candidate minimal nets exceed the guard of 1"

    def test_nets_equal_the_all_bits_construction(self):
        # reading each net's variables off the set bits of its mask must
        # give the nets that testing every variable bit in turn gives
        rng = random.Random(6)
        for _ in range(60):
            n = rng.randint(1, 40)
            tbl = table(*(f"x{i}" for i in range(1, n + 1)))
            edges = []
            for _ in range(rng.randint(1, 8)):
                support = rng.sample(range(n), rng.randint(1, min(n, 6)))
                edges.append(Monomial(tbl, tuple(int(i in support) for i in range(n))))
            M = minimalize(edges)
            masks = _kernels.minimal_transversals(M.support_masks, 10**5)
            old = sorted(
                (bin(m).count("1"), tuple(i for i in range(n) if m >> i & 1))
                for m in masks
            )
            fam = minimal_nets(M)
            assert [(net.cardinality, net.variables) for net in fam] == old


def berge_and_search(X):
    """Berge's family and the include/exclude search's, each as a set of masks."""
    found = _kernels.minimal_transversals(X.support_masks, 10**5)
    sizes = [m.bit_count() for m in found]
    assert sizes == sorted(sizes) and len(found) == len(set(found))
    return set(found), set(reference_transversals(X.support_masks, X.n))


class TestBergeMatchesTheSearch:
    """The edge-by-edge family against the depth-first search it replaced."""

    def test_exhaustive_families_and_their_polarizations(self):
        for M in EXHAUSTIVE:
            for X in (M, polarize(M)):
                berge, search = berge_and_search(X)
                assert berge == search, X.render()

    def test_fuzz_draws_and_their_polarizations(self):
        params = FuzzParams(n_max=6, q_max=10, exp_max=3, trials=0, seed=7)
        for t in range(300):
            M = random_ideal(params, t)
            for X in (M, polarize(M)):
                berge, search = berge_and_search(X)
                assert berge == search, X.render()

    def test_seeded_hypergraphs(self):
        rng = random.Random(21)
        for _ in range(300):
            n = rng.randint(1, 14)
            edges = [
                sum(1 << v for v in rng.sample(range(n), rng.randint(1, min(n, 5))))
                for _ in range(rng.randint(1, 12))
            ]
            found = _kernels.minimal_transversals(edges, 10**5)
            assert set(found) == set(reference_transversals(edges, n)), edges

    def test_thirty_cycle(self):
        # the minimal vertex covers of C30 are the complements of its maximal
        # independent sets, which the Perrin number P(30) = 4,610 counts
        M = cycle_ideal(30)
        fam = minimal_nets(M)
        assert len(fam) == 4610
        assert (fam.min_card, fam.max_card) == (15, 20)


class TestCodim:
    @pytest.mark.parametrize(
        "text,vars,expected",
        [
            ("a*d, b*d, c*d", ["a", "b", "c", "d"], 1),
            ("a, b, c", None, 3),
            ("x1^2, x1*x2, x1*x3, x1*x4, x1*x5", None, 1),
            ("a*b, c*d, a*c, b*d", None, 2),
        ],
    )
    def test_values(self, text, vars, expected):
        assert minimal_nets(I(text, vars)).min_card == expected


class TestOdomByNets:
    def test_known_values(self):
        assert odom_by_nets(I("a*e, b*e, c*e, d*e, a*b, c*d"))[0] == 4
        assert odom_by_nets(I("a*d, b*d, c*d, d^2", ["a", "b", "c", "d"]))[0] == 4
        assert odom_by_nets(I("a*b, c*d, a*c, b*d"))[0] == 2

    def test_witness_is_net_of_polarization(self):
        M = I("a*d, b*d, c*d, d^2", ["a", "b", "c", "d"])
        value, net = odom_by_nets(M)
        P = polarize(M)
        assert is_net(P, net.variables)
        assert net.cardinality == value == 4

    def test_witness_is_widest_polarized_net(self):
        M = I("a^2*b, a*b^2, a*c, b*c^2, c^3")
        family = minimal_nets(polarize(M))
        value, net = odom_by_nets(M)
        assert (value, net) == (family.max_card, family.widest)
        widest = [n.variables for n in family if n.cardinality == family.max_card]
        assert net.variables == min(widest)


class TestAssociatedPrimes:
    # minimal nets read as generating sets of the minimal monomial primes
    def test_four_cycle(self):
        M = I("a*b, c*d, a*c, b*d")
        assert {net.names(M) for net in minimal_nets(M)} == {("a", "d"), ("b", "c")}

    def test_maximal_prime(self):
        M = I("a, b, c")
        assert [net.names(M) for net in minimal_nets(M)] == [("a", "b", "c")]


class TestDominantSetFromNet:
    def test_recurrence_trace(self):
        M = I("a^2*e, b^3*f, c*e^2, d^2*f^3")
        w = dominant_set_from_net(M, ["e", "f"])
        assert {str(m) for m in w.member_monomials(M)} == {"a^2*e", "b^3*f"}
        assert {M.exponent_rows[g][v] for g, v in zip(w.members, w.variables)} == {1}

    def test_identity_case(self):
        M = I("a, b, c")
        w = dominant_set_from_net(M, ["a", "b", "c"])
        assert w.members == (0, 1, 2)

    def test_singleton_groups(self):
        M = I("a*d, b*d, c*d", ["a", "b", "c", "d"])
        w = dominant_set_from_net(M, ["a", "b", "c"])
        assert {str(m) for m in w.member_monomials(M)} == {"a*d", "b*d", "c*d"}

    def test_rejects_non_minimal_net(self):
        M = I("a^2*e, b^3*f, c*e^2, d^2*f^3")
        with pytest.raises(ValueError):
            dominant_set_from_net(M, ["d", "e", "f"])
        with pytest.raises(ValueError):
            dominant_set_from_net(M, ["a", "b"])

    def test_output_is_dominant_with_covering_powers(self):
        for text in (
            "a^2*e, b^3*f, c*e^2, d^2*f^3",
            "a*e, b*e, c*e, d*e, a*b, c*d",
            "a*b, c*d, a*c, b*d",
        ):
            M = I(text)
            for net in minimal_nets(M):
                w = dominant_set_from_net(M, net)
                assert is_dominant_set(M, w.members)[0]
                assert len(w.members) == net.cardinality


# ---------------------------------------------------------------------------
# properties

@st.composite
def small_ideals(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    tbl = table(*(f"x{i}" for i in range(1, n + 1)))
    k = draw(st.integers(min_value=1, max_value=5))
    mons = []
    for _ in range(k):
        exps = tuple(draw(st.integers(min_value=0, max_value=3)) for _ in range(n))
        if any(exps):
            mons.append(Monomial(tbl, exps))
    if not mons:
        mons = [Monomial(tbl, (1,) * n)]
    return minimalize(mons)


@given(small_ideals())
@settings(max_examples=80, deadline=None)
def test_enumeration_complete_against_brute_force(M):
    assert family_as_tuples(minimal_nets(M)) == brute_minimal_nets(M)
    P = polarize(M)  # up to 12 polarized variables at these draws
    assert family_as_tuples(minimal_nets(P)) == brute_minimal_nets(P)


@given(small_ideals())
@settings(max_examples=80, deadline=None)
def test_codim_le_odom(M):
    assert minimal_nets(M).min_card <= odom_by_nets(M)[0]


@given(small_ideals())
@settings(max_examples=60, deadline=None)
def test_odom_routes_agree(M):
    assert odom_by_nets(M)[0] == odom_by_dominance(M)[0]


@given(small_ideals())
@settings(max_examples=60, deadline=None)
def test_polarized_nets_never_repeat_a_base_variable(M):
    P = polarize(M)
    for net in minimal_nets(P):
        bases = [P.table.base_of(v) for v in net.variables]
        assert len(bases) == len(set(bases))


@given(small_ideals())
@settings(max_examples=60, deadline=None)
def test_base_nets_lift_to_polarization(M):
    P = polarize(M)
    pol_fam = {net.names(P) for net in minimal_nets(P)}
    for net in minimal_nets(M):
        lifted = tuple(sorted(
            (f"{M.table.names[v]}_1" for v in net.variables),
            key=lambda name: P.table.index(name),
        ))
        assert lifted in pol_fam


@given(small_ideals())
@settings(max_examples=40, deadline=None)
def test_squarefree_nets_match_polarization(M):
    if any(e > 1 for g in M.generators for e in g.exponents):
        return
    P = polarize(M)
    base = {tuple(f"{nm}_1" for nm in net.names(M)) for net in minimal_nets(M)}
    pol = {net.names(P) for net in minimal_nets(P)}
    assert base == pol


@given(small_ideals(), st.data())
@settings(max_examples=60, deadline=None)
def test_net_to_dominant_set_roundtrip(M, data):
    fam = minimal_nets(M)
    net = data.draw(st.sampled_from(list(fam.nets)))
    w = dominant_set_from_net(M, net)
    assert is_dominant_set(M, w.members)[0]
    assert len(w.members) == net.cardinality
    # realizes the net's cardinality as a lower bound for odom
    assert odom_by_dominance(M)[0] >= net.cardinality
