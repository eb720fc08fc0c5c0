import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monodom import (
    GuardExceeded,
    IdealSyntaxError,
    InvalidIdealError,
    Monomial,
    MonomialIdeal,
    TableMismatchError,
    UnknownVariableError,
    VariableTable,
    lcm_of,
    minimalize,
    parse_ideal,
    polarize,
    table,
)

from monodom.monomials import _canonical_ideal, memo

from conftest import I, reference_minimalize, row_ideals

ABC = table("a", "b", "c")


def m(tbl, *exps):
    return Monomial(tbl, tuple(exps))


class TestLcmDivides:
    def test_lcm_componentwise_max(self):
        assert m(ABC, 2, 1, 0).lcm(m(ABC, 0, 1, 2)) == m(ABC, 2, 1, 2)

    def test_lcm_unit_identity(self):
        x = m(ABC, 1, 2, 3)
        assert x.lcm(m(ABC, 0, 0, 0)) == x

    def test_lcm_of_four_generators(self):
        G = I("a^2*b, a*b^3*c, b*c^2, a^2*c^2")
        assert str(G.lcm()) == "a^2*b^3*c^2"

    def test_divides(self):
        tbl = ABC
        assert m(tbl, 1, 1, 0).divides(m(tbl, 2, 2, 1))
        assert not m(tbl, 1, 2, 0).divides(m(tbl, 1, 1, 0))
        assert m(tbl, 0, 0, 0).divides(m(tbl, 5, 0, 1))

    def test_table_mismatch(self):
        other = table("x", "y", "z")
        with pytest.raises(TableMismatchError):
            m(ABC, 1, 0, 0).lcm(m(other, 1, 0, 0))
        with pytest.raises(TableMismatchError):
            m(ABC, 1, 0, 0).divides(m(other, 1, 0, 0))


class TestHash:
    """A monomial hashes its exponents only; equality still compares tables."""

    def test_equal_tables_built_apart_hash_equal(self):
        left, right = table("a", "b", "c"), table("a", "b", "c")
        assert left is not right
        x, y = m(left, 2, 0, 1), m(right, 2, 0, 1)
        assert x == y and hash(x) == hash(y)
        assert {x: 1}[y] == 1
        assert len({x, y}) == 1

    @pytest.mark.parametrize(
        "other",
        [table("x", "y", "z"), VariableTable(("a", "b", "c"), (("a", 1), ("b", 1), ("c", 1)))],
        ids=["renamed", "polarization-origins"],
    )
    def test_equal_exponents_on_different_tables_stay_apart(self, other):
        x, y = m(ABC, 1, 2, 0), m(other, 1, 2, 0)
        assert x != y and hash(x) == hash(y)
        keys = {x: "abc", y: "other"}
        assert len(keys) == 2
        assert keys[x] == "abc" and keys[y] == "other"


class TestSupport:
    def test_support_names(self):
        M = I("a^2*e, d^2*f^3")
        sup = M.generators[0].support()
        assert tuple(M.table.names[i] for i in sup) in (("a", "e"), ("d", "f"))

    def test_support_of_unit_empty(self):
        assert m(ABC, 0, 0, 0).support() == ()

    def test_support_mask(self):
        assert m(ABC, 2, 0, 1).support_mask() == 0b101


class TestMinimalize:
    def test_drops_multiples(self):
        tbl = table("a", "b")
        out = minimalize([m(tbl, 1, 0), m(tbl, 1, 1), m(tbl, 0, 2)])
        assert {str(g) for g in out.generators} == {"a", "b^2"}

    def test_already_minimal_unchanged(self):
        M = I("a*d, b*d, c*d")
        again = minimalize(list(M.generators))
        assert again == M

    def test_dedup(self):
        tbl = table("a")
        assert minimalize([m(tbl, 1), m(tbl, 1)]).q == 1

    def test_empty_and_unit_inputs(self):
        tbl = table("a")
        with pytest.raises(InvalidIdealError):
            minimalize([])
        with pytest.raises(InvalidIdealError):
            minimalize([m(tbl, 0)])
        with pytest.raises(InvalidIdealError):
            minimalize([m(tbl, 0), m(tbl, 2)])

    def test_non_minimal_generators_name_the_first_dividing_pair(self):
        # a*b divides a^2*b (the first generator with a divisor), but c,
        # which divides both b*c and a*c, comes first among the divisors
        gens = [m(ABC, 2, 1, 0), m(ABC, 0, 0, 1), m(ABC, 1, 1, 0),
                m(ABC, 0, 1, 1), m(ABC, 1, 0, 1)]
        with pytest.raises(
            InvalidIdealError, match=r"^non-minimal generating set: c divides b\*c$"
        ):
            MonomialIdeal(ABC, tuple(gens))

    def test_idempotent_and_order_insensitive(self):
        tbl = table("a", "b", "c")
        mons = [m(tbl, 1, 0, 0), m(tbl, 1, 1, 0), m(tbl, 0, 2, 0), m(tbl, 0, 2, 1)]
        ref = minimalize(mons)
        assert minimalize(list(ref.generators)) == ref
        assert minimalize(mons[::-1]) == ref


class TestPolarize:
    def test_mixed_powers_polarization(self):
        M = I("a*d, b*d, c*d, d^2", ["a", "b", "c", "d"])
        P = polarize(M)
        assert P.table.names == ("a_1", "b_1", "c_1", "d_1", "d_2")
        assert {str(g) for g in P.generators} == {
            "a_1*d_1",
            "b_1*d_1",
            "c_1*d_1",
            "d_1*d_2",
        }

    def test_squarefree_is_renaming(self):
        M = I("a*d, b*d, c*d")
        P = polarize(M)
        assert P.q == M.q
        assert all(all(e <= 1 for e in g.exponents) for g in P.generators)
        assert tuple(g.degree() for g in P.generators) == tuple(
            g.degree() for g in M.generators
        )

    def test_direct_expansion(self):
        P = polarize(I("a^2, a*b, b^2"))
        assert {str(g) for g in P.generators} == {"a_1*a_2", "a_1*b_1", "b_1*b_2"}

    def test_idempotent_up_to_renaming(self):
        M = I("a^2*b, c^3, a*c^2")
        P = polarize(M)
        PP = polarize(P)
        assert sorted(g.exponents for g in PP.generators) == sorted(
            g.exponents for g in P.generators
        )

    def test_table_tracks_origins(self):
        P = polarize(I("a^2, b"))
        assert P.table.origins == (("a", 1), ("a", 2), ("b", 1))
        assert P.table.base_of(1) == "a"

    def test_variable_bound(self):
        from monodom.monomials import POLARIZE_GUARD

        assert polarize(I(f"a^{POLARIZE_GUARD - 1}*b")).n == POLARIZE_GUARD
        with pytest.raises(GuardExceeded, match="1001 variables"):
            polarize(I(f"a^{POLARIZE_GUARD}*b"))
        with pytest.raises(GuardExceeded):
            polarize(I("a^3000000000*b, b^2"))


class TestUncheckedPolarizationTable:
    def test_the_checked_constructor_gives_an_equal_table(self):
        for P in row_ideals()[len(row_ideals()) // 2:]:
            t = P.table
            assert VariableTable(t.names, t.origins) == t

    def test_base_names_that_look_like_copies(self):
        # each polarized name split at its last "_" gives back its origin
        P = polarize(I("x^2*x_1^2*x_1_1", ["x", "x_1", "x_1_1"]))
        assert P.table.names == ("x_1", "x_2", "x_1_1", "x_1_2", "x_1_1_1")
        assert len(set(P.table.names)) == 5
        assert P.table.origins == (("x", 1), ("x", 2), ("x_1", 1), ("x_1", 2), ("x_1_1", 1))
        assert VariableTable(P.table.names, P.table.origins) == P.table


class TestRowsDerived:
    def test_support_masks_are_the_generators_supports(self):
        for M in row_ideals():
            assert M.support_masks == tuple(g.support_mask() for g in M.generators)

    def test_exponent_rows_are_the_generators_exponents(self):
        for M in row_ideals():
            assert M.exponent_rows == tuple(g.exponents for g in M.generators)

    def test_canonical_ideal_keeps_the_rows_it_was_given(self):
        rows = [(2, 1, 0), (0, 1, 3)]
        M = _canonical_ideal(ABC, rows)
        assert vars(M)["exponent_rows"] == tuple(rows)
        assert M == MonomialIdeal(ABC, (m(ABC, 0, 1, 3), m(ABC, 2, 1, 0)))


class TestMemo:
    def test_class_access_returns_the_descriptor(self):
        prop = MonomialIdeal.support_masks
        assert isinstance(prop, memo)
        assert prop.func.__name__ == "support_masks"
        assert prop.attrname == "support_masks"

    def test_first_read_stores_the_value_and_later_reads_do_not_call(self):
        calls = []

        class Box:
            @memo
            def value(self):
                """The docstring."""
                calls.append(self)
                return [len(calls)]

            alias = memo(value.func)  # __set_name__ names the slot

        assert Box.value.__doc__ == "The docstring."
        box = Box()
        assert "value" not in vars(box)
        first = box.value
        assert vars(box)["value"] is first
        assert box.value is first and box.value is first
        assert calls == [box]
        assert box.alias == [2] and vars(box)["alias"] == [2]
        assert calls == [box, box]

    def test_on_a_frozen_ideal(self):
        M = I("a^2*b, b*c")
        assert "support_masks" not in vars(M)
        masks = M.support_masks
        assert masks == (0b011, 0b110)
        assert vars(M)["support_masks"] is masks
        assert M.support_masks is masks
        with pytest.raises(dataclasses.FrozenInstanceError):
            M.support_masks = ()


class TestCanonicalOrder:
    def test_descending_lex(self):
        M = I("b*d, a*d, d^2, c*d", ["a", "b", "c", "d"])
        assert [str(g) for g in M.generators] == ["a*d", "b*d", "c*d", "d^2"]

    def test_reordering_gives_equal_ideal(self):
        fixed = ["a", "b"]
        assert I("a^2, a*b, b^2", fixed) == I("b^2, a*b, a^2", fixed)


class TestParse:
    def test_explicit_vars_fix_n(self):
        M = I("a*d, b*d, c*d", ["a", "b", "c", "d"])
        assert M.n == 4 and M.q == 3

    def test_inferred_vars_first_appearance(self):
        M = I("c*a, b")
        assert M.table.names == ("c", "a", "b")

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariableError):
            I("a*z", ["a", "b"])

    def test_unknown_variable_message(self):
        with pytest.raises(UnknownVariableError, match=r"^unknown variable 'z' at position 5$"):
            I("b, a*z", ["a", "b"])

    def test_many_shared_variables_end_in_the_pairwise_guard(self):
        # about 120,000 factors naming 1,118 variables: each name is found
        # in a dict, so parsing reaches the pairwise guard in linear time
        shared = "*".join(f"x{i}" for i in range(1, 999))
        text = ", ".join(f"{shared}*y{k}" for k in range(1, 121))
        with pytest.raises(GuardExceeded, match="of 120 generators in 1118 variables"):
            I(text)

    def test_syntax_error_position(self):
        with pytest.raises(IdealSyntaxError) as exc:
            I("a*^2")
        assert exc.value.position >= 0
        with pytest.raises(IdealSyntaxError):
            I("a,,b")
        with pytest.raises(IdealSyntaxError):
            I("")
        with pytest.raises(IdealSyntaxError):
            I("a^0")

    def test_minimalization_warning(self):
        with pytest.warns(UserWarning):
            M = I("a, a*b")
        assert M.render() == "a"

    def test_whitespace_ignored(self):
        assert I(" a^2 * e ,b ") == I("a^2*e,b")

    def test_roundtrip(self):
        for text in ("a*d, b*d, c*d, d^2", "a^2*e, b^3*f, c*e^2, d^2*f^3", "x1"):
            M = I(text)
            assert parse_ideal(M.render(), M.table.names) == M


# ---------------------------------------------------------------------------
# properties

small_tables = st.integers(min_value=1, max_value=4).map(
    lambda n: table(*(f"x{i}" for i in range(1, n + 1)))
)


@st.composite
def monomials(draw, tbl=None):
    t = tbl or draw(small_tables)
    exps = draw(
        st.lists(
            st.integers(min_value=0, max_value=3), min_size=t.n, max_size=t.n
        )
    )
    return Monomial(t, tuple(exps))


@st.composite
def monomial_triples(draw):
    t = draw(small_tables)
    return tuple(draw(monomials(tbl=t)) for _ in range(3))


@given(monomial_triples())
@settings(max_examples=100)
def test_lcm_associative_commutative_idempotent(triple):
    a, b, c = triple
    assert a.lcm(b) == b.lcm(a)
    assert a.lcm(b).lcm(c) == a.lcm(b.lcm(c))
    assert a.lcm(a) == a


@given(st.data())
@settings(max_examples=60)
def test_minimalize_permutation_invariant(data):
    t = data.draw(small_tables)
    mons = data.draw(
        st.lists(monomials(tbl=t), min_size=1, max_size=6).filter(
            lambda ms: any(not m.is_unit for m in ms)
        )
    )
    if any(m.is_unit for m in mons):
        mons = [m for m in mons if not m.is_unit]
    perm = data.draw(st.permutations(mons))
    assert minimalize(mons) == minimalize(perm)


@given(st.data())
@settings(max_examples=40)
def test_polarize_idempotent_structure(data):
    t = data.draw(small_tables)
    mons = data.draw(st.lists(monomials(tbl=t), min_size=1, max_size=4))
    mons = [m for m in mons if not m.is_unit]
    if not mons:
        return
    M = minimalize(mons)
    P = polarize(M)
    PP = polarize(P)
    assert sorted(g.exponents for g in PP.generators) == sorted(
        g.exponents for g in P.generators
    )
    assert lcm_of(P.generators).degree() == lcm_of(M.generators).degree()


def _outcome(build, mons):
    """The ideal's table and rows, each generator's table, or the exception raised."""
    try:
        M = build(mons)
    except Exception as e:
        return type(e), str(e)
    return M.table, M.exponent_rows, {g.table for g in M.generators}


@given(st.data())
@settings(max_examples=300)
def test_minimalize_matches_the_validating_path(data):
    # duplicates, multiples, the unit, and monomials from other tables: a
    # table equal to the first by value is the same ring, a renamed or a
    # longer one is not
    t = data.draw(small_tables)
    mons = data.draw(st.lists(monomials(tbl=t), max_size=8))
    if mons and data.draw(st.booleans()):
        a, b = data.draw(st.sampled_from(mons)), data.draw(st.sampled_from(mons))
        mons.insert(data.draw(st.integers(0, len(mons))), a.lcm(b))
    if mons and data.draw(st.booleans()):
        mons.insert(data.draw(st.integers(0, len(mons))), data.draw(st.sampled_from(mons)))
    if data.draw(st.integers(0, 4)) == 0:
        mons.insert(data.draw(st.integers(0, len(mons))), Monomial(t, (0,) * t.n))
    if mons and data.draw(st.integers(0, 3)) == 0:
        other = data.draw(
            st.sampled_from(
                [
                    VariableTable(t.names),
                    VariableTable(tuple(f"y{i}" for i in range(1, t.n + 1))),
                    VariableTable(t.names + ("z",)),
                ]
            )
        )
        stranger = data.draw(monomials(tbl=other))
        mons.insert(data.draw(st.integers(0, len(mons))), stranger)
    assert _outcome(minimalize, mons) == _outcome(reference_minimalize, mons)


def test_minimalize_matches_the_validating_path_on_errors():
    tbl = table("a", "b")
    cases = [
        [],
        [m(tbl, 0, 0)],
        [m(tbl, 1, 0), m(tbl, 0, 0), m(tbl, 1, 0)],
        [m(tbl, 1, 0), m(table("a", "c"), 1, 0)],
        [m(tbl, 0, 0), m(table("a", "b", "c"), 1, 0, 0)],
    ]
    for mons in cases:
        out = _outcome(minimalize, mons)
        assert isinstance(out[0], type) and issubclass(out[0], Exception)
        assert out == _outcome(reference_minimalize, mons)
    # past the pairwise guard, before anything is compared
    big = [Monomial(tbl, (i, 3000 - i)) for i in range(3000)] + [m(tbl, 0, 0)]
    out = _outcome(minimalize, big)
    assert out[0] is GuardExceeded
    assert out == _outcome(reference_minimalize, big)
