import random
from copy import deepcopy
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monodom import (
    RATIONAL,
    Analysis,
    FreeComplex,
    FuzzParams,
    InternalInvariantError,
    InvalidParameterError,
    Monomial,
    PrimeField,
    betti_oracle,
    build_taylor,
    check_report,
    is_complete_intersection,
    minimalize,
    minimize,
    odom_by_dominance,
    polarize,
    random_ideal,
    table,
)
from monodom import _kernels
from monodom.taylor import facets, lyubeznik_faces, taylor_faces

from conftest import (
    EXHAUSTIVE,
    I,
    RANDOM_DRAWS,
    brute_strand_betti,
    cycle_ideal,
    minimize_randomly,
    path_ideal,
    pure_power_extension,
    rp2_ideal,
)


def mask_for(ideal, *gen_texts):
    lookup = {str(g): i for i, g in enumerate(ideal.generators)}
    mask = 0
    for t in gen_texts:
        mask |= 1 << lookup[t]
    return mask


class TestFindInvertible:
    def test_minimized_complex_has_none(self):
        cx, _ = minimize(I("a^2, a*b, b^2"))
        assert cx.find_invertible() is None

    def test_collision_entry_found(self):
        M = I("a^2, a*b, b^2")
        cx = FreeComplex(M)
        tau, sigma = cx.find_invertible()
        assert sigma.bit_count() == 3
        assert tau == mask_for(M, "a^2", "b^2")
        assert sigma == mask_for(M, "a^2", "a*b", "b^2")

    def test_distinct_mdegs_mean_none(self):
        cx = FreeComplex(I("a*d, b*d, c*d"))
        assert cx.find_invertible() is None


class TestCancel:
    def test_single_step_trace(self):
        M = I("a^2, a*b, b^2")
        cx = FreeComplex(M)
        tau, sigma = cx.find_invertible()
        cx.cancel(tau, sigma)
        assert [len(st_) for st_ in cx.strata] == [1, 3, 2, 0]
        cx.validate()

    def test_unit_entry_two_term_strand_cancels_to_nothing(self):
        # the a^2*b^2 strand of (a^2, ab, b^2) is a two-term complex joined
        # by a unit entry; cancelling it empties the strand entirely
        M = I("a^2, a*b, b^2")
        cx = FreeComplex(M)
        target = (2, 2)
        strand_before = [
            mask
            for st_ in cx.strata
            for mask in st_
            if cx.mdeg(mask).exponents == target
        ]
        assert len(strand_before) == 2
        cx.cancel(*cx.find_invertible())
        strand_after = [
            mask
            for st_ in cx.strata
            for mask in st_
            if cx.mdeg(mask).exponents == target
        ]
        assert strand_after == []

    def test_single_generator_has_nothing_invertible(self):
        # [0] <- [a] carries monomial part a, never a unit
        cx = FreeComplex(I("a"))
        assert cx.find_invertible() is None

    def test_non_invertible_pivot_rejected(self):
        M = I("a^2, a*b, b^2")
        cx = FreeComplex(M)
        with pytest.raises(ValueError):
            cx.cancel(0, mask_for(M, "a^2"))

    def test_schur_update_values(self):
        # cancelling the top pair of (a^2, ab, b^2) must leave an exact
        # complex with the textbook two-column first syzygy matrix
        M = I("a^2, a*b, b^2")
        cx = FreeComplex(M)
        cx.cancel(*cx.find_invertible())
        faces = cx.strata[2]
        assert len(faces) == 2
        for col in map(cx.cols.get, faces):
            assert sorted(abs(v) for v in col.values()) == [1, 1]


    @pytest.mark.parametrize("field", [RATIONAL, PrimeField(5)], ids=lambda f: f.name)
    def test_non_unit_pivot_is_divided_by(self, field):
        # scaling column sigma by 2, and row sigma of the matrix above by
        # 1/2, is a change of basis that leaves the Schur update as it
        # was, so cancelling the scaled pivot gives the unscaled result
        M = I("a^2*b, a*b^2, a*c, b*c^2, c^3")
        cx = FreeComplex(M, field)
        tau, sigma = next(
            (tau, sigma)
            for tau, sigma in cx.all_invertible()
            if sigma.bit_count() < cx.q and len(cx.cols[sigma]) > 1 and len(cx.rows[tau]) > 1
        )
        reference = cx.copy().cancel(tau, sigma)
        p = field.p

        def scaled(value, factor):
            return value * factor % p if p else value * factor

        column = cx.cols[sigma]
        for row in column:
            column[row] = scaled(column[row], 2)
        for col in cx.cols.values():
            if sigma in col:
                col[sigma] = scaled(col[sigma], field.div(1, 2))
        cx.validate()
        assert cx.cols[sigma][tau] not in (1, p - 1 if p else -1)
        cx.cancel(tau, sigma)
        assert cx.cols == reference.cols and cx.rows == reference.rows

    def test_rp2_takes_a_minus_two_pivot_over_q(self):
        # minimizing RP^2 over Q from the Taylor start takes a -2 pivot in
        # degree 4, with 14 other columns in its row, so the Schur update
        # stores Fractions; they cancel away later
        cx = FreeComplex(rp2_ideal())
        non_unit = []
        while (hit := cx.find_invertible()) is not None:
            tau, sigma = hit
            pivot = cx.cols[sigma][tau]
            cx.cancel(tau, sigma)
            if pivot not in (1, -1):
                non_unit.append((sigma.bit_count(), pivot))
                cx.validate()
                assert any(
                    type(val) is Fraction for col in cx.cols.values() for val in col.values()
                )
        assert non_unit == [(4, -2)]
        assert cx.betti_table().total == (1, 10, 15, 6)


class TestMinimize:
    @pytest.mark.parametrize(
        "text,vars,total,pd",
        [
            ("a*d, b*d, c*d", ["a", "b", "c", "d"], (1, 3, 3, 1), 3),
            ("a*d, b*d, c*d, d^2", ["a", "b", "c", "d"], (1, 4, 6, 4, 1), 4),
            ("a^2, a*b, b^2", None, (1, 3, 2), 2),
            ("a*b, c*d, a*c, b*d", None, (1, 4, 4, 1), 3),
            ("a, b, c", None, (1, 3, 3, 1), 3),
        ],
    )
    def test_betti_values(self, text, vars, total, pd):
        _, bt = minimize(I(text, vars))
        assert bt.total == total
        assert bt.pd == pd

    def test_taylor_minimal_ideal_cancels_nothing(self):
        M = I("a*d, b*d, c*d")
        cx, bt = minimize(M)
        assert [len(s) for s in cx.strata] == [1, 3, 3, 1]

    def test_graded_betti(self):
        _, bt = minimize(I("a^2, a*b, b^2"))
        assert bt.graded == {(0, 0): 1, (1, 2): 3, (2, 3): 2}

    def test_multigraded_betti(self):
        M = I("a*d, b*d, c*d", ["a", "b", "c", "d"])
        _, bt = minimize(M)
        top = Monomial(M.table, (1, 1, 1, 1))
        assert bt.multigraded[(3, top)] == 1

    def test_betti_zero_always_one(self):
        for text in ("a", "a^2, a*b, b^2", "a*b, c*d, a*c, b*d"):
            assert minimize(I(text))[1].total[0] == 1


class TestOracle:
    def test_strand_values_for_collision_example(self):
        M = I("a^2, a*b, b^2")
        bt = betti_oracle(M)
        t = M.table
        assert bt.multigraded[(2, Monomial(t, (2, 1)))] == 1
        assert bt.multigraded[(2, Monomial(t, (1, 2)))] == 1
        assert (2, Monomial(t, (2, 2))) not in bt.multigraded
        assert bt.total == (1, 3, 2)

    def test_singleton_strand(self):
        M = I("a*d, b*d, c*d", ["a", "b", "c", "d"])
        bt = betti_oracle(M)
        assert bt.multigraded[(3, Monomial(M.table, (1, 1, 1, 1)))] == 1

    def test_polarization_preserves_betti(self):
        for text in ("a*d, b*d, c*d, d^2", "a^2, a*b, b^2", "x1^2, x1*x2, x1*x3"):
            M = I(text)
            P = polarize(M)
            a, b = betti_oracle(M), betti_oracle(P)
            assert a.total == b.total
            assert a.graded == b.graded

    @pytest.mark.parametrize(
        "text",
        [
            "a*d, b*d, c*d",
            "a*d, b*d, c*d, d^2",
            "a^2, a*b, b^2",
            "a*b, c*d, a*c, b*d",
            "a^2*e, b^3*f, c*e^2, d^2*f^3",
            "a*e, b*e, c*e, d*e, a*b, c*d",
            "x1^2, x1*x2, x1*x3, x1*x4, x1*x5",
        ],
    )
    def test_engine_equals_oracle(self, text):
        M = I(text)
        assert minimize(M)[1] == betti_oracle(M)


class TestFields:
    def test_prime_field_matches_rationals_at_desk_scale(self):
        fp = PrimeField(32003)
        for text in ("a^2, a*b, b^2", "a*b, c*d, a*c, b*d"):
            M = I(text)
            assert minimize(M, field=fp)[1].total == minimize(M)[1].total
            assert betti_oracle(M, field=fp).total == betti_oracle(M).total

    @pytest.mark.parametrize(
        "field,total",
        [
            (RATIONAL, (1, 10, 15, 6)),
            (PrimeField(2), (1, 10, 15, 7, 1)),
            (PrimeField(3), (1, 10, 15, 6)),
        ],
    )
    def test_rp2_betti_numbers_depend_on_the_characteristic(self, field, total):
        M = rp2_ideal()
        engine = minimize(M, field)[1]
        assert engine == betti_oracle(M, field)
        assert engine.total == total

    def test_field_recorded(self):
        assert minimize(I("a"))[1].field_name == "rational"
        assert minimize(I("a"), field=PrimeField(101))[1].field_name == "fp:101"

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError):
            PrimeField(32004)

    @pytest.mark.parametrize("p", [2**61 - 1, 10**18 + 3])
    def test_large_primes_accepted(self, p):
        assert PrimeField(p).name == f"fp:{p}"

    # 561 is a Carmichael number, 3215031751 a strong pseudoprime to the
    # bases 2, 3, 5 and 7, and the last one to every prime base up to 37
    @pytest.mark.parametrize("n", [4, 561, 3215031751, 318665857834031151167461])
    def test_composites_rejected(self, n):
        with pytest.raises(InvalidParameterError, match="not prime"):
            PrimeField(n)

    def test_prime_beyond_deterministic_range_rejected(self):
        with pytest.raises(InvalidParameterError, match="too large"):
            PrimeField(10**25 + 13)

    def test_rational_quotient_is_int_unless_fractional(self):
        half = RATIONAL.div(1, 2)
        assert half == Fraction(1, 2) and type(half) is Fraction
        quot = RATIONAL.div(-4, 2)
        assert quot == -2 and type(quot) is int


class TestPivotOrderIndependence:
    def test_randomized_orders_agree(self):
        texts = [
            "a^2, a*b, b^2",
            "a*b, c*d, a*c, b*d",
            "a*d, b*d, c*d, d^2",
            "x1^2, x1*x2, x1*x3, x1*x4",
        ]
        for text in texts:
            M = I(text)
            reference = minimize(M)[1]
            for seed in range(6):
                assert minimize_randomly(M, random.Random(seed)) == reference


class TestValidation:
    def test_corrupted_scalar_is_detected(self):
        cx = FreeComplex(I("a^2, a*b, b^2"))
        sigma = cx.strata[2][0]
        tau = next(iter(cx.cols[sigma]))
        cx.cols[sigma][tau] = Fraction(7)
        with pytest.raises(Exception, match="d∘d"):
            cx.check_d_squared()

    def test_stored_zero_is_detected(self):
        cx = FreeComplex(I("a, b"))
        sigma = cx.strata[1][0]
        cx.cols[sigma][0] = Fraction(0)
        with pytest.raises(Exception, match="zero"):
            cx.check_multihomogeneous()

    def test_pivot_queue_matches_full_rescan(self):
        # a face the queue has passed never regains an invertible entry,
        # so the queue gives the scan-order pivot after every cancellation,
        # whether the entries are cancelled in scan order or at random
        params = FuzzParams(n_max=4, q_max=6, exp_max=3, trials=60, seed=77)
        rng = random.Random(77)
        out_of_order = 0
        for t in range(params.trials):
            M = random_ideal(params, t)
            for at_random in (False, True):
                cx = FreeComplex(M)
                while True:
                    pool = cx.all_invertible()
                    assert cx.find_invertible() == next(iter(pool), None)
                    if not pool:
                        break
                    hit = rng.choice(pool) if at_random else pool[0]
                    out_of_order += hit != pool[0]
                    cx.cancel(*hit)
                    cx.check_index()
        assert out_of_order >= 20


class TestIndex:
    def test_missing_row_entry_is_detected(self):
        cx = FreeComplex(I("a^2, a*b, b^2"))
        cx.check_index()
        row = cx.rows[cx.strata[1][0]]
        del row[next(iter(row))]
        with pytest.raises(InternalInvariantError, match="transpose"):
            cx.check_index()

    def test_dropped_queue_entry_is_detected(self):
        cx = FreeComplex(I("a^2, a*b, b^2"))
        _, sigma = cx.all_invertible()[0]
        cx.queue.remove(sigma)
        with pytest.raises(InternalInvariantError, match="not queued"):
            cx.check_index()

    def test_cancelling_in_a_copy_leaves_the_original(self):
        cx = FreeComplex(I("a^2*b, a*b^2, a*c, b*c^2, c^3"))
        before = deepcopy((cx.cols, cx.rows, cx.queue, cx.strata))
        dup = cx.copy()
        steps = 0
        while (hit := dup.find_invertible()) is not None:
            dup.cancel(*hit)
            steps += 1
        dup.check_index()
        assert steps >= 2
        assert (cx.cols, cx.rows, cx.queue, cx.strata) == before
        cx.check_index()


FIELDS_QF2F3 = (RATIONAL, PrimeField(2), PrimeField(3))
NAMED = {"P8": path_ideal(8), "P10": path_ideal(10), "C7": cycle_ideal(7), "RP2": rp2_ideal()}


def lyubeznik_complex(M, field=RATIONAL, order=None):
    return FreeComplex(M, field, lyubeznik_faces(M, order))


def cancel_all(cx):
    while (hit := cx.find_invertible()) is not None:
        cx.cancel(*hit)
    return cx.betti_table()


class TestTableEquality:
    def test_equal_counts_on_different_lattices_are_unequal(self):
        # one generator gets the same one-bit code whatever its exponent
        # or variable name; only the decoded tables tell them apart
        x2, x3, y2 = (minimize(I(text))[1] for text in ("x^2", "x^3", "y^2"))
        assert x2.counts == x3.counts == y2.counts
        assert x2.total == x3.total == y2.total
        assert x2 != x3 and x3 != x2 and x2 != y2
        assert x2 != betti_oracle(I("x^3"))
        assert x2 == betti_oracle(I("x^2"))

    @pytest.mark.parametrize("field", FIELDS_QF2F3, ids=lambda f: f.name)
    def test_both_starts_and_the_oracle_agree(self, field):
        for M in (*NAMED.values(), I("a^2*b, a*b^2, a*c, b*c^2, c^3")):
            lattice = build_taylor(M)  # held, so all three tables share it
            taylor = minimize(M, field)[1]
            lyubeznik = minimize(M, field, start="lyubeznik")[1]
            oracle = betti_oracle(M, field)
            assert taylor.lattice is lyubeznik.lattice is oracle.lattice is lattice
            assert taylor == lyubeznik == oracle
            assert taylor.counts == lyubeznik.counts == oracle.counts


class TestLyubeznikStart:
    @pytest.mark.parametrize("field", FIELDS_QF2F3, ids=lambda f: f.name)
    def test_exhaustive_families_match_the_taylor_start(self, field):
        assert len(EXHAUSTIVE) == 208
        rng = random.Random(9)
        for M in EXHAUSTIVE:
            taylor = minimize(M, field)[1]
            assert minimize(M, field, start="lyubeznik")[1] == taylor
            for _ in range(2):
                order = rng.sample(range(M.q), M.q)
                assert cancel_all(lyubeznik_complex(M, field, order)) == taylor

    @pytest.mark.parametrize("field", FIELDS_QF2F3, ids=lambda f: f.name)
    @pytest.mark.parametrize("name", NAMED)
    def test_named_ideals_match_the_taylor_start(self, name, field):
        M = NAMED[name]
        taylor = minimize(M, field)[1]
        assert minimize(M, field, start="lyubeznik")[1] == taylor
        order = random.Random(name).sample(range(M.q), M.q)
        assert cancel_all(lyubeznik_complex(M, field, order)) == taylor

    @pytest.mark.parametrize("name", ["C7", "RP2"])
    def test_start_passes_validate(self, name):
        cx = lyubeznik_complex(NAMED[name])
        cx.validate()
        cx.check_index()
        assert sum(map(len, cx.strata)) < 2 ** cx.q
        # every row key is the int object that keys its face's column
        faces = {id(tau) for tau in cx.cols}
        assert all(id(tau) in faces for col in cx.cols.values() for tau in col)

    def test_random_pivots_give_the_same_table(self):
        for M in (NAMED["C7"], I("a^2*b, a*b^2, a*c, b*c^2, c^3")):
            reference = minimize(M)[1]
            for seed in range(4):
                rng = random.Random(seed)
                assert minimize_randomly(M, rng, faces=lyubeznik_faces(M)) == reference

    def test_start_missing_a_facet_is_rejected(self):
        M = I("a^2*b, a*b^2, a*c, b*c^2, c^3")
        for start in (lyubeznik_faces(M), taylor_faces(M)):
            faces = dict(start)
            tau, _ = next(facets(min(mask for mask in faces if mask.bit_count() == 3)))
            del faces[tau]
            with pytest.raises(InternalInvariantError, match="facet of a degree-3"):
                FreeComplex(M, RATIONAL, faces)

    def test_taylor_start_keeps_its_table_to_itself(self, lattice_builds):
        # the full start builds the 2^q table once, as its own mdeg_codes,
        # and leaves nothing of size 2^q on the shared lattice
        M = path_ideal(6)
        cx = FreeComplex(M)
        assert len(lattice_builds) == 1
        assert "mdeg_codes" not in vars(cx.taylor)
        assert cx.mdeg_codes == dict(enumerate(_kernels.subset_lcms(cx.taylor.codes)))

    def test_unknown_start_is_rejected(self):
        with pytest.raises(InvalidParameterError, match="start"):
            minimize(I("a, b"), start="scarf")

    def test_lyubeznik_start_builds_no_lattice(self, lattice_builds):
        # the walk carries its faces' lcm codes, so the engine never reads
        # the 2^q table; the oracle and the Scarf basis share one
        M = path_ideal(10)
        minimize(M, start="lyubeznik")
        assert Analysis(M).betti.total == minimize(M, start="lyubeznik")[1].total
        assert lattice_builds == []
        assert check_report(M).ok
        assert len(lattice_builds) == 1


def oracle_matches_brute_force(M, field):
    """betti_oracle against the unreduced strands of `brute_strand_betti`:
    the multigraded table, and the totals summed from it."""
    bt = betti_oracle(M, field)
    expected = brute_strand_betti(M, field)
    assert {(h, m.exponents): c for (h, m), c in bt.multigraded.items()} == expected
    total = [0] * (bt.pd + 1)
    for (h, _), c in expected.items():
        total[h] += c
    assert bt.total == tuple(total)
    return bt


class TestOracleAgainstBruteForce:
    """The Morse-reduced strands give the Betti numbers of the full ones."""

    @pytest.mark.parametrize("field", FIELDS_QF2F3, ids=lambda f: f.name)
    def test_exhaustive_families(self, field):
        for M in EXHAUSTIVE:
            oracle_matches_brute_force(M, field)

    @pytest.mark.parametrize("field", FIELDS_QF2F3, ids=lambda f: f.name)
    def test_random_draws(self, field):
        assert max(M.q for M in RANDOM_DRAWS) >= 11
        for M in RANDOM_DRAWS:
            oracle_matches_brute_force(M, field)

    def test_rp2_torsion_survives_the_reduction(self):
        bt = oracle_matches_brute_force(rp2_ideal(), PrimeField(2))
        assert bt.total == (1, 10, 15, 7, 1)
        assert oracle_matches_brute_force(rp2_ideal(), RATIONAL).total == (1, 10, 15, 6)

    def test_strand_with_no_redundant_generator(self):
        # abcd is reached only by all three generators, and dropping any
        # one loses a variable: nothing can be paired, the cell is critical
        M = I("a*d, b*d, c*d", ["a", "b", "c", "d"])
        bt = oracle_matches_brute_force(M, RATIONAL)
        assert bt.multigraded[(3, Monomial(M.table, (1, 1, 1, 1)))] == 1

    @pytest.mark.parametrize("field", FIELDS_QF2F3, ids=lambda f: f.name)
    def test_strand_cleared_by_the_matching(self, field):
        # a^2*b^2 is the lcm of {a^2, b^2} and of all three generators;
        # a*b divides it, so the matching pairs those two cells and
        # leaves no critical cell
        M = I("a^2, a*b, b^2")
        bt = oracle_matches_brute_force(M, field)
        a2b2 = Monomial(M.table, (2, 2))
        assert all(m != a2b2 for _, m in bt.multigraded)
        assert bt.total == (1, 3, 2)


def outcome(check):
    """The message a validation raises, or None when it passes."""
    try:
        check()
    except InternalInvariantError as exc:
        return str(exc)
    return None


def corrupt(cx, rng):
    """Apply one random corruption to a matrix column; name its kind."""
    s = rng.randrange(1, cx.q + 1)
    faces = cx.strata[s]
    if not faces:
        return None
    sigma = rng.choice(faces)
    col = cx.cols[sigma]
    kind = rng.choice(("scalar", "delete", "zero", "extra"))
    if kind == "extra":
        free = [tau for tau in cx.strata[s - 1] if tau not in col]
        if not free:
            return None
        col[rng.choice(free)] = 1
        return kind
    if not col:
        return None
    tau = rng.choice(sorted(col))
    if kind == "scalar":
        col[tau] += 1  # over F_p this may leave p, an unreduced zero
    elif kind == "delete":
        del col[tau]
    else:
        col[tau] = 0
    return kind


class TestIncrementalValidation:
    """`minimize` runs the full `validate` on its start and after each
    cancellation step; each fault below must fail the step that made it."""

    FIELDS = (RATIONAL, PrimeField(2), PrimeField(3))

    @pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
    def test_random_corruptions_are_caught(self, field):
        # equigenerated ideals in few variables collide often, so they
        # take many cancellation steps
        rng = random.Random(field.name)
        tbl = table("a", "b", "c", "d")
        steps, caught, kinds = 0, 0, set()
        for t in range(25):
            d, n = rng.choice((2, 3)), rng.choice((3, 4))
            pool = [
                e + (0,) * (4 - n)
                for e in product(range(d + 1), repeat=n)
                if sum(e) == d
            ]
            gens = rng.sample(pool, rng.randint(3, min(7, len(pool))))
            cx = FreeComplex(
                minimalize([Monomial(tbl, e) for e in gens]), field
            )
            cx.validate()
            while (hit := cx.find_invertible()) is not None:
                cx.cancel(*hit)
                steps += 1
                cx.validate()
                bad = cx.copy()
                kind = corrupt(bad, rng)
                if kind is not None and outcome(bad.validate) is not None:
                    caught += 1
                    kinds.add(kind)
        assert steps >= 200 and caught >= 50
        assert kinds == {"scalar", "delete", "zero", "extra"}

    def test_column_corrupted_after_a_passing_step_is_caught(self):
        cx = FreeComplex(I("x1*x2, x2*x3, x3*x4, x4*x5, x5*x6"))
        cx.cancel(*cx.find_invertible())
        cx.validate()
        tau, sigma = cx.find_invertible()
        victim = cx.strata[1][0]  # degree 1: far below the pivot
        assert sigma.bit_count() >= 3
        cx.cancel(tau, sigma)
        cx.cols[victim][0] = 7
        assert outcome(cx.validate) == "d∘d != 0 between degrees 2 and 0"

    def test_deleted_column_rechecks_the_columns_above(self):
        cx = FreeComplex(I("a, b"))
        cx.validate()
        del cx.cols[1]  # the top column [a, b] is unchanged but now wrong
        with pytest.raises(InternalInvariantError, match="d∘d != 0 between degrees 2"):
            cx.validate()

    def test_three_over_f3_is_a_stored_zero(self):
        # 3 is a scalar over Q but a stored zero over F_3
        cx = FreeComplex(I("a, b"))
        cx.cols[1][0] = 3
        cx.cols[3][2] = 3  # keeps d∘d = 0 over Q
        cx.validate()
        cx3 = cx.copy()  # the same lcm table and columns
        cx3.field = PrimeField(3)
        with pytest.raises(InternalInvariantError, match="stored zero"):
            cx3.validate()

    def test_wrong_lcm_table_is_caught(self):
        cx = FreeComplex(I("a, b"))
        cx.validate()
        other = cx.copy()  # the same columns
        codes = dict(cx.mdeg_codes)
        assert codes[0b11] == 0b11  # lcm([a, b]) = a*b
        codes[0b01] = 0b100  # [a] now holds a bit that [a, b] lacks
        other.mdeg_codes = codes
        with pytest.raises(InternalInvariantError, match="incomparable"):
            other.validate()

    def test_minimize_validates_once_per_cancellation(self, monkeypatch):
        from monodom.resolution import FreeComplex

        calls = {"cancel": 0, "validate": 0}
        real_cancel, real_validate = FreeComplex.cancel, FreeComplex.validate

        def counted_cancel(self, *hit):
            calls["cancel"] += 1
            return real_cancel(self, *hit)

        def counted_validate(self):
            calls["validate"] += 1
            return real_validate(self)

        monkeypatch.setattr(FreeComplex, "cancel", counted_cancel)
        monkeypatch.setattr(FreeComplex, "validate", counted_validate)
        minimize(I("a^2*b, a*b^2, a*c, b*c^2, c^3"))
        assert calls["cancel"] >= 2
        # one check of the start, then one per step
        assert calls["validate"] == 1 + calls["cancel"]

    @pytest.mark.parametrize("text", ["x1^2*x2^3, x1*x3", "a^2, a*b, b^2*c"])
    def test_start_with_nothing_to_cancel_is_validated(self, monkeypatch, text):
        # lcm codes that drop the last variable of every face of two or
        # more generators, as the walk hands them to the engine (its faces
        # stay the true ones); on these starts nothing is cancelled before
        # the check of the start, so only that check can see the fault
        from monodom import resolution

        real = resolution.lyubeznik_faces
        # the last variable's field is the top one: one bit per distinct
        # nonzero exponent of each variable, laid out in variable order
        rows = I(text).exponent_rows
        widths = [len(set(column) - {0}) for column in zip(*rows)]
        total = sum(widths)
        keep = (1 << total - widths[-1]) - 1

        def lossy(ideal, order=None):
            return {
                mask: lcm if mask.bit_count() < 2 else lcm & keep
                for mask, lcm in real(ideal, order).items()
            }

        cancels = []
        real_cancel = resolution.FreeComplex.cancel

        def counted_cancel(self, *hit):
            cancels.append(hit)
            return real_cancel(self, *hit)

        monkeypatch.setattr(resolution, "lyubeznik_faces", lossy)
        monkeypatch.setattr(resolution.FreeComplex, "cancel", counted_cancel)
        with pytest.raises(InternalInvariantError, match="incomparable multidegrees"):
            minimize(I(text), start="lyubeznik")
        assert cancels == []

    @pytest.mark.parametrize("field", FIELDS[::2], ids=lambda f: f.name)
    @pytest.mark.parametrize(
        "text",
        [
            "x1*x2, x2*x3, x3*x4, x4*x5, x5*x6",
            "a^2*b, a*b^2, a*c, b*c^2, c^3",
            "a^2, a*b, b^2, b*c, c^2",
        ],
    )
    def test_skipped_schur_update_fails_at_the_same_step(self, monkeypatch, text, field):
        from monodom.resolution import FreeComplex

        real_cancel = FreeComplex.cancel
        steps = {"n": 0, "skipped": None}

        def cancel(self, tau, sigma):
            steps["n"] += 1
            victim = None
            if steps["skipped"] is None and len(self.cols[sigma]) > 1:
                others = [c for c in self.rows[tau] if c != sigma]
                if others:
                    victim = others[0]
                    kept = dict(self.cols[victim])
                    del kept[tau]
            real_cancel(self, tau, sigma)
            if victim is not None:
                steps["skipped"] = steps["n"]
                self.cols[victim] = kept  # as if its update were skipped
            return self

        monkeypatch.setattr(FreeComplex, "cancel", cancel)
        with pytest.raises(InternalInvariantError, match="d∘d") as exc:
            minimize(I(text), field)
        assert steps["skipped"] == steps["n"], str(exc.value)


class TestPredicates:
    def test_complete_intersection(self):
        assert is_complete_intersection(I("a^2, b^3"))
        assert is_complete_intersection(I("a*b, c*d"))
        assert not is_complete_intersection(I("a^2, a*b"))
        # against a pairwise reference, on every exhaustive ideal
        for M in EXHAUSTIVE:
            masks = M.support_masks
            disjoint = all(
                masks[i] & masks[j] == 0
                for i in range(M.q)
                for j in range(i + 1, M.q)
            )
            assert is_complete_intersection(M) == disjoint
        assert 0 < sum(map(is_complete_intersection, EXHAUSTIVE)) < len(EXHAUSTIVE)

    def test_cohen_macaulay(self):
        assert Analysis(I("a^2, a*b, b^2")).cohen_macaulay
        assert Analysis(I("a, b, c")).cohen_macaulay
        assert not Analysis(I("a*b, c*d, a*c, b*d")).cohen_macaulay


# ---------------------------------------------------------------------------
# matched-cancellation scalar regression
#
# Extending the generators by one fresh pure power per unassigned variable
# embeds the symbols whose multidegree is divisible by the assigned top
# powers into the bigger complex; replaying any cancellation sequence that
# stays inside that symbol class must reproduce the same scalars at the
# matched entry pairs, step by step.


def in_class(cx, mask, powers):
    exps = cx.mdeg(mask).exponents
    return all(exps[v] >= e for v, e in powers.items())


def class_pairs(cx, symbols):
    for sigma, col in cx.cols.items():
        if sigma in symbols:
            for tau in sorted(col):
                if tau in symbols:
                    yield tau, sigma


def replay_matched(base, variables):
    ext, mask_map = pure_power_extension(base, variables)
    powers = {v: base.lcm().exponents[v] for v in variables}
    cx_a = FreeComplex(base)
    cx_b = FreeComplex(ext)
    A = {mask for mask in range(1 << base.q) if in_class(cx_a, mask, powers)}

    def assert_matched():
        for tau, sigma in class_pairs(cx_a, A):
            lhs = cx_a.cols[sigma][tau]
            rhs = cx_b.cols[mask_map[sigma]].get(mask_map[tau], Fraction(0))
            assert lhs == rhs, (tau, sigma)

    assert_matched()
    steps = 0
    while True:
        hit = next(
            (
                (tau, sigma)
                for tau, sigma in class_pairs(cx_a, A)
                if cx_a.is_invertible(tau, sigma)
            ),
            None,
        )
        if hit is None:
            break
        tau, sigma = hit
        cx_a.cancel(tau, sigma)
        assert cx_b.is_invertible(mask_map[tau], mask_map[sigma])
        cx_b.cancel(mask_map[tau], mask_map[sigma])
        cx_a.check_index()
        cx_b.check_index()
        assert_matched()
        steps += 1
    cx_a.validate()
    cx_b.validate()
    return steps


class TestScalarPreservation:
    def test_extension_of_three_pipes(self):
        # extending (ad, bd, cd) on variables a, b, c appends exactly d^2
        M2 = I("a*d, b*d, c*d", ["a", "b", "c", "d"])
        chosen = [M2.table.index(v) for v in ("a", "b", "c")]
        ext, _ = pure_power_extension(M2, chosen)
        assert ext == I("a*d, b*d, c*d, d^2", ["a", "b", "c", "d"])
        replay_matched(M2, chosen)

    def test_extension_with_real_cancellations(self):
        # here the symbol class contains a genuine collision, so scalars
        # are compared across an actual Schur update
        M = I("a^2*c, b^2*c, a^2*b", ["a", "b", "c"])
        chosen = [M.table.index("a"), M.table.index("b")]
        ext, _ = pure_power_extension(M, chosen)
        assert ext == I("a^2*c, b^2*c, a^2*b, c^2", ["a", "b", "c"])
        assert replay_matched(M, chosen) >= 1


# ---------------------------------------------------------------------------
# properties

@st.composite
def small_ideals(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    tbl = table(*(f"x{i}" for i in range(1, n + 1)))
    mons = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        exps = tuple(draw(st.integers(min_value=0, max_value=3)) for _ in range(n))
        if any(exps):
            mons.append(Monomial(tbl, exps))
    if not mons:
        mons = [Monomial(tbl, (1,) * n)]
    return minimalize(mons)


@given(small_ideals())
@settings(max_examples=60, deadline=None)
def test_minimize_agrees_with_oracle(M):
    cx, bt = minimize(M)
    cx.validate()
    assert bt == betti_oracle(M)


@given(small_ideals())
@settings(max_examples=40, deadline=None)
def test_binomial_bound_from_odom(M):
    from math import comb

    odom = odom_by_dominance(M)[0]
    bt = minimize(M)[1]
    assert all(bt.beta(r) >= comb(odom, r) for r in range(bt.pd + 1))


@given(small_ideals(), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=30, deadline=None)
def test_random_pivots_are_path_independent(M, seed):
    assert minimize_randomly(M, random.Random(seed)) == minimize(M)[1]
