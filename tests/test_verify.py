import gc
import warnings
from itertools import combinations
from itertools import product as iter_product
from operator import le

import pytest

from monodom import (
    FuzzFailure,
    FuzzParams,
    GuardExceeded,
    Monomial,
    MonomialIdeal,
    PrimeField,
    RATIONAL,
    TaylorComplex,
    TaylorTooLarge,
    betti_oracle,
    check_lemma_hypotheses,
    check_report,
    fuzz,
    minimalize,
    monomials,
    polarize,
    random_ideal,
    verify,
)
from monodom.monomials import _minimal_ideal
from monodom.taylor import lattice_codes
from monodom.verify import _splitmix64, exhaustive_ideals

from conftest import (
    EXHAUSTIVE,
    I,
    complete_ideal,
    cycle_ideal,
    path_ideal,
    GAMMA,
    K33_SIDES,
    ReferenceSplitMix64,
    k33_ideal,
    pure_power_extension,
    reference_dominant_subsets,
    reference_draw,
    reference_minimalize,
    reference_random_ideal,
    rp2_ideal,
)


# generator text with duplicates (also after reordering factors or
# summing a repeated one) and multiples, with and without --vars
PARSED_NON_MINIMAL = [
    ("a, a*b", None),
    ("a, a", None),
    ("a*b, b*a", None),
    ("a^2, a*a, a*b", None),
    ("x*y, y*x, x*y*z, z^2*x, z^3", None),
    ("b*d, d*b, a*d, d^2, a*d^3", ["a", "b", "c", "d"]),
]


class TestSplitMix64:
    # the pinned values hold for the module's stream function and for the
    # per-trial stream in conftest that random_ideal once ran
    def test_known_answer_seed_zero(self):
        expected = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        assert _splitmix64(0, 3) == expected
        sm = ReferenceSplitMix64(0)
        assert [sm.next_u64() for _ in range(3)] == expected

    def test_known_answer_arbitrary_seed(self):
        first, second = _splitmix64(1234567, 2)
        assert _splitmix64(1234567, 1) == [first]
        assert second != first
        sm = ReferenceSplitMix64(1234567)
        assert [sm.next_u64(), sm.next_u64()] == [first, second]

    BOUNDS = [1, 2, 4, 6, 10] * 4

    def test_below_known_answer_seed_zero(self):
        expected = [0, 0, 3, 4, 7, 0, 1, 0, 5, 0, 0, 0, 3, 3, 7, 0, 1, 2, 0, 4]
        drawn = [z % b for z, b in zip(_splitmix64(0, 20), self.BOUNDS)]
        assert drawn == expected
        below = ReferenceSplitMix64(0).below
        assert [below(b) for b in self.BOUNDS] == expected

    def test_below_known_answer_from_a_trial_offset(self):
        # trial 17 of seed 42 reads seed 42's stream from its 18th output
        # on, in the per-trial stream and in the master block random_ideal
        # reads it from
        expected = [0, 1, 0, 0, 1, 0, 1, 0, 3, 7, 0, 1, 3, 1, 2, 0, 0, 1, 1, 3]
        below = ReferenceSplitMix64(42 + 17 * GAMMA).below
        assert [below(b) for b in self.BOUNDS] == expected
        master = _splitmix64(42, 37)[17:]
        assert [z % b for z, b in zip(master, self.BOUNDS)] == expected
        block = verify._master_block(42, 0)[17:37]
        assert [z % b for z, b in zip(block, self.BOUNDS)] == expected


class TestRandomIdeal:
    PARAMS = FuzzParams(n_max=4, q_max=5, exp_max=3, trials=50, seed=42)

    def test_deterministic(self):
        for t in (0, 1, 17):
            assert random_ideal(self.PARAMS, t) == random_ideal(self.PARAMS, t)

    def test_respects_bounds(self):
        for t in range(60):
            M = random_ideal(self.PARAMS, t)
            assert 1 <= M.n <= 4
            assert 1 <= M.q <= 5
            assert all(e <= 3 for g in M.generators for e in g.exponents)

    def test_squarefree_mode(self):
        p = FuzzParams(n_max=4, q_max=5, exp_max=1, trials=0, seed=7)
        for t in range(40):
            M = random_ideal(p, t)
            assert all(e <= 1 for g in M.generators for e in g.exponents)

    def test_output_minimal_by_construction(self):
        # random_ideal builds its ideal without the constructor's checks,
        # so check minimality here from the definition
        for t in range(40):
            M = random_ideal(self.PARAMS, t)
            for g in M.generators:
                assert not any(h is not g and h.divides(g) for h in M.generators)

    def test_different_seeds_differ_somewhere(self):
        a = [random_ideal(FuzzParams(4, 5, 3, 0, seed=1), t) for t in range(10)]
        b = [random_ideal(FuzzParams(4, 5, 3, 0, seed=2), t) for t in range(10)]
        assert a != b

    def test_pinned_draws(self):
        # a failure reproduces from its printed seed and trial only while
        # these rows stay the same from version to version
        p = FuzzParams(6, 10, 3, 0, seed=7)
        assert [random_ideal(p, t).exponent_rows for t in range(10)] == [
            ((3, 0, 2, 0), (2, 2, 1, 1), (1, 0, 3, 1)),
            ((1,),),
            ((1,),),
            ((3, 1, 0, 3), (1, 3, 0, 2), (1, 2, 2, 1), (1, 1, 3, 0), (0, 2, 0, 3)),
            ((3, 3, 1, 0, 3), (2, 3, 3, 1, 0), (2, 2, 1, 1, 3), (1, 1, 3, 0, 1),
             (0, 2, 0, 2, 0), (0, 0, 2, 1, 3)),
            ((3, 1, 1, 0), (3, 0, 1, 2), (2, 1, 1, 3), (0, 3, 1, 1), (0, 2, 0, 2),
             (0, 0, 2, 1)),
            ((1, 1, 3, 0, 2), (1, 0, 3, 1, 1), (0, 2, 0, 3, 3)),
            ((1,),),
            ((3, 3, 1, 0, 3, 1), (3, 1, 0, 0, 0, 2), (3, 0, 2, 0, 2, 0),
             (1, 1, 0, 0, 2, 2)),
            ((3, 1, 0, 3, 1, 1), (1, 0, 0, 0, 2, 1), (0, 2, 0, 2, 0, 3)),
        ]

    def test_row_path_equals_the_validating_path(self, monkeypatch):
        # the fuzz_campaign draws, the README preset's and parsed text with
        # duplicate and multiple generators: each ideal is the one the
        # Monomial path builds from the same rows, and the validating
        # constructor accepts its generators in the same order, as it does
        # for every other ideal built without its checks
        drawn = []

        def recorded(tbl, rows):
            drawn.append((tbl, rows))
            return _minimal_ideal(tbl, rows)

        monkeypatch.setattr(verify, "_minimal_ideal", recorded)
        fuzz_campaign = FuzzParams(n_max=6, q_max=10, exp_max=3, trials=0, seed=1)
        readme = FuzzParams(n_max=4, q_max=5, exp_max=3, trials=0, seed=42)
        ideals = [random_ideal(fuzz_campaign, t) for t in range(4000)]
        ideals += [random_ideal(readme, t) for t in range(1000)]
        monkeypatch.setattr(monomials, "_minimal_ideal", recorded)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # each text drops a generator
            ideals += [I(text, names) for text, names in PARSED_NON_MINIMAL]
        monkeypatch.undo()
        assert len(drawn) == len(ideals)
        dropped = 0
        for (tbl, rows), M in zip(drawn, ideals):
            ref = reference_minimalize([Monomial(tbl, row) for row in rows])
            assert M == ref and M.exponent_rows == ref.exponent_rows
            dropped += M.q < len(rows)
        assert dropped > 1000
        # the exhaustive families, each given with its pairwise lcms
        for M in EXHAUSTIVE:
            lcms = [g.lcm(h) for g, h in combinations(M.generators, 2)]
            mons = lcms + list(M.generators[::-1])
            assert minimalize(mons).generators == reference_minimalize(mons).generators
            ideals.append(minimalize(mons))
        # the other ideals built without the constructor's checks: the
        # exhaustive walk's, and the polarizations of the first 1000
        # fuzz_campaign draws, the README preset's and the exhaustive ones
        base = ideals[:1000] + ideals[4000:5000] + EXHAUSTIVE
        polarized = [polarize(M) for M in base]
        renamed = sum(P.exponent_rows == M.exponent_rows for P, M in zip(polarized, base))
        assert renamed < len(base) // 2
        ideals += EXHAUSTIVE + polarized
        for M in ideals:
            again = MonomialIdeal(M.table, M.generators)
            assert again == M and again.generators == M.generators

    # the draw limits of fuzz_campaign and of the README preset, a
    # squarefree case and a one-variable case
    LIMITS = [(6, 10, 3), (4, 5, 3), (3, 8, 1), (1, 3, 1)]

    @pytest.mark.parametrize("limits", LIMITS)
    def test_draws_equal_the_per_trial_streams(self, limits):
        # in order, then in descending order from a warm memo, then far
        # out: each trial reads from the master blocks the outputs its own
        # stream gave it
        trials = [*range(3000), *range(2999, -1, -1), 10**12]
        for seed in (0, 42, -1, 2**64 + 42):
            p = FuzzParams(*limits, trials=0, seed=seed)
            expected = {t: reference_random_ideal(p, t) for t in set(trials)}
            verify._master_block.cache_clear()
            for t in trials:
                M, ref = random_ideal(p, t), expected[t]
                assert (M.exponent_rows, M.table) == (ref.exponent_rows, ref.table)

    # (limits, seed, trial) pins, found by a scan of the reference, whose
    # trial draws 16 all-zero rows in a row and forces a coordinate; in the
    # second, the forced exponent is 2 and the position draw after it would
    # have made it 1
    FORCED = [((1, 3, 1), 42, 11328), ((1, 3, 2), 0, 38781686)]

    @pytest.mark.parametrize("limits,seed,trial", FORCED)
    def test_forced_coordinate_draws(self, monkeypatch, limits, seed, trial):
        # the rows of the trial, and of the trials around it, are the
        # reference's: the forcing reads two outputs, and the rows after
        # it read on past them
        p = FuzzParams(*limits, trials=0, seed=seed)
        assert reference_draw(p, trial)[2] == 1
        trials = range(trial - 8, trial + 8)
        drawn = []
        monkeypatch.setattr(verify, "_minimal_ideal", lambda tbl, rows: drawn.append(rows))
        for t in trials:
            random_ideal(p, t)
        assert drawn == [reference_draw(p, t)[1] for t in trials]

    def test_seeds_are_taken_mod_2_to_the_64(self):
        a, b = (FuzzParams(4, 5, 3, 0, seed=s) for s in (-1, 2**64 - 1))
        verify._master_block.cache_clear()
        drawn = [random_ideal(a, t).exponent_rows for t in range(50)]
        built = verify._master_block.cache_info().misses
        assert [random_ideal(b, t).exponent_rows for t in range(50)] == drawn
        # and they share their blocks
        assert verify._master_block.cache_info().misses == built

    def test_the_block_memo_stays_bounded(self):
        p = FuzzParams(6, 10, 3, 0, seed=3)
        memo = verify._master_block
        memo.cache_clear()
        for t in range(20_000):
            random_ideal(p, t)
        info = memo.cache_info()
        assert info.misses <= 20_000 / verify._BLOCK + 2
        assert info.currsize <= info.maxsize
        memo.cache_clear()
        random_ideal(p, 10**12)
        assert memo.cache_info().misses <= 2

    def test_draw_guard_bounds_n_max_times_q_max(self):
        assert random_ideal(FuzzParams(100, 100, 1, 1), 0).n <= 100
        with pytest.raises(GuardExceeded, match="100 x 101 = 10100"):
            random_ideal(FuzzParams(100, 101, 1, 1), 0)


class TestExhaustive:
    def test_single_variable_space(self):
        p = FuzzParams(n_max=1, q_max=3, exp_max=1, trials=0, exhaustive=True)
        ideals = list(exhaustive_ideals(p))
        assert [M.render() for M in ideals] == ["x1"]

    def test_n2_exp2_count_and_uniqueness(self):
        p = FuzzParams(n_max=2, q_max=8, exp_max=2, trials=0, exhaustive=True)
        ideals = list(exhaustive_ideals(p))
        assert len(ideals) == len(set(ideals)) == 20
        # the one antichain of size 3 in two variables
        assert any(M.q == 3 for M in ideals)

    def test_all_outputs_are_antichains(self):
        p = FuzzParams(n_max=3, q_max=4, exp_max=1, trials=0, exhaustive=True)
        for M in exhaustive_ideals(p):
            assert M.q <= 4 and M.n <= 3

    def test_squarefree_n3_space_is_complete(self):
        # nonempty antichains of nonzero subsets of an n-set: 1 for n=1,
        # 4 for n=2, 18 for n=3 (Dedekind count 20, minus the empty
        # antichain and the one containing the empty set)
        p = FuzzParams(n_max=3, q_max=7, exp_max=1, trials=0, exhaustive=True)
        ideals = list(exhaustive_ideals(p))
        per_n = {}
        for M in ideals:
            per_n[M.n] = per_n.get(M.n, 0) + 1
        assert per_n == {1: 1, 2: 4, 3: 18}

    @pytest.mark.parametrize("q_max", [1, 2, 3, 4])
    @pytest.mark.parametrize("exp_max", [1, 2])
    @pytest.mark.parametrize("n_max", [1, 2])
    def test_equals_brute_force_antichains(self, n_max, q_max, exp_max):
        from itertools import combinations, product

        def divides(a, b):
            return all(x <= y for x, y in zip(a, b))

        expected = []
        for n in range(1, n_max + 1):
            pool = [e for e in product(range(exp_max + 1), repeat=n) if any(e)]
            for j in range(1, q_max + 1):
                for gens in combinations(pool, j):
                    if not any(
                        divides(a, b) or divides(b, a) for a, b in combinations(gens, 2)
                    ):
                        expected.append((n, tuple(sorted(gens))))
        p = FuzzParams(n_max=n_max, q_max=q_max, exp_max=exp_max, trials=0, exhaustive=True)
        walked = [(M.n, tuple(sorted(M.exponent_rows))) for M in exhaustive_ideals(p)]
        assert len(walked) == len(set(walked))
        assert sorted(walked) == sorted(expected)

    @pytest.mark.parametrize("n_max,q_max,exp_max", [(2, 8, 2), (4, 5, 1), (3, 4, 2)])
    def test_walk_is_depth_first_in_pool_order(self, n_max, q_max, exp_max):
        # per n, the antichains come as the ascending index lists of the
        # descending pool, prefixes first: ascending in negated rows
        p = FuzzParams(n_max=n_max, q_max=q_max, exp_max=exp_max, trials=0, exhaustive=True)
        keys = [
            (M.n, tuple(tuple(-e for e in row) for row in M.exponent_rows))
            for M in exhaustive_ideals(p)
        ]
        assert keys == sorted(set(keys))

    def test_single_generators_with_a_large_exponent_range(self):
        # one ideal per nonzero exponent vector: sum of 10^n - 1 over n <= 4
        p = FuzzParams(n_max=4, q_max=1, exp_max=9, trials=0, exhaustive=True)
        assert sum(1 for _ in exhaustive_ideals(p)) == 11106


class TestCheckReport:
    @pytest.mark.parametrize("field", [RATIONAL, PrimeField(2)], ids=["Q", "F2"])
    @pytest.mark.parametrize("side", K33_SIDES, ids=str)
    def test_k33_labelings_have_gap_two(self, side, field):
        # on six vertices the ten labelings of K3,3 are the only graphs
        # with pd - odom = 2, the largest gap there
        r = check_report(k33_ideal(side), field)
        assert (r.pd, r.odom, r.codim) == (5, 3, 3)
        assert r.betti.total == (1, 9, 18, 15, 6, 1)
        assert not r.scarf
        assert r.ok

    def test_m3_report(self):
        r = check_report(I("a*d, b*d, c*d, d^2", ["a", "b", "c", "d"]))
        assert (r.codim, r.odom, r.pd) == (1, 4, 4)
        assert r.ok
        assert r.taylor_minimal and r.scarf
        assert not r.cohen_macaulay

    def test_four_cycle_report(self):
        r = check_report(I("a*b, c*d, a*c, b*d"))
        assert (r.codim, r.odom, r.pd) == (2, 2, 3)
        assert not r.cohen_macaulay and not r.scarf
        assert r.ok

    def test_pd_equals_n_family(self):
        r = check_report(I("x1^2, x1*x2, x1*x3, x1*x4"))
        assert (r.codim, r.pd, r.n) == (1, 4, 4)
        assert r.odom == 4
        assert r.ok

    def test_check_path_decodes_nothing(self, monkeypatch):
        # the checks read only counts, totals and ranks: no lattice code
        # is decoded to a Monomial and no Scarf symbol is built
        def refuse(*args):
            raise AssertionError("a report decoded a lattice code")

        monkeypatch.setattr(TaylorComplex, "monomials", refuse)
        monkeypatch.setattr(TaylorComplex, "symbol", refuse)
        readme = FuzzParams(n_max=4, q_max=5, exp_max=3, trials=0, seed=42)
        cases = [(random_ideal(readme, t), RATIONAL) for t in range(1000)]
        cases += [(path_ideal(10), RATIONAL), (cycle_ideal(11), RATIONAL)]
        cases += [(rp2_ideal(), RATIONAL), (rp2_ideal(), PrimeField(2))]
        for M, field in cases:
            assert check_report(M, field).ok

    def test_reports_leave_no_reference_cycles(self):
        # everything a report allocates is freed by reference counting, so
        # a long fuzz run does not lean on the cyclic collector
        p = FuzzParams(n_max=6, q_max=10, exp_max=3, trials=0, seed=1)
        ideals = [random_ideal(p, t) for t in range(300)]
        presets = [
            FuzzParams(n_max=2, q_max=8, exp_max=2, trials=0, exhaustive=True),
            FuzzParams(n_max=4, q_max=5, exp_max=1, trials=0, exhaustive=True),
        ]
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for M in ideals:
                check_report(M)
            assert gc.collect() == 0
            # nor does the exhaustive walk
            for preset in presets:
                for _ in exhaustive_ideals(preset):
                    pass
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_every_check_reported_once(self):
        r = check_report(I("a, b"))
        names = [c.name for c in r.checks]
        assert len(names) == len(set(names)) == 16

    def test_vacuous_distinct_from_pass(self):
        r = check_report(I("a"))  # n = 1: the three-variables check is vacuous
        status = {c.name: c.status for c in r.checks}
        assert status["three-variables"] == "vacuous"
        assert status["codim-le-odom-le-pd"] == "pass"

    def test_taylor_minimality_is_read_from_the_resolution(self, monkeypatch):
        from monodom import _kernels

        M = I("a*b^3, a*c, b*c")
        # for the codes of M and of its polarization: the bit above each
        # code bit within its field, and none above a field's top bit
        above_of = {}
        for X in (M, polarize(M)):
            codes, fields = lattice_codes(X.exponent_rows)
            above_of[codes] = [
                1 << offset + r + 1 if r + 1 < bits.bit_length() else 0
                for offset, bits, _ in fields
                for r in range(bits.bit_length())
            ]

        def lax_dominance_masks(codes, members):
            # the dominance kernel with `<=` for `<`: a member keeps a field
            # unless another member's code reaches above its top bit there,
            # so a tied top exponent counts
            masks = []
            for a in members:
                rest = 0
                for b in members:
                    if b != a:
                        rest |= codes[b]
                mask = 0
                for t, up in enumerate(above_of[codes]):
                    if codes[a] >> t & 1 and not rest & up:
                        mask |= 1 << t
                if not mask:
                    return None
                masks.append(mask)
            return masks

        # odom's walk reads its pair masks from this kernel, so the lax
        # comparison reaches every mask the walk builds
        monkeypatch.setattr(_kernels, "dominance_masks", lax_dominance_masks)
        # betti (1, 3, 2): the Taylor resolution is not minimal, but the lax odom is q = 3
        r = check_report(M)
        assert r.odom == 3 and r.betti.sum == 6
        assert "taylor-minimal-iff-odom-q" in [c.name for c in r.failed_checks()]

    @pytest.fixture
    def route_calls(self, monkeypatch):
        """Calls of the two routes `Analysis` runs on an ideal and its polarization."""
        import monodom.verify as verify_mod

        calls = {"minimal_nets": 0, "odom_by_dominance": 0}
        for name in calls:
            real = getattr(verify_mod, name)

            def counted(ideal, _real=real, _name=name):
                calls[_name] += 1
                return _real(ideal)

            monkeypatch.setattr(verify_mod, name, counted)
        return calls

    @pytest.mark.parametrize(
        "M",
        [cycle_ideal(4), complete_ideal(4), rp2_ideal()],
        ids=["C4", "K4", "RP2"],
    )
    def test_squarefree_polarization_reuses_the_base_stages(self, route_calls, M):
        r = check_report(M)
        assert route_calls == {"minimal_nets": 1, "odom_by_dominance": 1}
        assert r.nets_polarized is r.nets_base
        assert r.odom_polarized == r.odom and r.ok

    @pytest.mark.parametrize(
        "text,var_names",
        [("a^2*b, a*b^2, a*c", None), ("x*y, y*z", ["x", "y", "z", "w"])],
        ids=["exponent-2", "unused-variable"],
    )
    def test_other_polarizations_run_both_routes_again(self, route_calls, text, var_names):
        # an exponent above 1 adds a column; an unused variable drops one
        r = check_report(I(text, var_names))
        assert r.polarized.exponent_rows != r.ideal.exponent_rows
        assert route_calls == {"minimal_nets": 2, "odom_by_dominance": 2}
        assert r.ok

    @pytest.mark.parametrize("M", [path_ideal(9), cycle_ideal(11)], ids=["P9", "C11"])
    def test_lossy_lattice_table_fails_the_cross_check(self, monkeypatch, capsys, M):
        # the lattice table with the top code bit cleared from the lcm of
        # every subset of two or more generators: the oracle reads it, while
        # the engine takes its codes from the Lyubeznik walk, so the two
        # routes disagree (q > 8, where minimize validates no step)
        from monodom import _kernels
        from monodom.cli import main

        real = _kernels.subset_lcms

        def lossy(codes):
            top = 1 << max(codes).bit_length() - 1
            return [
                lcm if mask.bit_count() < 2 else lcm & ~top
                for mask, lcm in enumerate(real(codes))
            ]

        monkeypatch.setattr(_kernels, "subset_lcms", lossy)
        failed = [c.name for c in check_report(M).failed_checks()]
        assert "betti-engine-vs-oracle" in failed
        text = ", ".join(map(str, M.generators))
        assert main(["analyze", "--ideal", text, "--vars", ",".join(M.table.names)]) == 3
        assert "betti-engine-vs-oracle" in capsys.readouterr().out

    def test_moved_multidegree_fails_the_cross_check(self, monkeypatch):
        # the oracle's table with its top entry moved to another lattice
        # code: the totals still agree, the multigraded numbers do not
        from monodom.resolution import BettiTable

        real = verify.betti_oracle

        def moved(ideal, field):
            table = real(ideal, field)
            counts = dict(table.counts)
            (h, b), c = max(counts.items())
            taken = {code for k, code in counts if k == h}
            b2 = next(code for code in table.lattice.mdeg_codes if code not in taken)
            del counts[(h, b)]
            counts[(h, b2)] = c
            return BettiTable(counts, table.lattice, table.field_name)

        monkeypatch.setattr(verify, "betti_oracle", moved)
        for M in (cycle_ideal(4), rp2_ideal(), I("a^2*b, a*b^2, a*c, b*c^2, c^3")):
            report = check_report(M)
            assert report.betti.total == report.betti_by_oracle.total
            assert [c.name for c in report.failed_checks()] == ["betti-engine-vs-oracle"]

    def test_guard_raises(self):
        M = I(", ".join(f"x{i}" for i in range(1, 16)))
        with pytest.raises(TaylorTooLarge):
            check_report(M)


class TestFuzz:
    def test_zero_trials_empty_summary(self):
        s = fuzz(FuzzParams(n_max=2, q_max=2, exp_max=1, trials=0, seed=0))
        assert s.ideal_count == 0
        assert s.check_tally == {}

    def test_summary_deterministic(self):
        p = FuzzParams(n_max=3, q_max=4, exp_max=2, trials=40, seed=9)
        assert fuzz(p).to_dict() == fuzz(p).to_dict()

    def test_exhaustive_small_all_pass(self):
        p = FuzzParams(n_max=2, q_max=8, exp_max=2, trials=0, exhaustive=True)
        s = fuzz(p)
        assert s.ideal_count == 20
        for tally in s.check_tally.values():
            assert tally.get("fail", 0) == 0

    def test_gap_histogram_counts_everything(self):
        p = FuzzParams(n_max=3, q_max=4, exp_max=2, trials=25, seed=3)
        s = fuzz(p)
        assert sum(s.gap_histogram.values()) == 25

    def test_failure_aborts_with_reproduction(self, monkeypatch):
        import monodom.verify as verify_mod

        real = verify_mod.check_report

        def sabotaged(ideal, field=None, **kw):
            report = real(ideal)
            report.checks[1] = type(report.checks[1])(
                report.checks[1].name, "fail", "sabotaged"
            )
            return report

        monkeypatch.setattr(verify_mod, "check_report", sabotaged)
        with pytest.raises(FuzzFailure) as exc:
            verify_mod.fuzz(FuzzParams(n_max=2, q_max=2, exp_max=1, trials=5, seed=0))
        assert "trial 0" in str(exc.value)


def plain_lemma_scan(M):
    """(members, variables, satisfied, witness) of each lemma instance,
    from the plain scan on exponent rows: every dominant subset, each
    member assigned in turn each dominant variable where it carries the
    global lcm exponent. A satisfied instance's witness is the first
    multidegree of the oracle's degree-k table that carries the global
    lcm exponent on each assigned variable and is bounded by it on every
    other one."""
    rows, top = M.exponent_rows, M.lcm().exponents
    multidegrees = [(h, m.exponents, m) for h, m in betti_oracle(M).multigraded]
    out = []
    sizes = range(1, min(M.q, M.n) + 1)
    for members, masks in reference_dominant_subsets(rows, sizes):
        choices = [
            [v for v in range(M.n) if mask >> v & 1 and rows[g][v] == top[v]]
            for g, mask in zip(members, masks)
        ]
        for assignment in iter_product(*choices):
            satisfied = all(any(row[v] >= top[v] for v in assignment) for row in rows)
            witness = None
            if satisfied:
                witness = next(
                    (
                        m
                        for h, exps, m in multidegrees
                        if h == len(members)
                        and all(exps[v] == top[v] for v in assignment)
                        and all(map(le, exps, top))
                    ),
                    None,
                )
            out.append((members, assignment, satisfied, witness))
    return out


class TestLemma:
    def test_three_pipes_instance(self):
        M = I("a*d, b*d, c*d", ["a", "b", "c", "d"])
        instances = check_lemma_hypotheses(M)
        sat = [i for i in instances if i.satisfied]
        assert sat, "expected satisfied instances"
        assert all(i.witness_mdeg is not None for i in sat)
        full = [i for i in sat if len(i.members) == 3]
        assert full and all(
            i.witness_mdeg.exponents == (1, 1, 1, 1) for i in full
        )

    def test_single_generator(self):
        M = I("a")
        instances = check_lemma_hypotheses(M)
        assert len(instances) == 1
        inst = instances[0]
        assert inst.satisfied and str(inst.witness_mdeg) == "a"

    def test_unsatisfied_flagged_without_witness_claim(self):
        # {a^2, b^2} is dominant but a*b escapes both top powers
        M = I("a^2, a*b, b^2")
        instances = check_lemma_hypotheses(M)
        pairs = [
            i
            for i in instances
            if len(i.members) == 2
            and {str(M.generators[g]) for g in i.members} == {"a^2", "b^2"}
        ]
        assert pairs and all(not i.satisfied for i in pairs)

    def test_walk_lists_the_instances_of_the_plain_scan(self):
        acceptance_examples = [
            I("a, b, c"),
            I("a*d, b*d, c*d", ["a", "b", "c", "d"]),
            I("a*d, b*d, c*d, d^2", ["a", "b", "c", "d"]),
            I("a^2*b, a*b^3*c, b*c^2, a^2*c^2"),
            I("a^2*e, b^3*f, c*e^2, d^2*f^3"),
            I("a*e, b*e, c*e, d*e, a*b, c*d"),
            I("a*b, c*d, a*c, b*d"),
        ]
        params = FuzzParams(n_max=4, q_max=5, exp_max=3, trials=200, seed=42)
        ideals = acceptance_examples + [random_ideal(params, t) for t in range(200)]
        walked = [
            [
                (i.members, i.variables, i.satisfied, i.witness_mdeg)
                for i in check_lemma_hypotheses(M)
            ]
            for M in ideals
        ]
        assert walked == [plain_lemma_scan(M) for M in ideals]
        assert sum(map(len, walked)) == 960

    def test_satisfied_instances_always_witnessed_on_seeded_ideals(self):
        p = FuzzParams(n_max=4, q_max=5, exp_max=3, trials=60, seed=11)
        for t in range(p.trials):
            M = random_ideal(p, t)
            for inst in check_lemma_hypotheses(M):
                if inst.satisfied:
                    assert inst.witness_mdeg is not None, (M.render(), inst)


class TestPurePowerExtension:
    def test_adds_one_power_per_unassigned_variable(self):
        M = I("a*d, b*d, c*d", ["a", "b", "c", "d"])
        ext, mask_map = pure_power_extension(M, [0, 1, 2])
        assert ext == I("a*d, b*d, c*d, d^2", ["a", "b", "c", "d"])
        assert mask_map[0] != 0  # the empty set maps to the appended powers

    def test_mask_map_preserves_membership(self):
        M = I("a^2*c, b^2*c, a^2*b")
        ext, mask_map = pure_power_extension(M, [0, 1])
        for mask in range(1 << M.q):
            old = [str(M.generators[i]) for i in range(M.q) if mask >> i & 1]
            new = [
                str(ext.generators[i]) for i in range(ext.q) if mask_map[mask] >> i & 1
            ]
            assert set(old) <= set(new)
            assert len(new) == len(old) + (ext.q - M.q)
