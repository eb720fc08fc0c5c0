import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monodom import (
    Analysis,
    check_report,
    FreeComplex,
    FuzzParams,
    InvalidParameterError,
    Monomial,
    PrimeField,
    TaylorTooLarge,
    betti_oracle,
    build_taylor,
    is_dominant_set,
    is_taylor_minimal,
    minimalize,
    minimize,
    odom_by_dominance,
    random_ideal,
    scarf_basis,
    table,
)
from monodom import _kernels
from monodom.taylor import (
    TAYLOR_GUARD,
    _lyubeznik_order,
    facets,
    lattice_codes,
    lyubeznik_faces,
    members_of,
    taylor_faces,
)

from conftest import (
    EXHAUSTIVE,
    K33_SIDES,
    RANDOM_DRAWS,
    I,
    brute_scarf_masks,
    by_degree,
    complete_ideal,
    cycle_ideal,
    k33_ideal,
    path_ideal,
    reference_groups,
    reference_lattice_codes,
    reference_odom_by_dominance,
    row_ideals,
    rp2_ideal,
)


def sym_by_members(ideal, *gen_texts):
    lookup = {str(g): i for i, g in enumerate(ideal.generators)}
    mask = 0
    for t in gen_texts:
        mask |= 1 << lookup[t]
    return mask


class TestBuildTaylor:
    def test_two_generator_differential(self):
        M = I("a, b")
        cx = build_taylor(M)
        top = 0b11
        col = dict(facets(top))
        # removing the first member carries +, the second -
        first, second = members_of(top)
        assert col[top ^ (1 << first)] == 1
        assert col[top ^ (1 << second)] == -1
        a, b = cx.codes
        # the walk gives every subset of two generators, each with its lcm code
        strata = by_degree(lyubeznik_faces(M), M.q)
        assert strata == ({0: 0}, {0b01: a, 0b10: b}, {top: a | b})
        for single in strata[1]:
            assert dict(facets(single)) == {0: 1}
        # quotient monomials: mdeg([a,b]) / mdeg single = the other variable
        assert str(cx.mdeg(top)) == "a*b"

    def test_all_mdegs_distinct_for_dominant_ideal(self):
        cx = build_taylor(I("a*d, b*d, c*d"))
        mdegs = {cx.mdeg_codes[mask] for mask in range(8)}
        assert len(mdegs) == 8

    def test_collision_example(self):
        M = I("a^2, a*b, b^2")
        cx = build_taylor(M)
        pair = sym_by_members(M, "a^2", "b^2")
        triple = sym_by_members(M, "a^2", "a*b", "b^2")
        assert cx.mdeg_codes[pair] == cx.mdeg_codes[triple]
        assert str(cx.mdeg(pair)) == "a^2*b^2"

    def test_strata_sizes(self):
        # no generator divides the lcm of others: every subset is a face
        M = I("a, b, c, d")
        assert [len(s) for s in by_degree(lyubeznik_faces(M), M.q)] == [1, 4, 6, 4, 1]
        assert [len(s) for s in FreeComplex(M).strata] == [1, 4, 6, 4, 1]

    @pytest.mark.parametrize("k", [15, 20])
    def test_guard_sits_on_the_table_and_the_walk(self, k):
        # past TAYLOR_GUARD the lattice's codes still build, and the
        # dominance route reads them; what grows as 2^q raises: the
        # table, its strand map, the Lyubeznik walk and what reads them
        M = path_ideal(k)
        cx = build_taylor(M)
        assert cx.codes == lattice_codes(M.exponent_rows)[0]
        for read in (
            lambda: cx.mdeg_codes,
            lambda: cx.strands,
            lambda: taylor_faces(M),
            lambda: lyubeznik_faces(M),
            lambda: betti_oracle(M),
            lambda: scarf_basis(M),
            lambda: minimize(M),
            lambda: minimize(M, start="lyubeznik"),
        ):
            with pytest.raises(TaylorTooLarge):
                read()
        assert odom_by_dominance(M) == reference_odom_by_dominance(M)
        assert is_dominant_set(M, range(M.q)) == (False, None)
        ok, witness = is_dominant_set(M, [0, 2])
        assert ok and witness.variables == (0, 2)

    def test_guard_admits_its_own_q(self):
        M = path_ideal(TAYLOR_GUARD)
        assert len(build_taylor(M).mdeg_codes) == len(taylor_faces(M)) == 1 << M.q
        assert len(lyubeznik_faces(M)) == 4352

    def test_lattice_is_shared_and_read_only(self):
        M = I("a^2*b, a*b^2, a*c, b*c^2, c^3")
        cx = build_taylor(M)
        gens = cx.codes
        faces = lyubeznik_faces(M)
        codes = list(cx.mdeg_codes)
        scarf = scarf_basis(M)
        engine = minimize(M)[1]
        assert build_taylor(M) is cx
        assert cx.codes == gens
        assert list(lyubeznik_faces(M).items()) == list(faces.items())
        assert list(cx.mdeg_codes) == codes
        # the Taylor start builds the same table; the walk's codes agree with it
        assert FreeComplex(M).mdeg_codes == dict(enumerate(codes))
        assert all(codes[mask] == code for mask, code in faces.items())
        assert betti_oracle(M) == engine
        assert scarf_basis(M) == scarf
        assert not hasattr(cx, "diff")

    def test_one_tuple_object_per_distinct_lcm(self):
        # the engine's tables from both starts, the oracle and the Scarf
        # symbols all decode through the lattice, which builds one
        # Monomial per distinct code
        params = FuzzParams(n_max=6, q_max=10, exp_max=3, trials=0, seed=7)
        for M in (path_ideal(10), *(random_ideal(params, t) for t in range(100))):
            cx = build_taylor(M)
            mdegs = [cx.mdeg(mask) for mask in range(1 << M.q)]
            assert len({id(m) for m in mdegs}) == len(set(cx.mdeg_codes))
            assert all(m is cx.monomial(code) for m, code in zip(mdegs, cx.mdeg_codes))
            shared = {m.exponents: m for m in mdegs}
            tables = (minimize(M)[1], minimize(M, start="lyubeznik")[1], betti_oracle(M))
            for table_ in tables:
                assert all(shared[m.exponents] is m for _, m in table_.multigraded)
            assert all(sym.mdeg is cx.mdeg(sym.mask) for sym in scarf_basis(M).symbols)

    def test_d_squared_zero_and_multihomogeneous(self):
        for text in ("a, b", "a^2, a*b, b^2", "a*d, b*d, c*d, d^2", "a*b, c*d, a*c, b*d"):
            M = I(text)
            FreeComplex(M).validate()

    def test_mdeg_monotone_under_inclusion(self):
        cx = build_taylor(I("a^2*e, b^3*f, c*e^2"))
        codes = cx.mdeg_codes
        for mask in range(1, 8):
            for sub in range(mask):
                if sub & mask == sub:
                    assert codes[sub] | codes[mask] == codes[mask]
                    assert all(
                        x <= y
                        for x, y in zip(cx.mdeg(sub).exponents, cx.mdeg(mask).exponents)
                    )


def check_codes_against_exponents(M):
    """The lattice's codes against componentwise maxima of exponent rows.

    Every subset's code decodes to the lcm of its members, codes are
    equal exactly when the lcms are, a generator divides a subset's lcm
    exactly when its code is inside that subset's code, and the width is
    the number of distinct nonzero exponents summed over the variables.
    """
    rows, q = M.exponent_rows, M.q
    cx = build_taylor(M)
    lcms = [
        tuple(max((row[v] for k, row in enumerate(rows) if mask >> k & 1), default=0)
              for v in range(M.n))
        for mask in range(1 << q)
    ]
    codes = cx.mdeg_codes
    assert [cx.mdeg(mask).exponents for mask in range(1 << q)] == lcms
    assert len(set(codes)) == len(set(lcms))
    for mask in range(1 << q):
        for k, row in enumerate(rows):
            divides = all(e <= f for e, f in zip(row, lcms[mask]))
            assert (cx.codes[k] | codes[mask] == codes[mask]) == divides
    width = sum(len(set(column) - {0}) for column in zip(*rows))
    assert codes[-1] == (1 << width) - 1
    assert max(codes).bit_length() == width


EXPONENTS = st.integers(0, 3) | st.sampled_from([7, 10**9, 3 * 10**9 - 1, 3 * 10**9])


class TestCodes:
    def test_exhaustive_families(self):
        for M in EXHAUSTIVE:
            check_codes_against_exponents(M)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_drawn_ideals(self, data):
        n = data.draw(st.integers(1, 4))
        tbl = table(*(f"x{i}" for i in range(1, n + 1)))
        rows = data.draw(st.lists(st.tuples(*[EXPONENTS] * n), min_size=1, max_size=6))
        mons = [Monomial(tbl, row) for row in rows if any(row)]
        if mons:
            check_codes_against_exponents(minimalize(mons))

    @pytest.mark.parametrize("text", [
        "a^3000000000*b, b^2",
        "a^3000000000*b, a^2999999999*b^2, a*b^3000000000",
        "a^5*b, a^2*c^7, b^3*c^2, a*b^2*c^4",
    ])
    def test_huge_and_gapped_exponents(self, text):
        M = I(text)
        check_codes_against_exponents(M)
        assert build_taylor(M).mdeg_codes[-1].bit_length() <= M.q * M.n

    def test_codes_match_the_thermometer_reference(self):
        # a column with one nonzero level, as in every polarization, gets
        # one bit without a thermometer
        for M in row_ideals():
            rows = M.exponent_rows
            assert lattice_codes(rows) == reference_lattice_codes(rows)

    @pytest.mark.parametrize("text, names, codes", [
        ("x^3*y, x^3*z", None, (0b011, 0b101)),
        ("x^2*y^3, z^2", None, (0b011, 0b100)),
        ("a^2*c, c^3", ["a", "b", "c", "d"], (0b011, 0b110)),
        ("b^3*d^2", ["a", "b", "c", "d"], (0b11,)),
    ])
    def test_single_levels_of_two_or_three_and_absent_columns(self, text, names, codes):
        rows = I(text, names).exponent_rows
        assert lattice_codes(rows) == reference_lattice_codes(rows)
        assert lattice_codes(rows)[0] == codes

    def test_unused_variables_take_no_bits(self):
        M = I("a^2*c, c^3", ["a", "b", "c", "d"])
        check_codes_against_exponents(M)
        assert build_taylor(M).codes == (0b011, 0b110)


def assert_spelled_as_decoded(lattice, codes):
    """Each code's spelling is its monomial's text and total degree, and
    sorting by the spelled keys sorts the exponent tuples."""
    codes = list(dict.fromkeys(codes))
    spelled = lattice.spellings(codes)
    decoded = lattice.monomials(codes)
    for code in codes:
        text, degree, _ = spelled[code]
        assert text == str(decoded[code])
        assert degree == sum(decoded[code].exponents)
    by_key = sorted(codes, key=lambda code: spelled[code][2])
    assert by_key == sorted(codes, key=lambda code: decoded[code].exponents)


def printed_codes(analysis):
    """The codes of the engine's table, the oracle's table and the Scarf basis."""
    lattice = analysis.scarf_basis.lattice
    yield from (code for _, code in analysis.betti.counts)
    yield from (code for _, code in analysis.betti_by_oracle.counts)
    yield from (lattice.mdeg_codes[mask] for mask in analysis.scarf_basis.masks)


class TestSpelling:
    # two-digit exponents, and codes over several byte windows
    DRAWS = FuzzParams(n_max=8, q_max=10, exp_max=12, trials=200, seed=32)

    def test_draws_spell_as_they_decode(self):
        wide = two_digit = 0
        for t in range(self.DRAWS.trials):
            analysis = Analysis(random_ideal(self.DRAWS, t))
            lattice = analysis.scarf_basis.lattice
            assert_spelled_as_decoded(lattice, printed_codes(analysis))
            wide += lattice.mdeg_codes[-1].bit_length() > 8
            two_digit += max(map(max, analysis.ideal.exponent_rows)) >= 10
        assert wide > 50 and two_digit > 50

    @pytest.mark.parametrize("make", [
        # fields of 11 bits, each straddling a byte window
        lambda: I(", ".join(f"x^{e}*y^{12 - e}" for e in range(11, 0, -1))),
        lambda: I("x^12*y^10, x^10*z^11, y^11*z^13, x^11*y^11*z^10, x^13*z^10"),
        lambda: I("a^3000000000*b, a^2999999999*b^2, a*b^3000000000"),
        lambda: I("a^2*c, c^3", ["a", "b", "c", "d"]),
    ], ids=["two-window-fields", "two-digit", "huge", "unused-variables"])
    def test_named_ideals_spell_as_they_decode(self, make):
        analysis = Analysis(make())
        assert_spelled_as_decoded(analysis.scarf_basis.lattice, printed_codes(analysis))

    def test_rp2_over_f2(self):
        analysis = Analysis(rp2_ideal(), PrimeField(2))
        assert analysis.betti.total != Analysis(rp2_ideal()).betti.total
        assert_spelled_as_decoded(analysis.scarf_basis.lattice, printed_codes(analysis))

    def test_the_unit_code_spells_one(self):
        lattice = build_taylor(I("x^3*y, y^2*z"))
        assert lattice.spellings([0])[0] == ("1", 0, 0)


def brute_lyubeznik_faces(ideal, order):
    """Every subset whose tails (in `order`) have no earlier generator
    dividing their lcm, by exponent comparison over all 2^q subsets."""
    rows, n = ideal.exponent_rows, ideal.n
    faces = set()
    for mask in range(1 << ideal.q):
        members = [k for k in order if mask >> k & 1]
        ok = True
        for t in range(len(members)):
            tail = members[t:]
            lcm = [max(rows[g][v] for g in tail) for v in range(n)]
            before = order[: order.index(tail[0])]
            if any(all(rows[k][v] <= lcm[v] for v in range(n)) for k in before):
                ok = False
        if ok:
            faces.add(mask)
    return faces


LYUBEZNIK_FACES = [
    (lambda: path_ideal(12), 1344),
    (lambda: cycle_ideal(13), 2176),
    (lambda: path_ideal(14), 4352),
    (rp2_ideal, 74),
    (lambda: complete_ideal(5), 68),
]


def scan_order(mask):
    return mask.bit_count(), mask


class TestFaceMaps:
    @pytest.mark.parametrize("make", [lambda: I("a^2*b, a*b^2, a*c, b*c^2, c^3"), rp2_ideal])
    def test_both_maps_iterate_in_scan_order(self, make):
        M = make()
        for faces in (taylor_faces(M), lyubeznik_faces(M)):
            assert list(faces) == sorted(faces, key=scan_order)

    def test_taylor_faces_are_the_lattice_table(self):
        M = cycle_ideal(7)
        table = _kernels.subset_lcms(build_taylor(M).codes)
        assert taylor_faces(M) == dict(enumerate(table))

    def test_taylor_minimal_ideal_gives_both_starts_the_same_map(self):
        # no generator divides the lcm of the others, so every subset is a
        # Lyubeznik face, whatever the order
        M = I("a^2*e, b^3*f, c*e^2, d^2*f^3")
        assert is_taylor_minimal(M)
        assert list(lyubeznik_faces(M).items()) == list(taylor_faces(M).items())


class TestLyubeznik:
    @pytest.mark.parametrize("order", [[0, 0, 1, 2, 3], [0, 1, 2, 3], [1, 2, 3, 4, 5]])
    def test_order_must_be_a_permutation(self, order):
        # a repeated index drops a generator from the walk, and the engine
        # then gives (1, 4, 4, 1) where the table is (1, 5, 6, 2); a short
        # or shifted order runs off the walk's lists
        M = I("a^2*b, a*b^2, a*c, b*c^2, c^3")
        with pytest.raises(InvalidParameterError, match="permutation of range"):
            lyubeznik_faces(M, order)

    @pytest.mark.parametrize(
        "make,faces", LYUBEZNIK_FACES, ids=["P12", "C13", "P14", "RP2", "K5"]
    )
    def test_heuristic_face_counts(self, make, faces):
        M = make()
        strata = by_degree(lyubeznik_faces(M), M.q)
        assert sum(map(len, strata)) == faces
        assert all(list(stratum) == sorted(stratum) for stratum in strata)
        assert all(mask.bit_count() == h for h, st in enumerate(strata) for mask in st)

    def test_natural_order_keeps_every_subset_of_the_path(self):
        M = path_ideal(14)
        assert len(lyubeznik_faces(M, range(M.q))) == 2**14

    @pytest.mark.parametrize(
        "text",
        [
            "a^2, a*b, b^2, b*c, c^2",
            "a^2*b, a*b^2, a*c, b*c^2, c^3",
            "a*b, c*d, a*c, b*d",
            "x1*x2, x2*x3, x3*x4, x4*x5, x5*x6, x1*x6",
            "a^3, a^2*b, a*b^2, b^3, a*c, b*c, c^2",
        ],
    )
    def test_faces_match_the_definition(self, text):
        M = I(text)
        rng = random.Random(text)
        orders = [None, tuple(range(M.q))] + [rng.sample(range(M.q), M.q) for _ in range(4)]
        for order in orders:
            faces = lyubeznik_faces(M, order)
            lcms = build_taylor(M).mdeg_codes
            assert all(lcms[mask] == code for mask, code in faces.items())
            if order is None:
                order = _lyubeznik_order(M, build_taylor(M).codes)
            assert set(faces) == brute_lyubeznik_faces(M, list(order))

    @pytest.mark.parametrize("make", [lambda: cycle_ideal(9), rp2_ideal, lambda: complete_ideal(5)])
    def test_facets_of_faces_are_faces(self, make):
        M = make()
        strata = by_degree(lyubeznik_faces(M), M.q)
        for h in range(1, len(strata)):
            below = set(strata[h - 1])
            for sigma in strata[h]:
                assert all(tau in below for tau, _ in facets(sigma))


class TestScarf:
    def test_collision_example_basis(self):
        M = I("a^2, a*b, b^2")
        basis = scarf_basis(M)
        labels = {sym.label(M) for sym in basis.symbols}
        assert labels == {
            "[0]",
            "[a^2]",
            "[a*b]",
            "[b^2]",
            "[a^2, a*b]",
            "[a*b, b^2]",
        }
        assert basis.ranks == (1, 3, 2)

    def test_equality_compares_the_decoded_symbols(self):
        # x^2 and x^3 have the same masks and ranks but other multidegrees
        x2, x3 = scarf_basis(I("x^2")), scarf_basis(I("x^3"))
        assert x2.ranks == x3.ranks and x2.masks == x3.masks
        assert x2 != x3
        assert x2 == scarf_basis(I("x^2")) and hash(x2) == hash(scarf_basis(I("x^2")))

    def test_single_generator(self):
        M = I("a")
        basis = scarf_basis(M)
        assert {sym.mask for sym in basis.symbols} == {0, 1}
        assert basis.ranks == (1, 1)

    def test_dominant_ideal_keeps_all_symbols(self):
        M = I("a*d, b*d, c*d")
        basis = scarf_basis(M)
        assert len(basis.symbols) == 8
        assert basis.ranks == (1, 3, 3, 1)

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("a^2, a*b, b^2", True),
            ("a^2*b, a*b^3*c, b*c^2", True),  # dominant, hence Scarf
            ("a*b, c*d, a*c, b*d", False),
        ],
    )
    def test_is_scarf(self, text, expected):
        assert Analysis(I(text)).scarf is expected

    def test_is_scarf_builds_one_lattice(self, lattice_builds):
        assert Analysis(I("a^2*b, a*b^2, a*c, b*c^2, c^3")).scarf is True
        assert len(lattice_builds) == 1

    def test_scarf_ranks_bounded_by_betti(self):
        for text in ("a*b, c*d, a*c, b*d", "a^2, a*b, b^2", "a*e, b*e, c*e, d*e, a*b, c*d"):
            M = I(text)
            ranks = scarf_basis(M).ranks
            betti = minimize(M)[1].total
            assert all(
                r <= b for r, b in zip(ranks, betti + (0,) * len(ranks))
            )

    def test_dominant_implies_scarf_equals_everything(self):
        M = I("a^2*e, b^3*f, c*e^2, d^2*f^3")
        assert is_taylor_minimal(M)
        assert len(scarf_basis(M).symbols) == 2**M.q


def groups_by_monomial(cx):
    """`reference_groups` keyed by the decoded multidegree's exponent tuple."""
    return {cx.monomial(code).exponents: group for code, group in reference_groups(cx).items()}


class TestMdegMultiplicity:
    def test_collision_counts(self):
        groups = groups_by_monomial(build_taylor(I("a^2, a*b, b^2")))
        # one symbol in each of degrees 2 and 3 attains a^2*b^2
        assert [mask.bit_count() for mask in groups[(2, 2)]] == [2, 3]

    def test_unique_everywhere_for_two_gens(self):
        groups = reference_groups(build_taylor(I("a, b")))
        assert all(len(group) == 1 for group in groups.values())

    def test_m3_all_multidegrees_distinct(self):
        # a dominant generating set owns one strict top exponent per member,
        # so all 2^q subset lcms differ; that is why its resolution needs no
        # cancellation at all
        M = I("a*d, b*d, c*d, d^2", ["a", "b", "c", "d"])
        groups = groups_by_monomial(build_taylor(M))
        assert len(groups) == 2**M.q
        assert all(len(group) == 1 for group in groups.values())
        assert [mask.bit_count() for mask in groups[(1, 1, 1, 1)]] == [3]
        assert [mask.bit_count() for mask in groups[(1, 1, 1, 2)]] == [4]


# 300 draws with the benchmark's fuzz limits: up to 6 variables, 10
# generators and exponent 3
STRAND_DRAWS = [
    random_ideal(FuzzParams(n_max=6, q_max=10, exp_max=3, trials=0, seed=3301), t)
    for t in range(300)
]


class TestStrandMap:
    """`TaylorComplex.strands` against the groups of the 2^q table."""

    @pytest.mark.parametrize(
        "ideals",
        [
            pytest.param(lambda: STRAND_DRAWS, id="draws"),
            pytest.param(lambda: [path_ideal(12), cycle_ideal(13)], id="P12-C13"),
            pytest.param(lambda: [k33_ideal(side) for side in K33_SIDES], id="K33"),
        ],
    )
    def test_top_face_and_pairing_bit(self, ideals):
        for M in ideals():
            cx = build_taylor(M)
            groups = reference_groups(cx)
            assert list(cx.strands) == list(groups)
            for code, group in groups.items():
                top, k = cx.strands[code]
                union = 0
                for mask in group:
                    union |= mask
                assert top == max(group) == union
                members = set(group)
                first = next((1 << j for j in members_of(top) if top ^ 1 << j in members), 0)
                assert k == first
                assert (k == 0) == (len(group) == 1)

    def test_draws_reach_every_kind_of_strand(self):
        assert max(M.q for M in STRAND_DRAWS) == 9
        kinds = {k == 0 for M in STRAND_DRAWS for _, k in build_taylor(M).strands.values()}
        assert kinds == {True, False}

    def test_one_table_and_one_strand_map_per_lattice(self, lattice_builds, strand_map_builds):
        assert check_report(path_ideal(12)).ok
        assert len(lattice_builds) == len(strand_map_builds) == 1
        analysis = Analysis(path_ideal(12))
        assert analysis.scarf_basis.ranks == brute_scarf_masks(analysis.ideal)[1]
        assert analysis.betti_by_oracle == analysis.betti
        assert len(lattice_builds) == len(strand_map_builds) == 2


class TestScarfAgainstBruteForce:
    """`scarf_basis` against the subsets whose lcm, on exponent rows, no
    other subset has."""

    def assert_brute_force(self, ideals):
        for M in ideals:
            basis = scarf_basis(M)
            assert (basis.masks, basis.ranks) == brute_scarf_masks(M)

    def test_exhaustive_families(self):
        self.assert_brute_force(EXHAUSTIVE)

    def test_random_draws(self):
        self.assert_brute_force(RANDOM_DRAWS)

    def test_rp2(self):
        self.assert_brute_force([rp2_ideal()])


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_scarf_ranks_invariant_under_generator_reordering(data):
    n = data.draw(st.integers(min_value=1, max_value=3))
    tbl = table(*(f"x{i}" for i in range(1, n + 1)))
    mons = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        exps = tuple(data.draw(st.integers(min_value=0, max_value=2)) for _ in range(n))
        if any(exps):
            mons.append(Monomial(tbl, exps))
    if not mons:
        return
    M = minimalize(mons)
    perm = data.draw(st.permutations(list(M.generators)))
    assert scarf_basis(minimalize(list(perm))).ranks == scarf_basis(M).ranks
