"""Known kernel values, and ranks against dense reference elimination."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monodom import (
    FuzzParams,
    GuardExceeded,
    Monomial,
    _kernels,
    kernel_backend,
    random_ideal,
    table,
    verify,
)

from monodom.monomials import _minimal_ideal
from monodom.taylor import lattice_codes

from conftest import EXHAUSTIVE, reference_dominant_subsets, variable_masks

# the kernel module under test; each test keeps the id it had when the
# kernels lived in the package module monodom/_kernels/py.py
BACKENDS = [pytest.param(_kernels, id="monodom._kernels.py")]


def sparse(rows):
    """Dense integer rows as the {column: nonzero value} dicts the rank kernels take."""
    return [{c: v for c, v in enumerate(row) if v} for row in rows]


@pytest.mark.parametrize("backend", BACKENDS)
def test_rank_matches_known_values(backend):
    assert backend.rank_int(sparse([[1, 0], [0, 1]])) == 2
    assert backend.rank_int(sparse([[1, 2], [2, 4]])) == 1
    assert backend.rank_int(sparse([[0, 0], [0, 0]])) == 0
    assert backend.rank_int(sparse([])) == 0
    assert backend.rank_int(sparse([[1, -1, 0], [0, 1, -1], [1, 0, -1]])) == 2
    assert backend.rank_int(sparse([[2**62, 1], [1, 2**62]])) == 2


@pytest.mark.parametrize("backend", BACKENDS)
def test_transversal_cap_raises(backend):
    with pytest.raises(GuardExceeded):
        backend.minimal_transversals([0b01, 0b10], 0)


@pytest.mark.parametrize("backend", BACKENDS)
def test_wide_tables(backend):
    rows = (tuple([1] + [0] * 69), tuple([0] * 69 + [1]))
    # the 68 variables that never occur get no code bits
    codes, fields = lattice_codes(rows)
    assert codes == (0b01, 0b10)
    masks = backend.dominance_masks(codes, (0, 1))
    assert masks == [0b01, 0b10]
    assert variable_masks(fields, masks) == [1, 1 << 69]
    edges = [1, 1 << 69]
    assert backend.minimal_transversals(edges, 100) == [1 | 1 << 69]


@pytest.mark.parametrize("backend", BACKENDS)
def test_huge_exponents(backend):
    rows = ((3 * 10**9, 1), (0, 2))
    # codes of the two rows: a^(3*10^9) is a's one level (bit 0); b and
    # b^2 are b's two levels (bits 1 and 1-2), so the width is 3 bits
    codes, fields = lattice_codes(rows)
    assert codes == (0b011, 0b110)
    assert backend.subset_lcms(codes) == [0, 0b011, 0b110, 0b111]
    # the bits each code holds alone: a's level, and b's second level
    assert backend.dominance_masks(codes, (0, 1)) == [0b001, 0b100]
    walked = list(backend.dominant_subsets(codes, [2, 1]))
    assert walked == [((0, 1), [0b001, 0b100]), ((0,), [0b011]), ((1,), [0b110])]
    assert [(members, variable_masks(fields, masks)) for members, masks in walked] == [
        ((0, 1), [0b01, 0b10]), ((0,), [0b11]), ((1,), [0b10])
    ]


def test_every_kernel_is_exported():
    for name in ("first_divisors", "subset_lcms", "minimal_transversals",
                 "dominance_masks", "dominant_subsets", "rank_int", "rank_modp"):
        assert callable(getattr(_kernels, name))
    assert kernel_backend == "pure"


def reference_rank(rows, p=None):
    """Dense Gaussian elimination over Q (Fractions) or over F_p (p given)."""
    if p is None:
        m = [[Fraction(v) for v in row] for row in rows]
    else:
        m = [[v % p for v in row] for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, len(m)):
            if p is None:
                f = m[r][c] / m[rank][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
            else:
                f = m[r][c] * pow(m[rank][c], p - 2, p) % p
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


# mostly zeros and small entries, with non-unit and beyond-int64 values mixed in
ENTRY = st.one_of(
    st.just(0),
    st.just(0),
    st.sampled_from([1, -1, 2, -2, 3, 6, -9]),
    st.integers(min_value=-(2**70), max_value=2**70),
)


@st.composite
def matrices(draw):
    nr = draw(st.integers(min_value=0, max_value=9))
    nc = draw(st.integers(min_value=0, max_value=9))
    rows = [[draw(ENTRY) for _ in range(nc)] for _ in range(nr)]
    if nr and nc and draw(st.booleans()):
        # a copy of a combination of earlier rows, so the rank drops
        a, b = draw(ENTRY), draw(ENTRY)
        rows.append([a * x + b * y for x, y in zip(rows[0], rows[-1])])
    return rows


PRIMES = (2, 3, 32003, 2**61 - 1)


@pytest.mark.parametrize("backend", BACKENDS)
@given(rows=matrices())
@settings(max_examples=150, deadline=None)
def test_ranks_match_dense_elimination(backend, rows):
    assert backend.rank_int(sparse(rows)) == reference_rank(rows)
    for p in PRIMES:
        assert backend.rank_modp(sparse(rows), p) == reference_rank(rows, p)


@pytest.mark.parametrize("backend", BACKENDS)
def test_rank_edge_shapes(backend):
    for rows in ([], [[]], [[], []], [[0, 0, 0]], [[0], [0], [0]]):
        assert backend.rank_int(sparse(rows)) == 0
        for p in PRIMES:
            assert backend.rank_modp(sparse(rows), p) == 0
    wide = sparse([[0, 2, 0, 4, 0, 6, 0, 8]])
    tall = sparse([[0], [3], [0], [-5]])
    assert backend.rank_int(wide) == backend.rank_int(tall) == 1
    assert backend.rank_modp(wide, 2) == 0
    assert backend.rank_modp(tall, 3) == 1
    # a non-unit pivot and determinant -12: rank 2 over Q, 1 over F_3, 0 over F_2
    rows = sparse([[2, 4], [4, 2]])
    assert backend.rank_int(rows) == 2
    assert backend.rank_modp(rows, 3) == 1
    assert backend.rank_modp(rows, 2) == 0


def brute_transversals(edges, n):
    hitting = [s for s in range(1 << n) if all(e & s for e in edges)]
    return {s for s in hitting if not any(t != s and t & s == t for t in hitting)}


@pytest.mark.parametrize("backend", BACKENDS)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_transversals_match_brute_force(backend, data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    edges = data.draw(
        st.lists(st.integers(min_value=1, max_value=(1 << n) - 1), min_size=1, max_size=10)
    )
    found = backend.minimal_transversals(edges, 10**5)
    assert len(found) == len(set(found))
    assert set(found) == brute_transversals(edges, n)
    sizes = [s.bit_count() for s in found]
    assert sizes == sorted(sizes)


@pytest.mark.parametrize("backend", BACKENDS)
def test_transversals_of_two_wide_generators(backend):
    # x1*...*x60, y1*...*y60: every net is one x and one y
    k = 60
    xs, ys = (1 << k) - 1, ((1 << k) - 1) << k
    found = backend.minimal_transversals([xs, ys], 10**5)
    assert len(found) == 3600
    assert set(found) == {1 << i | 1 << j for i in range(k) for j in range(k, 2 * k)}


def brute_dominance_masks(exps, members):
    masks = [
        sum(
            1 << v
            for v, e in enumerate(exps[a])
            if e > 0 and all(exps[b][v] < e for b in members if b != a)
        )
        for a in members
    ]
    return masks if all(masks) else None


@pytest.mark.parametrize("backend", BACKENDS)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_dominance_masks_match_the_definition(backend, data):
    # exponents from a small range, so that ties for the top exponent are common
    n = data.draw(st.integers(min_value=1, max_value=5))
    q = data.draw(st.integers(min_value=1, max_value=6))
    exps = [tuple(data.draw(st.integers(0, 3)) for _ in range(n)) for _ in range(q)]
    members = tuple(sorted(data.draw(st.sets(st.integers(0, q - 1), min_size=1))))
    codes, fields = lattice_codes(exps)
    masks = backend.dominance_masks(codes, members)
    assert variable_masks(fields, masks) == brute_dominance_masks(exps, members)


@pytest.mark.parametrize("backend", BACKENDS)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_dominant_subsets_match_the_plain_scan(backend, data):
    # any rows, not only minimal generators: repeats, divisors and zero rows too
    n = data.draw(st.integers(min_value=1, max_value=4))
    q = data.draw(st.integers(min_value=1, max_value=7))
    exps = [tuple(data.draw(st.integers(0, 2)) for _ in range(n)) for _ in range(q)]
    codes, fields = lattice_codes(exps)
    for sizes in (range(q, 0, -1), range(1, q + 1)):
        walked = [
            (members, variable_masks(fields, masks))
            for members, masks in backend.dominant_subsets(codes, sizes)
        ]
        assert walked == list(reference_dominant_subsets(exps, sizes))


def reference_first_divisors(rows):
    """For each row, the first other row whose Monomial divides its own, or -1."""
    if not rows:
        return []
    tbl = table(*(f"x{i}" for i in range(len(rows[0]))))
    mons = [Monomial(tbl, row) for row in rows]
    return [
        next((j for j, g in enumerate(mons) if g is not h and g.divides(h)), -1)
        for h in mons
    ]


@pytest.mark.parametrize("backend", BACKENDS)
def test_first_divisors_on_the_exhaustive_families(backend):
    # each antichain, plus the lcm of every pair of its members, which the
    # members divide; before and after the generators
    for M in EXHAUSTIVE:
        gens = M.exponent_rows
        lcms = tuple(tuple(map(max, a, b)) for a, b in combinations(gens, 2))
        for rows in (gens, gens + lcms, lcms + gens):
            rows = list(dict.fromkeys(rows))
            assert backend.first_divisors(rows) == reference_first_divisors(rows)


@pytest.mark.parametrize("backend", BACKENDS)
def test_first_divisors_on_raw_fuzz_draws(backend, monkeypatch):
    # the exponent rows random_ideal draws, before any is dropped
    draws = []
    monkeypatch.setattr(
        verify, "_minimal_ideal", lambda tbl, rows: draws.append(rows) or _minimal_ideal(tbl, rows)
    )
    params = FuzzParams(n_max=6, q_max=10, exp_max=3, trials=0, seed=11)
    for t in range(1000):
        random_ideal(params, t)
    non_minimal = 0
    for drawn in draws:
        rows = list(dict.fromkeys(drawn))
        found = backend.first_divisors(rows)
        assert found == reference_first_divisors(rows)
        non_minimal += max(found) >= 0
    assert len(draws) == 1000 and non_minimal > 100


@pytest.mark.parametrize("backend", BACKENDS)
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_first_divisors_match_the_double_loop(backend, data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    exponent = st.one_of(st.integers(0, 3), st.integers(3 * 10**9 - 2, 3 * 10**9))
    rows = data.draw(st.lists(st.tuples(*[exponent] * n), max_size=10, unique=True))
    zero = (0,) * n
    if zero not in rows and data.draw(st.booleans()):
        rows.insert(data.draw(st.integers(0, len(rows))), zero)
    assert backend.first_divisors(rows) == reference_first_divisors(rows)
