"""Pure and compiled kernel backends must agree bit for bit.

Backend-independent values live in test_kernel_values.py, which runs
without the compiled extension.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monodom._kernels import py as pure

fast = pytest.importorskip(
    "monodom._kernels._fast", reason="compiled kernels not built"
)


@st.composite
def exponent_rows(draw):
    q = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=1, max_value=6))
    rows = tuple(
        tuple(draw(st.integers(min_value=0, max_value=4)) for _ in range(n))
        for _ in range(q)
    )
    return rows, n


@given(exponent_rows())
@settings(max_examples=80)
def test_subset_lcms_equivalent(data):
    rows, n = data
    assert pure.subset_lcms(rows, n) == fast.subset_lcms(rows, n)


@given(exponent_rows(), st.data())
@settings(max_examples=80)
def test_dominance_masks_equivalent(data, payload):
    rows, _ = data
    q = len(rows)
    members = tuple(
        sorted(
            payload.draw(
                st.lists(
                    st.integers(min_value=0, max_value=q - 1),
                    min_size=1,
                    max_size=q,
                    unique=True,
                )
            )
        )
    )
    assert pure.dominance_masks(rows, members) == fast.dominance_masks(rows, members)


@given(st.data())
@settings(max_examples=80)
def test_minimal_transversals_equivalent(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    edges = data.draw(
        st.lists(st.integers(min_value=1, max_value=(1 << n) - 1), min_size=1, max_size=8)
    )
    a = sorted(pure.minimal_transversals(edges, n, 10**5))
    b = sorted(fast.minimal_transversals(edges, n, 10**5))
    assert a == b


@given(st.data())
@settings(max_examples=80)
def test_ranks_equivalent(data):
    nr = data.draw(st.integers(min_value=0, max_value=6))
    nc = data.draw(st.integers(min_value=0, max_value=6))
    mat = [
        [data.draw(st.integers(min_value=-4, max_value=4)) for _ in range(nc)]
        for _ in range(nr)
    ]
    assert pure.rank_int(mat) == fast.rank_int(mat)
    assert pure.rank_modp(mat, 32003) == fast.rank_modp(mat, 32003)


def test_compiled_overflow_falls_back_to_exact():
    from monodom import _kernels

    big = [[2**62, 1], [1, 2**62]]
    with pytest.raises(OverflowError):
        fast.rank_int(big)
    assert _kernels.rank_int(big) == pure.rank_int(big) == 2
    rows = ((3 * 10**9, 1), (0, 2))
    with pytest.raises(OverflowError):
        fast.subset_lcms(rows, 2)
    with pytest.raises(OverflowError):
        fast.dominance_masks(rows, (0, 1))
    assert _kernels.subset_lcms(rows, 2) == pure.subset_lcms(rows, 2)
    assert _kernels.dominance_masks(rows, (0, 1)) == pure.dominance_masks(rows, (0, 1))


def test_wide_tables_fall_back_to_pure_paths():
    rows = (tuple([1] + [0] * 69), tuple([0] * 69 + [1]))
    assert fast.dominance_masks(rows, (0, 1)) == pure.dominance_masks(rows, (0, 1))
    edges = [1, 1 << 69]
    assert sorted(fast.minimal_transversals(edges, 70, 100)) == sorted(
        pure.minimal_transversals(edges, 70, 100)
    )


def test_backend_selection_env(monkeypatch):
    import importlib
    import monodom._kernels as sel

    monkeypatch.setenv("MONODOM_PURE", "1")
    reloaded = importlib.reload(sel)
    try:
        assert reloaded.BACKEND == "pure"
    finally:
        monkeypatch.delenv("MONODOM_PURE")
        importlib.reload(sel)


def test_random_cross_battery():
    rng = random.Random(99)
    for _ in range(200):
        q, n = rng.randrange(1, 6), rng.randrange(1, 6)
        rows = tuple(
            tuple(rng.randrange(0, 4) for _ in range(n)) for _ in range(q)
        )
        assert pure.subset_lcms(rows, n) == fast.subset_lcms(rows, n)
        edges = [rng.randrange(1, 1 << n) for _ in range(rng.randrange(1, 5))]
        assert sorted(pure.minimal_transversals(edges, n, 10**4)) == sorted(
            fast.minimal_transversals(edges, n, 10**4)
        )
