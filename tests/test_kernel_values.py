"""Known kernel values and the selector's overflow rule, on every backend present."""

import pytest

from monodom import GuardExceeded, _kernels
from monodom._kernels import py as pure

# the pure module, and the selected backend behind its overflow rule
BACKENDS = [pure] if _kernels.impl is pure else [pure, _kernels]


@pytest.mark.parametrize("backend", BACKENDS)
def test_rank_matches_known_values(backend):
    assert backend.rank_int([[1, 0], [0, 1]]) == 2
    assert backend.rank_int([[1, 2], [2, 4]]) == 1
    assert backend.rank_int([[0, 0], [0, 0]]) == 0
    assert backend.rank_int([]) == 0
    assert backend.rank_int([[1, -1, 0], [0, 1, -1], [1, 0, -1]]) == 2
    assert backend.rank_int([[2**62, 1], [1, 2**62]]) == 2


@pytest.mark.parametrize("backend", BACKENDS)
def test_transversal_cap_raises(backend):
    with pytest.raises(GuardExceeded):
        backend.minimal_transversals([0b01, 0b10], 2, 0)


@pytest.mark.parametrize("backend", BACKENDS)
def test_wide_tables(backend):
    rows = (tuple([1] + [0] * 69), tuple([0] * 69 + [1]))
    assert backend.dominance_masks(rows, (0, 1)) == [1, 1 << 69]
    edges = [1, 1 << 69]
    assert backend.minimal_transversals(edges, 70, 100) == [1 | 1 << 69]


@pytest.mark.parametrize("backend", BACKENDS)
def test_huge_exponents(backend):
    rows = ((3 * 10**9, 1), (0, 2))
    assert backend.subset_lcms(rows, 2) == [(0, 0), (3 * 10**9, 1), (0, 2), (3 * 10**9, 2)]
    assert backend.dominance_masks(rows, (0, 1)) == [0b01, 0b10]


def test_overflow_falls_back_to_pure():
    def compiled(rows):
        raise OverflowError("does not fit")

    def exact_rank(rows):
        return 7

    kernel = _kernels.exact(compiled, exact_rank)
    assert kernel([[1]]) == 7
    assert kernel.__name__ == "exact_rank"
    assert _kernels.exact(exact_rank, exact_rank) is exact_rank


def test_every_kernel_is_exported():
    for name in ("subset_lcms", "minimal_transversals", "dominance_masks",
                 "rank_int", "rank_modp"):
        assert callable(getattr(_kernels, name))
