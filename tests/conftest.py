from itertools import combinations, permutations

import pytest
from hypothesis import settings

from monodom import parse_ideal

# Every run draws the same examples, so whether a test catches a given
# fault does not depend on the run (this also turns off the example database).
settings.register_profile("repeatable", derandomize=True)
settings.load_profile("repeatable")


@pytest.fixture
def ideal():
    return parse_ideal


def I(text, var_names=None):
    return parse_ideal(text, var_names)


@pytest.fixture
def lattice_builds(monkeypatch):
    """A list that gains one entry per `subset_lcms` call, i.e. per lattice built."""
    from monodom import _kernels

    calls = []
    kernel = _kernels.subset_lcms

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(_kernels, "subset_lcms", counted)
    return calls


# ---------------------------------------------------------------------------
# independent brute-force oracles, written directly from the definitions and
# kept free of the package's enumeration code


def brute_minimal_nets(ideal):
    """All minimal transversals by scanning every variable subset."""
    n = ideal.n
    supports = [set(g.support()) for g in ideal.generators]
    nets = []
    for mask in range(1, 1 << n):
        X = {i for i in range(n) if mask >> i & 1}
        if all(s & X for s in supports):
            nets.append(frozenset(X))
    minimal = [X for X in nets if not any(Y < X for Y in nets)]
    return sorted((len(X), tuple(sorted(X))) for X in minimal)


def family_as_tuples(family):
    return sorted((net.cardinality, net.variables) for net in family)


def brute_is_dominant(rows, subset):
    """Direct definition: each member has a strictly-maximal variable."""
    n = len(rows[0])
    for i in subset:
        if not any(
            rows[i][v] > 0
            and all(rows[j][v] < rows[i][v] for j in subset if j != i)
            for v in range(n)
        ):
            return False
    return True


def brute_odom(ideal):
    """Literal maximum over dominant subsets with covering assignments."""
    rows = ideal.exponent_rows
    n = ideal.n
    best = 0
    for size in range(1, min(ideal.q, n) + 1):
        for D in combinations(range(ideal.q), size):
            lcm = [max(rows[g][v] for g in D) for v in range(n)]
            for assign in permutations(range(n), size):
                ok = all(
                    rows[D[j]][assign[j]] > 0
                    and all(
                        rows[g][assign[j]] < rows[D[j]][assign[j]]
                        for g in D
                        if g != D[j]
                    )
                    for j in range(size)
                )
                if not ok:
                    continue
                covered = True
                for g in range(ideal.q):
                    if all(rows[g][v] <= lcm[v] for v in range(n)):
                        if not any(
                            rows[g][assign[j]] >= lcm[assign[j]] for j in range(size)
                        ):
                            covered = False
                            break
                if covered:
                    best = max(best, size)
                    break
    return best
