"""Acceptance suite: one pass/fail line per criterion, timed where bounded.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time

import pytest

from monodom import (
    check_lemma_hypotheses,
    check_report,
    dominant_variables,
    fuzz,
    FuzzParams,
    is_dominant_set,
    is_net,
    minimal_nets,
    minimize,
    parse_ideal,
    polarize,
    random_ideal,
)

from conftest import brute_minimal_nets, family_as_tuples, minimize_randomly


def _report(label, elapsed=None, bound=None):
    stamp = "" if elapsed is None else f"  ({elapsed:.2f}s < {bound:.0f}s)"
    print(f"PASS {label}{stamp}")


@pytest.fixture(autouse=True)
def _newline_before_output():
    print()
    yield


def test_criterion_1_three_variables():
    t0 = time.perf_counter()
    r = check_report(parse_ideal("a, b, c"))
    elapsed = time.perf_counter() - t0
    assert (r.codim, r.odom, r.pd) == (3, 3, 3)
    assert r.ok
    assert elapsed < 1.0
    _report("criterion 1: (a,b,c) codim = odom = pd = 3", elapsed, 1)


def test_criterion_2_three_pipes():
    t0 = time.perf_counter()
    M = parse_ideal("a*d, b*d, c*d", ["a", "b", "c", "d"])
    r = check_report(M)
    elapsed = time.perf_counter() - t0
    assert (r.codim, r.odom, r.pd) == (1, 3, 3)
    assert r.taylor_minimal
    assert r.betti_by_oracle.total == (1, 3, 3, 1)
    assert r.betti.total == (1, 3, 3, 1)
    assert r.ok
    assert elapsed < 1.0
    _report(
        "criterion 2: (ad,bd,cd) codim 1, odom 3, pd 3, Taylor minimal, "
        "betti (1,3,3,1) by oracle",
        elapsed,
        1,
    )


def test_criterion_3_added_square():
    t0 = time.perf_counter()
    M = parse_ideal("a*d, b*d, c*d, d^2", ["a", "b", "c", "d"])
    r = check_report(M)
    P = polarize(M)
    fam = minimal_nets(P)
    elapsed = time.perf_counter() - t0
    assert (r.codim, r.odom, r.pd) == (1, 4, 4)
    assert [net.names(P) for net in fam] == [("d_1",), ("a_1", "b_1", "c_1", "d_2")]
    assert family_as_tuples(fam) == brute_minimal_nets(P)
    assert r.ok
    assert elapsed < 1.0
    _report(
        "criterion 3: (ad,bd,cd,d^2) codim 1, odom 4, pd 4; polarized nets "
        "exactly {d_1} and {a_1,b_1,c_1,d_2}",
        elapsed,
        1,
    )


def test_criterion_4_dominance_example():
    G = parse_ideal("a^2*b, a*b^3*c, b*c^2, a^2*c^2")
    by_text = {str(g): i for i, g in enumerate(G.generators)}
    everyone = range(G.q)
    for text, i in by_text.items():
        doms = dominant_variables(G, i, everyone)
        if text == "a*b^3*c":
            assert tuple(G.table.names[v] for v in doms) == ("b",)
        else:
            assert doms == ()
    triple = [by_text["a^2*b"], by_text["a*b^3*c"], by_text["b*c^2"]]
    assert is_dominant_set(G, triple)[0]
    _report(
        "criterion 4: only a*b^3*c dominant (via b); (a^2*b, a*b^3*c, b*c^2) "
        "is a dominant set"
    )


def test_criterion_5_net_family():
    M = parse_ideal("a^2*e, b^3*f, c*e^2, d^2*f^3")
    family = {frozenset(net.names(M)) for net in minimal_nets(M)}
    assert family == {
        frozenset({"e", "f"}),
        frozenset({"a", "b", "c", "d"}),
        frozenset({"a", "c", "f"}),
        frozenset({"b", "d", "e"}),
    }
    assert family_as_tuples(minimal_nets(M)) == brute_minimal_nets(M)
    assert is_net(M, ["d", "e", "f"]) and not any(
        set(net.names(M)) == {"d", "e", "f"} for net in minimal_nets(M)
    )
    assert is_net(M, ["b", "d", "e", "f"]) and not any(
        set(net.names(M)) == {"b", "d", "e", "f"} for net in minimal_nets(M)
    )
    _report(
        "criterion 5: minimal nets of (a^2e, b^3f, ce^2, d^2f^3) are exactly "
        "{e,f},{a,b,c,d},{a,c,f},{b,d,e}; {d,e,f} and {b,d,e,f} are "
        "nets but not minimal"
    )


def test_criterion_6_odom_by_nets_example():
    M = parse_ideal("a*e, b*e, c*e, d*e, a*b, c*d")
    r = check_report(M)
    assert M.n == 5
    assert r.odom == 4
    assert r.pd == 4 == M.n - 1
    assert r.ok
    _report("criterion 6: (ae,be,ce,de,ab,cd) odom = 4 and pd = 4 = n-1")


def test_criterion_7_counterexample():
    r = check_report(parse_ideal("a*b, c*d, a*c, b*d"))
    assert (r.codim, r.odom, r.pd) == (2, 2, 3)
    assert not r.cohen_macaulay
    assert not r.scarf
    assert r.ok
    _report(
        "criterion 7: (ab,cd,ac,bd) codim = odom = 2, pd = 3, "
        "not Cohen-Macaulay, not Scarf"
    )


def test_criterion_8_principal_star_family():
    for n in (4, 5):
        t0 = time.perf_counter()
        vars = [f"x{i}" for i in range(1, n + 1)]
        text = "x1^2, " + ", ".join(f"x1*x{i}" for i in range(2, n + 1))
        r = check_report(parse_ideal(text, vars))
        elapsed = time.perf_counter() - t0
        assert r.codim == 1
        assert r.pd == n
        assert r.ok
        assert elapsed < 5.0
        _report(
            f"criterion 8: (x1^2, x1*x2, ..., x1*x{n}) codim 1, pd {n} = n",
            elapsed,
            5,
        )


def test_criterion_9_property_suite():
    t0 = time.perf_counter()
    s1 = fuzz(FuzzParams(n_max=2, q_max=8, exp_max=2, trials=0, exhaustive=True))
    s2 = fuzz(FuzzParams(n_max=4, q_max=5, exp_max=1, trials=0, exhaustive=True))
    s3 = fuzz(FuzzParams(n_max=4, q_max=5, exp_max=3, trials=1000, seed=42))
    elapsed = time.perf_counter() - t0
    for summary in (s1, s2, s3):
        for tally in summary.check_tally.values():
            assert tally.get("fail", 0) == 0
    assert elapsed < 120.0
    _report(
        f"criterion 9: zero failures across checks on {s1.ideal_count} exhaustive "
        f"(n<=2, exp<=2) + {s2.ideal_count} exhaustive squarefree (n<=4, q<=5) "
        f"+ {s3.ideal_count} seeded random ideals",
        elapsed,
        120,
    )


def test_criterion_10_pivot_order_independence():
    t0 = time.perf_counter()
    params = FuzzParams(n_max=4, q_max=5, exp_max=3, trials=50, seed=2024)
    mismatches = 0
    for t in range(params.trials):
        M = random_ideal(params, t)
        reference = minimize(M)[1]
        for k in range(20):
            rng = random.Random(1_000_003 * t + k)
            if minimize_randomly(M, rng) != reference:
                mismatches += 1
    elapsed = time.perf_counter() - t0
    assert mismatches == 0
    assert elapsed < 60.0
    _report(
        "criterion 10: 20 randomized pivot orders on 50 seeded ideals all "
        "reproduce the canonical Betti tables",
        elapsed,
        60,
    )


def test_criterion_11_lemma_existence():
    t0 = time.perf_counter()
    params = FuzzParams(n_max=4, q_max=5, exp_max=3, trials=1000, seed=42)
    satisfied = 0
    failures = 0
    for t in range(params.trials):
        M = random_ideal(params, t)
        for inst in check_lemma_hypotheses(M):
            if inst.satisfied:
                satisfied += 1
                if inst.witness_mdeg is None:
                    failures += 1
    elapsed = time.perf_counter() - t0
    assert satisfied > 0
    assert failures == 0
    _report(
        f"criterion 11: {satisfied} satisfied lemma instances over the seeded "
        f"ideals, every one with a multidegree witness of positive Betti number",
        elapsed,
        120,
    )
