"""Workload inputs, their fixed jobs, and the pinned outputs they are checked against.

Each workload is a list of operations built from the seed. One "rep" runs
every operation once, in order, and times each one; an operation fails
when it raises, exits nonzero, yields a failed theorem check, or differs
from its pinned Betti table. A failure is recorded, never raised.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from itertools import combinations

import speed

WORKLOADS = ("fuzz_campaign", "graph_large", "strand_oracle")
PROBE_EVERY_S = 0.25  # seconds between two host speed probes during a rep

FUZZ_LIMITS = dict(n_max=6, q_max=10, exp_max=3)
# Ideals per generator count q in one campaign: the share of each q in
# 100,000 draws of the stream with FUZZ_LIMITS, per 1000 ideals (q = 10 is
# 0.47 per 1000 and rounds away). Filling fixed quotas keeps the mix of
# sizes, and so the job's cost, the same for every seed. Unstratified, the
# few q = 7..8 draws that hold most of the time make the wall time of 1000
# trials vary from seed to seed by a quartile spread of about 23% (a
# bootstrap over 6000 timed trials), against about 4% with the quotas.
# q = 8 gets 12 rather than its rounded share of 11, taken from q = 1: the
# nearest-rank p99 (the 11th slowest ideal) then falls inside the q = 8
# stratum instead of on its edge, where it would be the stratum's minimum
# and its seed-to-seed spread would rise from about 6% to 15%.
FUZZ_QUOTA = {1: 338, 2: 244, 3: 153, 4: 107, 5: 72, 6: 45, 7: 25, 8: 12, 9: 4}
FUZZ_QUOTA_TINY = {1: 6, 2: 5, 3: 4, 4: 3, 5: 2, 6: 1}
# Trials drawn for a campaign, used or not, so that set-up costs the same
# for every seed: filling FUZZ_QUOTA took 1065 to 3523 draws over seeds 1,
# 5, 11-15 and 101-103, and at most 3271 over seeds 200-399. A seed that
# needs more draws goes on drawing.
FUZZ_DRAWS = 4000


def _path(k):
    """Edge ideal of the path with k edges on x1..x(k+1)."""
    return [f"x{i}*x{i + 1}" for i in range(1, k + 1)], [f"x{i}" for i in range(1, k + 2)]


def _cycle(k):
    """Edge ideal of the k-cycle on x1..xk."""
    gens, _ = _path(k - 1)
    return gens + [f"x1*x{k}"], [f"x{i}" for i in range(1, k + 1)]


def _complete(k, edges=None):
    """Edge ideal of K_k, optionally cut to its first `edges` edges in lex order."""
    gens = [f"x{a}*x{b}" for a, b in combinations(range(1, k + 1), 2)]
    return gens[:edges], [f"x{i}" for i in range(1, k + 1)]


# A 6-vertex triangulation of the real projective plane; its Stanley-Reisner
# ideal is generated by the ten triangles that are not faces.
_RP2_FACETS = {(1, 2, 4), (1, 2, 6), (1, 3, 5), (1, 3, 6), (1, 4, 5),
               (2, 3, 4), (2, 3, 5), (2, 5, 6), (3, 4, 6), (4, 5, 6)}


def _rp2():
    gens = ["*".join(f"x{i}" for i in t) for t in combinations(range(1, 7), 3)
            if t not in _RP2_FACETS]
    return gens, [f"x{i}" for i in range(1, 7)]


# (label, (generators, variables), prime or None for Q, pinned total Betti numbers)
GRAPH_LARGE = [
    ("P12", _path(12), None, (1, 12, 56, 137, 198, 176, 95, 30, 5)),
    ("C13", _cycle(13), None, (1, 13, 65, 169, 260, 247, 143, 52, 13, 1)),
    ("P14", _path(14), None, (1, 14, 79, 241, 449, 539, 424, 215, 65, 10, 1)),
]
GRAPH_LARGE_TINY = [
    ("P4", _path(4), None, (1, 4, 4, 1)),
    ("C5", _cycle(5), None, (1, 5, 5, 1)),
]
STRAND_ORACLE = [
    ("RP2", _rp2(), None, (1, 10, 15, 6)),
    ("RP2", _rp2(), 2, (1, 10, 15, 7, 1)),
    ("RP2", _rp2(), 3, (1, 10, 15, 6)),
    ("K5", _complete(5), None, (1, 10, 20, 15, 4)),
    ("K6_11", _complete(6, 11), None, (1, 11, 25, 24, 11, 2)),
    ("K6_11", _complete(6, 11), 2, (1, 11, 25, 24, 11, 2)),
]
STRAND_ORACLE_TINY = [
    ("K4", _complete(4), None, (1, 6, 8, 3)),
    ("K4", _complete(4), 2, (1, 6, 8, 3)),
]


@dataclass
class Op:
    """One operation of a job: a fuzz trial or one `analyze` call."""

    label: str
    ideal: object = None  # fuzz: the MonomialIdeal
    argv: list = field(default_factory=list)  # analyze: the CLI arguments
    expected: tuple = ()  # analyze: pinned total Betti numbers
    trial: int = -1  # fuzz: trial index in the seed's stream
    q: int = 0
    n: int = 0


def build(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    """The operations of one job; the same seed always gives the same ops."""
    if workload == "fuzz_campaign":
        if tiny:
            return _fuzz_ops(seed, FUZZ_QUOTA_TINY, 0)
        return _fuzz_ops(seed, FUZZ_QUOTA, FUZZ_DRAWS)
    if workload == "graph_large":
        return _analyze_ops(seed, GRAPH_LARGE_TINY if tiny else GRAPH_LARGE)
    if workload == "strand_oracle":
        return _analyze_ops(seed, STRAND_ORACLE_TINY if tiny else STRAND_ORACLE)
    raise ValueError(f"unknown workload {workload!r}")


def _fuzz_ops(seed: int, quota: dict[int, int], draws: int) -> list[Op]:
    """Trials of the seed's stream, kept in stream order while their q's quota lasts.

    At least `draws` trials are drawn, as many as needed to fill every quota.
    """
    from monodom import verify

    params = verify.FuzzParams(trials=0, seed=seed, **FUZZ_LIMITS)
    left = dict(quota)
    ops = []
    t = 0
    while any(left.values()) or t < draws:
        ideal = verify.random_ideal(params, t)
        if left.get(ideal.q, 0):
            left[ideal.q] -= 1
            ops.append(Op(f"seed {seed}, trial {t}", ideal=ideal, trial=t, q=ideal.q, n=ideal.n))
        t += 1
    return ops


def _analyze_ops(seed: int, table) -> list[Op]:
    """`analyze --json` calls; the seed shuffles generators and factors in the text.

    The ideal, and so the work, is the same for every seed: generators are
    held in canonical order once parsed against the fixed variable list.
    """
    rng = random.Random(seed)
    ops = []
    for label, (gens, variables), prime, expected in table:
        shuffled = []
        for g in gens:
            factors = g.split("*")
            rng.shuffle(factors)
            shuffled.append("*".join(factors))
        rng.shuffle(shuffled)
        argv = ["analyze", "--json", "--ideal", ", ".join(shuffled), "--vars", ",".join(variables)]
        if prime is not None:
            argv += ["--field", "fp", "--prime", str(prime)]
            label = f"{label}/F{prime}"
        else:
            label = f"{label}/Q"
        ops.append(Op(label, argv=argv, expected=tuple(expected), q=len(gens), n=len(variables)))
    return ops


def run_op(op: Op) -> str | None:
    """Run one operation; return None on success, else why it failed."""
    from monodom import cli, verify

    try:
        if op.ideal is not None:
            report = verify.check_report(op.ideal)
            if not report.ok:
                return "failed checks: " + ", ".join(c.name for c in report.failed_checks())
            return None
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
        if code != 0:
            return f"exit code {code}: {err.getvalue().strip()}"
        betti = tuple(json.loads(out.getvalue())["betti"])
        if betti != op.expected:
            return f"betti {betti} differs from pinned {op.expected}"
        return None
    except Exception as exc:  # a crash of the program is a failed operation
        return f"{type(exc).__name__}: {exc}"


def run_job(ops: list[Op], on_op=None) -> dict:
    """One rep: every op in order, with its latency and any failure.

    The host speed is sampled throughout (speed.sampling), and each op's
    latency and the rep's wall time are rescaled to reference speed by
    the probes taken before, during and after them.
    """
    spans = []
    failures = []
    clock = speed.clock
    with speed.sampling(PROBE_EVERY_S):
        start = clock()
        for i, op in enumerate(ops):
            if on_op is not None:
                on_op(i)
            t0 = clock()
            why = run_op(op)
            spans.append((t0, clock()))
            if why is not None:
                failures.append({"op": i, "label": op.label, "why": why})
        end = clock()
    return {"wall": speed.scaled(start, end), "measured_wall": end - start,
            "latencies": [speed.scaled(a, b) for a, b in spans],
            "failures": failures, "probes": len(speed.samples)}
