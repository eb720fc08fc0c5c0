#!/usr/bin/env python3
"""monodom benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

    python3 perfbench/run.py                          # all workloads, untraced
    python3 perfbench/run.py --workload graph_large --seed 7 --seconds 20 --trace 1

Run from the root of a checkout; monodom is imported from its ``src/``.
Each workload runs in fresh interpreters started from this process, one
at a time: a few that only set up (launch until monodom is imported and
the inputs are built), then one per rep of the workload's job, until
``--seconds`` have passed and there are at least MIN_REPS reps. Every
time is rescaled to a reference host speed (see speed.py). Untraced,
the last line of stdout is a JSON object with every end-to-end metric;
with ``--trace 1`` reps alternate untraced and traced, and it has every
per-layer metric instead. The full result goes to ``perfbench/results/``.
See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from tracer import SPAN_NAMES
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RESULTS = HERE / "results"
SETUP_LAUNCHES = 9  # timed set-up-only launches per run
MIN_REPS = 3  # so a median can ignore one rep slowed by the machine
WORKER_TIMEOUT = 170.0  # seconds; a run must end within 180

END_TO_END = [
    ("wall_s", "s"),
    ("report_ms.p50", "ms"),
    ("report_ms.p99", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def _timed(layer_fn: str) -> list[tuple[str, str]]:
    return [(f"{layer_fn}.self_s", "s"), (f"{layer_fn}.calls", "count")]


PER_LAYER = [
    ("monomials.parse_ideal.self_s", "s"),
    *_timed("monomials.polarize"),
    ("monomials.polarize.per_report", "count/report"),
    *_timed("taylor.build_taylor"),
    ("taylor.build_taylor.per_report", "count/report"),
    ("taylor.symbols", "count"),
    ("taylor.scarf_basis.self_s", "s"),
    *_timed("resolution.minimize"),
    *_timed("resolution.FreeComplex.find_invertible"),
    *_timed("resolution.FreeComplex.cancel"),
    *_timed("resolution.FreeComplex.validate"),
    *_timed("resolution.betti_oracle"),
    *_timed("kernels.subset_lcms"),
    *_timed("kernels.minimal_transversals"),
    *_timed("kernels.dominance_masks"),
    ("kernels.dominance_masks.hit_ratio", "ratio"),
    *_timed("kernels.rank_int"),
    ("kernels.rank_int.cells", "count"),
    *_timed("kernels.rank_modp"),
    ("kernels.rank_modp.cells", "count"),
    *_timed("nets.minimal_nets"),
    ("nets.minimal_nets.per_report", "count/report"),
    ("nets.minimal_nets.family_size", "count"),
    ("nets.odom_by_nets.self_s", "s"),
    *_timed("dominance.odom_by_dominance"),
    ("dominance.is_taylor_minimal.self_s", "s"),
    *_timed("verify.check_report"),
    ("verify.random_ideal.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.emit_json.self_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
]


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def worker_env() -> dict:
    """The caller's environment without PYTHON* settings, with a fixed hash seed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    return env


def launch(cmd: list[str]):
    """Start a worker; return it with its launch-to-ready time in seconds."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line != "ready\n":
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker did not get ready (exit code {proc.returncode})")
    return proc, ready


def finish(proc, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker still running after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    """The smallest value with at least pct% of the sample at or below it."""
    k = -(-len(sorted_values) * pct // 100)
    return sorted_values[max(k, 1) - 1]


def summarise(runs: list[dict], setup: list[float], trace: bool) -> dict:
    """Metrics, counts and the slowest operations from the workers' outputs."""
    reps = [r["rep"] for r in runs]
    plain = [rep for rep in reps if "layers" not in rep]
    ops = runs[0]["ops"]
    per_op = sorted(
        (statistics.median(r["latencies"][i] for r in plain), i) for i in range(len(ops))
    )
    latencies = [t for t, _ in per_op]
    walls = [r["wall"] for r in plain]
    wall = statistics.median(walls)
    measured = statistics.median(r["measured_wall"] for r in plain)
    values = {
        "wall_s": wall,
        "report_ms.p50": 1000 * nearest_rank(latencies, 50),
        "report_ms.p99": 1000 * nearest_rank(latencies, 99),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(r["peak_rss_kb"] for r in runs) / 1024,
    }
    units = dict(END_TO_END)
    if trace:
        values.update(layer_values(runs, wall))
        units = dict(PER_LAYER)
    failures = [f for rep in reps for f in rep["failures"]]
    return {
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "attempted": len(ops) * len(reps),
        "failed": len(failures),
        "failures": failures[:20],
        "reps": {"untraced": len(plain), "traced": len(reps) - len(plain)},
        "measured_wall_s": measured,
        "rep_walls": [{"traced": "layers" in rep, "wall_s": rep["wall"],
                       "measured_wall_s": rep["measured_wall"]} for rep in reps],
        "wall_s_quartiles": statistics.quantiles(walls, n=4),
        "samples": {"wall_s": len(plain), "report_ms": len(ops), "setup_s": len(setup),
                    "speed_probes": sum(rep["probes"] for rep in reps)},
        "slowest": [dict(ops[i], ms=1000 * t) for t, i in reversed(per_op[-5:])],
    }


def layer_values(runs: list[dict], untraced_wall: float) -> dict:
    traced = [r["rep"] for r in runs if "layers" in r["rep"]]
    for rep in traced:  # self times to reference speed, by the rep's own factor
        factor = rep["wall"] / rep["measured_wall"]
        for k in rep["layers"]:
            if k.endswith(".self_s"):
                rep["layers"][k] *= factor
    keys = traced[0]["layers"].keys()
    out = {k: statistics.median(rep["layers"][k] for rep in traced) for k in keys}
    reports = out["verify.check_report.calls"]
    for name in ("monomials.polarize", "taylor.build_taylor", "nets.minimal_nets"):
        out[f"{name}.per_report"] = out[f"{name}.calls"] / reports
    out["kernels.dominance_masks.hit_ratio"] = (
        out.pop("kernels.dominance_masks.hits") / out["kernels.dominance_masks.calls"]
    )
    out["verify.random_ideal.self_s"] = statistics.median(
        r["setup_layers"]["verify.random_ideal.self_s"] * r["rep"]["wall"]
        / r["rep"]["measured_wall"] for r in runs if "setup_layers" in r)
    out["trace.overhead"] = statistics.median(rep["wall"] for rep in traced) / untraced_wall - 1
    out["trace.coverage"] = statistics.median(rep["span_s"] / rep["measured_wall"]
                                              for rep in traced)
    return out


def git_revision() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    started = time.perf_counter()
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed)]
    if tiny:
        cmd.append("--tiny")
    setup = []
    for n in range(SETUP_LAUNCHES + 1):
        proc, ready = launch(cmd + ["--setup-only"])
        probe_s = float(finish(proc, WORKER_TIMEOUT))
        if n:  # the first launch may still be compiling bytecode
            setup.append(ready * speed.scale(probe_s))
    runs = []
    deadline = started + seconds
    while len(runs) < MIN_REPS or time.perf_counter() < deadline:
        traced = trace and len(runs) % 2 == 1
        proc, _ = launch(cmd + ["--trace", str(int(traced))])
        out = finish(proc, WORKER_TIMEOUT - (time.perf_counter() - started))
        runs.append(json.loads(out.strip().splitlines()[-1]))
    summary = summarise(runs, setup, trace)
    tag = f"{workload}-seed{seed}-trace{int(trace)}" + ("-tiny" if tiny else "")
    RESULTS.mkdir(exist_ok=True)
    spans = RESULTS / f"{tag}-spans.json"
    if trace:
        spans.write_text(json.dumps({
            "names": SPAN_NAMES,
            "columns": ["name", "start", "end", "parent", "rep", "op"],
            "reps": [r["spans"] for r in runs if "spans" in r],
        }, separators=(",", ":")))
    summary.update(
        workload=workload, seed=seed, seconds=seconds, trace=trace, tiny=tiny,
        backend=runs[0]["backend"], python=runs[0]["python"], revision=git_revision(),
        nproc=len(os.sched_getaffinity(0)),
        spans_file=str(spans.relative_to(ROOT)) if trace else None,
    )
    (RESULTS / f"{tag}.json").write_text(json.dumps(summary, indent=2) + "\n")
    return summary


def report(s: dict) -> None:
    """Human-readable lines, printed before the JSON result line."""
    print(f"== {s['workload']}  seed {s['seed']}  backend {s['backend']}  "
          f"python {s['python']}  nproc {s['nproc']}  revision {s['revision'][:12]}  "
          f"reps {s['reps']['untraced']} untraced / {s['reps']['traced']} traced")
    for name, m in s["metrics"].items():
        print(f"   {name:<48} {m['value']:>14.6g} {m['unit']}")
    print(f"   {'failed_frac':<48} {s['failed'] / s['attempted']:>14.6g} "
          f"({s['failed']} of {s['attempted']} operations)")
    print(f"   measured wall_s (before rescaling to reference speed): {s['measured_wall_s']:.6g} s")
    print(f"   samples: {s['samples']}")
    for f in s["failures"]:
        print(f"   FAILED op {f['op']} {f['label']}: {f['why']}")
    if s["workload"] == "fuzz_campaign":
        print("   slowest ideals (reproduce: see perfbench/README.md):")
        for op in s["slowest"]:
            print(f"     {op['label']}  q={op['q']} n={op['n']}  {op['ms']:.1f} ms")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "monodom" / "__init__.py").is_file():
        print(f"error: no monodom source tree under {ROOT}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        summaries = [run_workload(w, args.seed, args.seconds, bool(args.trace), args.tiny)
                     for w in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for s in summaries:
        report(s)
    prefix = len(summaries) > 1
    print(json.dumps({
        "correct": all(s["failed"] == 0 for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": {(f"{s['workload']}.{k}" if prefix else k): v
                    for s in summaries for k, v in s["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
