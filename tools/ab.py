#!/usr/bin/env python3
"""Compare two revisions on one benchmark workload, in alternating pairs.

    python3 tools/ab.py REV_A REV_B --workload fuzz_campaign --pairs 10 --seconds 20

Both revisions are exported with `git archive` into fresh temporary
directories, so neither side runs from a long-used checkout. Pair i runs
`python3 perfbench/run.py --workload W --seed B+i --seconds S` once in
each export, REV_A first on even pairs and REV_B first on odd ones. For
each end-to-end metric it prints each side's median and quartiles, the
change of REV_B's median against REV_A's, and in how many pairs REV_B
read lower. It exits 1 as soon as a run fails or reports a failed
operation. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev: str, dest: Path) -> str:
    """Write the tree of `rev` into `dest`; return its commit hash."""
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", commit], check=True, capture_output=True
    ).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """One benchmark run in `tree`; its metric values, or None if it failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["failed"]:
        sys.stdout.write(proc.stdout)
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("rev_a", metavar="REV_A")
    parser.add_argument("rev_b", metavar="REV_B")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed-base", type=int, default=1)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {"A": Path(tmp, "a"), "B": Path(tmp, "b")}
        commits = {side: export(rev, trees[side])
                   for side, rev in (("A", args.rev_a), ("B", args.rev_b))}
        print(f"A = {args.rev_a} ({commits['A'][:12]}), B = {args.rev_b} ({commits['B'][:12]}), "
              f"workload {args.workload}, {args.pairs} pairs of {args.seconds:g} s, "
              f"seeds {args.seed_base}..{args.seed_base + args.pairs - 1}", flush=True)
        values = {"A": [], "B": []}
        for i in range(args.pairs):
            seed = args.seed_base + i
            for side in ("AB" if i % 2 == 0 else "BA"):
                metrics = run(trees[side], args.workload, seed, args.seconds)
                if metrics is None:
                    print(f"error: run {side} of pair {i} (seed {seed}) failed", file=sys.stderr)
                    return 1
                values[side].append(metrics)
            print(f"pair {i} seed {seed}: wall_s A {values['A'][-1]['wall_s']:.6g} "
                  f"B {values['B'][-1]['wall_s']:.6g}", flush=True)

    n = args.pairs
    print(f"{'metric':<16} {'A median [q1, q3]':>32} {'B median [q1, q3]':>32} "
          f"{'change':>8}  B lower")
    for name in values["A"][0]:
        a = [m[name] for m in values["A"]]
        b = [m[name] for m in values["B"]]
        cells = []
        for side in (a, b):
            q1, q2, q3 = statistics.quantiles(side, n=4) if n > 1 else side * 3
            cells.append(f"{q2:.6g} [{q1:.6g}, {q3:.6g}]")
        change = 100 * (statistics.median(b) / statistics.median(a) - 1)
        lower = sum(y < x for x, y in zip(a, b))
        print(f"{name:<16} {cells[0]:>32} {cells[1]:>32} {change:>+7.1f}%  {lower} of {n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
