"""Smoke test of the benchmark on tiny inputs.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is printed with its
unit, that a wrong pinned Betti table counts as a failed operation, that
tracing restores every binding it replaced, that timings are rescaled by
the host speed probes around them, and that the benchmark refuses to run
without the monodom source tree.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402

worker.import_monodom()

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


def test_spec_matches_runner():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_reported_with_its_unit(workload, trace):
    done = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
                  "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in _spec()["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == wanted
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert "failed_frac" in done.stdout


def test_wrong_pinned_table_is_a_failure():
    ops = workloads.build("strand_oracle", 3, tiny=True)
    ops[0].expected = (1, 6, 8, 4)
    labels = [{"label": op.label} for op in ops]
    runs = [{"rep": workloads.run_job(ops), "ops": labels, "peak_rss_kb": 1024} for _ in range(2)]
    summary = run.summarise(runs, [0.1], trace=False)
    assert summary["failed"] / summary["attempted"] > 0
    assert "differs from pinned" in summary["failures"][0]["why"]


def test_rescaling_integrates_the_probes():
    saved = list(speed.samples)
    # the host runs at reference speed at t = 0 and three times slower at t = 1
    speed.samples[:] = [(0.0, speed.REF_S), (1.0, 3 * speed.REF_S)]
    try:
        assert speed.scaled(0.0, 1.0) == pytest.approx(0.5)
        assert speed.scaled(0.5, 1.5) == pytest.approx(0.25 + 0.5 / 3)
        assert speed.scaled(1.0, 4.0) == pytest.approx(1.0)
    finally:
        speed.samples[:] = saved


def test_tracing_restores_every_binding():
    import monodom.cli
    import monodom.resolution

    before = (monodom.cli.check_report, monodom.resolution.FreeComplex.cancel)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert monodom.cli.check_report is not before[0]
        assert monodom.resolution.FreeComplex.cancel is not before[1]
        assert monodom.cli.main(["betti", "--ideal", "a*b, b*c"]) == 0
    finally:
        tracer.uninstall()
    assert (monodom.cli.check_report, monodom.resolution.FreeComplex.cancel) == before
    assert tracer.totals()["kernels.subset_lcms.calls"] == 1


def test_refuses_to_run_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = _bench(tmp_path, "--workload", "graph_large", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
