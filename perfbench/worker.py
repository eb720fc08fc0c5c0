"""Run one rep of one workload in a fresh interpreter and print its measurements.

Started by run.py, never by hand. It prints ``ready`` once monodom is
imported from the checkout's ``src/`` and the inputs are built; run.py
times launch-to-ready as set-up. With ``--setup-only`` it then probes the
host speed (speed.py) twice, prints the mean probe time, and exits.
Otherwise it runs the workload's job once (one rep) and prints one JSON
line: the rep's wall time, per-op latencies and failures, and peak RSS;
with ``--trace 1`` also the per-layer totals and the spans of the rep.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_monodom():
    """monodom from this checkout's source tree, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import monodom

    if Path(monodom.__file__).resolve().parent != src / "monodom":
        raise ImportError(f"monodom was imported from {monodom.__file__}, not from {src}")
    return monodom


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    monodom = import_monodom()
    import tracer as tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()  # random_ideal runs here, in set-up
    try:
        ops = workloads.build(args.workload, args.seed, args.tiny)
    finally:
        if tracer:
            tracer.uninstall()
    print("ready", flush=True)
    if args.setup_only:
        import speed

        print((speed.probe() + speed.probe()) / 2)
        return 0

    out = {
        "backend": monodom.kernel_backend,
        "python": sys.version.split()[0],
        "ops": [{"label": op.label, "trial": op.trial, "q": op.q, "n": op.n} for op in ops],
    }
    gc.collect()
    if tracer:
        out["setup_layers"] = tracer.totals()
        tracer.reset_totals()
        tracer.rep = 0
        tracer.install()
        try:
            rep = workloads.run_job(ops, on_op=lambda i: setattr(tracer, "op", i))
        finally:
            tracer.uninstall()
        rep["layers"] = tracer.totals()
        rep["span_s"] = tracer.root_time(0)
        out["spans"] = tracer.spans
    else:
        rep = workloads.run_job(ops)
    out["rep"] = rep
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
