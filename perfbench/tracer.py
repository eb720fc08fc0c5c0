"""Outside-in tracing: time calls into monodom's public functions by wrapping them.

Nothing under ``src/`` changes. ``verify``, ``cli``, ``nets``,
``resolution`` and ``taylor`` import library functions by name, so a
wrapper replaces every binding of the function in every loaded
``monodom`` module namespace, not only the defining one. ``FreeComplex``
methods are wrapped on the class. ``uninstall`` restores every binding.

Each call records a span (name, start, end, parent span, rep, operation
index) in memory; run.py writes them out when the run ends. Self time is
a span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys

import speed

# (layer, module, attribute path) of each wrapped function
TARGETS = [
    ("monomials", "monodom.monomials", "parse_ideal"),
    ("monomials", "monodom.monomials", "polarize"),
    ("taylor", "monodom.taylor", "build_taylor"),
    ("taylor", "monodom.taylor", "scarf_basis"),
    ("resolution", "monodom.resolution", "minimize"),
    ("resolution", "monodom.resolution", "FreeComplex.find_invertible"),
    ("resolution", "monodom.resolution", "FreeComplex.cancel"),
    ("resolution", "monodom.resolution", "FreeComplex.validate"),
    ("resolution", "monodom.resolution", "betti_oracle"),
    ("kernels", "monodom._kernels", "subset_lcms"),
    ("kernels", "monodom._kernels", "minimal_transversals"),
    ("kernels", "monodom._kernels", "dominance_masks"),
    ("kernels", "monodom._kernels", "rank_int"),
    ("kernels", "monodom._kernels", "rank_modp"),
    ("nets", "monodom.nets", "minimal_nets"),
    ("nets", "monodom.nets", "odom_by_nets"),
    ("dominance", "monodom.dominance", "odom_by_dominance"),
    ("dominance", "monodom.dominance", "is_taylor_minimal"),
    ("verify", "monodom.verify", "check_report"),
    ("verify", "monodom.verify", "random_ideal"),
    ("cli", "monodom.cli", "main"),
    ("cli", "monodom.cli", "emit_json"),
]


def _cells(args, result):
    rows = args[0]
    return len(rows) * (len(rows[0]) if rows else 0)


# span name -> (counter name, amount per successful call)
COUNTERS = {
    "taylor.build_taylor": ("taylor.symbols", lambda args, result: 1 << args[0].q),
    "kernels.dominance_masks": ("kernels.dominance_masks.hits",
                                lambda args, result: result is not None),
    "kernels.rank_int": ("kernels.rank_int.cells", _cells),
    "kernels.rank_modp": ("kernels.rank_modp.cells", _cells),
    "nets.minimal_nets": ("nets.minimal_nets.family_size", lambda args, result: len(result)),
}

SPAN_NAMES = [f"{layer}.{path}" for layer, _, path in TARGETS]


class Tracer:
    """Wraps every target while installed; keeps spans and per-name totals."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name index, start, end, parent span, rep, op)
        self.rep = -1  # -1 while building inputs
        self.op = -1
        self._stack: list[list] = []  # [span index, child time] of open spans
        self._installed: list[tuple] = []  # (namespace, attribute, original)
        self.reset_totals()

    def reset_totals(self):
        self.calls = [0] * len(SPAN_NAMES)
        self.self_s = [0.0] * len(SPAN_NAMES)
        self.counters = {name: 0 for name, _ in COUNTERS.values()}

    def totals(self) -> dict:
        out = dict(self.counters)
        for i, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_s"] = self.self_s[i]
        return out

    def root_time(self, rep: int) -> float:
        """Summed duration of the outermost spans of one rep."""
        return sum(s[2] - s[1] for s in self.spans if s[3] == -1 and s[4] == rep)

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "monodom" or name.startswith("monodom."))]
        for idx, (layer, modname, path) in enumerate(TARGETS):
            owner = importlib.import_module(modname)
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._bind(cls, meth, self._wrap(idx, orig))
                continue
            orig = getattr(owner, path)
            wrapper = self._wrap(idx, orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._bind(mod, attr, wrapper)

    def uninstall(self):
        for namespace, attr, orig in reversed(self._installed):
            setattr(namespace, attr, orig)
        self._installed.clear()

    def _bind(self, namespace, attr, wrapper):
        self._installed.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, wrapper)

    def _wrap(self, idx: int, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(SPAN_NAMES[idx])
        clock = speed.clock  # leaves out the host speed probes
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                spans[frame[0]] = (idx, t0, t1, parent, tracer.rep, tracer.op)
                # totals are re-bound by reset_totals, so index through the tracer
                tracer.calls[idx] += 1
                tracer.self_s[idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if counter is not None:
                tracer.counters[counter[0]] += counter[1](args, result)
            return result

        return wrapper
