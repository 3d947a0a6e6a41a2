"""Spans around the layer functions, installed from outside the program.

`install` replaces each listed module-level function, in every specpoint
module that binds it, with a wrapper that records a span (name, start,
end, parent) and the counts its return value exposes. Self time is a
span's duration minus the time its child spans cover; the wrappers nest
strictly because the program is single-threaded.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

import numpy as np

MODULES = (
    "arith",
    "specfun",
    "quadrature",
    "besselkernel",
    "besselintegral",
    "kuznetsov",
    "sievebench",
)


def _size(args, out):
    return np.size(out)


def _unconverged(args, out):
    return int(not out.converged)


# (module, function, {count: its value from the call's arguments and result})
LAYERS = (
    ("besselkernel", "kernel_b_series_many", {"points": _size}),
    ("specfun", "log_gamma", {"points": _size}),
    ("besselkernel", "kernel_b_block", {"points": lambda args, out: out[0].size}),
    (
        "quadrature",
        "adaptive_quadrature",
        {"evaluations": lambda args, out: out.evaluations, "unconverged": _unconverged},
    ),
    ("besselintegral", "bessel_H_direct", {"unconverged": _unconverged}),
    ("besselintegral", "I_integral", {}),
    ("kuznetsov", "_h_value", {}),
    # the complex c x c residue-pair table built per modulus c = args[1]
    ("kuznetsov", "_kloosterman_block", {"table_bytes": lambda args, out: 16 * args[1] ** 2}),
    ("arith", "kloosterman", {}),
    ("arith", "_unit_residues", {}),
    ("specfun", "zeta_many", {"points": _size}),
    ("sievebench", "_t_grid", {"nodes": lambda args, out: out[0].size}),
    ("sievebench", "_hybrid_lhs_one_modulus", {}),
    ("sievebench", "young_ls_ratio", {}),
    ("kuznetsov", "p_bound_rhs", {}),
    ("kuznetsov", "kloosterman_side", {"tail_bar": lambda args, out: out.tail_estimate}),
    ("kuznetsov", "eisenstein_side", {}),
    ("kuznetsov", "diagonal_term", {}),
    (
        "kuznetsov",
        "decomposition",
        {
            "skip_bar": lambda args, out: out.skip_bar,
            "c_eval": lambda args, out: out.params["c_eval"],
        },
    ),
)

# counts that describe a size or a bar are reported as their largest value,
# the rest are summed over calls
MAX_COUNTS = {"table_bytes", "tail_bar", "skip_bar", "c_eval"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    self_s: float


class Tracer:
    """Spans in memory plus per-function counts, for one process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, dict[str, float]] = {}
        self._stack: list[list] = []  # [span index, time covered by children]
        self.originals: dict[str, object] = {}

    def wrap(self, name: str, fn, counts: dict):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            frame = [len(self.spans), 0.0]
            self.spans.append(None)
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                self.spans[frame[0]] = Span(name, start, end, parent, end - start - frame[1])
            acc = self.counts.setdefault(name, {})
            for key, count in counts.items():
                value = count(args, out)
                if key in MAX_COUNTS:
                    acc[key] = max(acc.get(key, value), value)
                else:
                    acc[key] = acc.get(key, 0) + value
            return out

        return wrapper

    def layer_metrics(self) -> dict[str, float]:
        """calls, self_s and counts per function, self_s per module, and
        the hit ratio of the residue cache over the process so far."""
        out: dict[str, float] = {}
        for module, func, counts in LAYERS:
            name = f"{module}.{func}"
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
            for key in counts:
                out[f"{name}.{key}"] = 0
        for module in MODULES:
            out[f"{module}.self_s"] = 0.0
        for span in self.spans:
            out[f"{span.name}.calls"] += 1
            out[f"{span.name}.self_s"] += span.self_s
            out[f"{span.name.split('.')[0]}.self_s"] += span.self_s
        for name, counts in self.counts.items():
            for key, value in counts.items():
                out[f"{name}.{key}"] = value
        info = self.originals["arith._unit_residues"].cache_info()
        lookups = info.hits + info.misses
        out["arith._unit_residues.hit_ratio"] = info.hits / lookups if lookups else 0.0
        out["trace.self_sum_s"] = sum(span.self_s for span in self.spans)
        out["trace.spans"] = len(self.spans)
        return out


def install(tracer: Tracer) -> None:
    """Wrap every listed function in every loaded specpoint module that
    binds it. Call after importing the modules."""
    modules = [m for key, m in sys.modules.items() if key.startswith("specpoint.")]
    for module, func, counts in LAYERS:
        name = f"{module}.{func}"
        original = tracer.originals[name] = getattr(sys.modules[f"specpoint.{module}"], func)
        wrapper = tracer.wrap(name, original, counts)
        for mod in modules:
            if getattr(mod, func, None) is original:
                setattr(mod, func, wrapper)
