"""Span tracer for the benchmark's traced runs.

Wraps the public functions the benchmark reports on, in every
``rainbowfree.*`` namespace that binds them (``from .core import restrict``
makes one binding per importing module), and records one span per call:
name, start, end, parent span and the answer being worked on.  Spans stay in
memory until the run ends; self time is computed from them afterwards as a
span's duration minus the durations of its direct children and the
host-speed probes that interrupted it, in reference seconds (speed.py).

Per-edge accessors (``pair_color``, ``color``, ``iter_bits``) are left
unwrapped on purpose: a registry pass makes about 20M such calls, and their
time belongs in the caller's self time.  Private helpers such as
``connectivity._find_cut_below_k`` are not wrapped either, so their time
lands in whichever traced caller reached them (for example ``gallai`` or
``bipartite``).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

# module -> public functions wrapped, each reported as
# <module>.<function>.calls and <module>.<function>.self_s
LAYERS = {
    "core": ["restrict", "SimpleGraph"],
    "patterns": ["parse_pattern"],
    "rainbow": ["find_rainbow", "enumerate_rainbow", "find_rainbow_triangle"],
    "connectivity": [
        "is_k_connected",
        "vertex_connectivity",
        "largest_k_connected",
        "best_monochromatic",
        "best_two_colored",
        "mader_extract",
        "verify_order_cap",
        "gyarfas_floor",
    ],
    "gallai": [
        "is_gallai",
        "gallai_partition",
        "sample_gallai",
        "verify_two_color_2connected",
        "verify_two_color_3connected",
    ],
    "bipartite": ["classify_k13_free", "gen_type_b", "verify_background_spanning_kconn"],
    "paths": ["longest_mono_path", "longest_mono_cycle", "check_mono_path_quota", "kano_li_floor"],
    "oracles": [
        "oracle_rainbow_exists",
        "oracle_vertex_connectivity",
        "oracle_largest_k_connected",
        "oracle_longest_path_order",
    ],
    "claims": ["run_claims"],
    "crosscheck": ["micro_crosscheck"],
}

# wrapped like the others but reported only as one module total
TOTAL_ONLY = {
    "constructions": [
        "gen_R1",
        "gen_R2",
        "gen_F1",
        "gen_F2",
        "gen_F3",
        "gen_intro_example",
        "gen_counterexample_4t",
        "eg_realizable",
        "realize_degree_sequence",
    ],
}

# counters recorded at the same boundaries as the spans
COUNTERS = [
    "rainbow.find_rainbow.found",
    "connectivity.verify_order_cap.subsets_checked",
    "claims.attempted",
    "claims.passed",
    "crosscheck.colorings",
    "crosscheck.comparisons",
]


def _count_found(counts, result):
    counts["rainbow.find_rainbow.found"] += result is not None


def _count_subsets(counts, result):
    counts["connectivity.verify_order_cap.subsets_checked"] += result.subsets_checked


def _count_claims(counts, reports):
    counts["claims.attempted"] += len(reports)
    counts["claims.passed"] += sum(r.status == "pass" for r in reports)


def _count_crosscheck(counts, report):
    counts["crosscheck.colorings"] += report.colorings
    counts["crosscheck.comparisons"] += report.comparisons


_RESULT_HOOKS = {
    "rainbow.find_rainbow": _count_found,
    "connectivity.verify_order_cap": _count_subsets,
    "claims.run_claims": _count_claims,
    "crosscheck.micro_crosscheck": _count_crosscheck,
}


class Tracer:
    """Records spans for the wrapped functions of one process."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.answer = -1  # id of the answer being worked on, set by the caller
        self._stack = [-1]
        self.reset()

    def reset(self) -> None:
        """Forget every span and counter recorded so far."""
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_answer = array("i")
        # host-speed probe time that fell directly inside each span
        self.span_probe = array("d")
        self.calls = [0] * len(self.names)
        self.counts = dict.fromkeys(COUNTERS, 0)

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
        return self.name_ids[name]

    def _open(self, name_id: int) -> int:
        span = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1])
        self.span_answer.append(self.answer)
        self.span_end.append(0.0)
        self.span_probe.append(0.0)
        self._stack.append(span)
        self.span_start.append(time.perf_counter())
        return span

    def _close(self, span: int) -> None:
        self.span_end[span] = time.perf_counter()
        self._stack.pop()

    def add_probe(self, seconds: float) -> None:
        """Charge a host-speed probe to the innermost open span, so that
        self time leaves it out."""
        span = self._stack[-1]
        if span >= 0:
            self.span_probe[span] += seconds

    def _wrap_function(self, name: str, fn):
        name_id = self._name_id(name)
        hook = _RESULT_HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[name_id] += 1
            span = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if hook is not None:
                hook(tracer.counts, result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        """One call, one span per resumption of the returned generator."""
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[name_id] += 1
            inner = fn(*args, **kwargs)
            while True:
                span = tracer._open(name_id)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer._close(span)
                yield item

        return traced

    def install(self) -> None:
        """Wrap every listed function in every loaded rainbowfree module."""
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == "rainbowfree" or key.startswith("rainbowfree."))
        ]
        for layer, functions in {**LAYERS, **TOTAL_ONLY}.items():
            home = sys.modules[f"rainbowfree.{layer}"]
            for fname in functions:
                name = f"{layer}.{fname}"
                original = getattr(home, fname)
                if inspect.isclass(original):
                    # the class object is shared, so patching its constructor
                    # covers every binding at once
                    original.__init__ = self._wrap_function(name, original.__init__)
                    continue
                if inspect.isgeneratorfunction(original):
                    wrapped = self._wrap_generator(name, original)
                else:
                    wrapped = self._wrap_function(name, original)
                for mod in modules:
                    if getattr(mod, fname, None) is original:
                        setattr(mod, fname, wrapped)

    def self_times(self, speed) -> dict[str, float]:
        """Self time per wrapped name, in reference seconds (speed.py):
        duration minus direct children and probes, scaled by the host's
        speed over the span."""
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        name = np.frombuffer(self.span_name, dtype=np.int32)
        probes = np.frombuffer(self.span_probe, dtype=np.float64)
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = (dur - child - probes) * speed.mean_factor(start, end)
        total = np.bincount(name, weights=own, minlength=len(self.names))
        return {n: float(total[i]) for i, n in enumerate(self.names)}

    def metrics(self, speed) -> dict[str, float]:
        """Per-layer metrics: calls and self time per function and module."""
        own = self.self_times(speed)
        calls = dict(zip(self.names, self.calls))
        out: dict[str, float] = {}
        for layer, functions in LAYERS.items():
            total = 0.0
            for fname in functions:
                name = f"{layer}.{fname}"
                out[f"{name}.calls"] = calls.get(name, 0)
                out[f"{name}.self_s"] = own.get(name, 0.0)
                total += own.get(name, 0.0)
            out[f"{layer}.self_s"] = total
        for layer, functions in TOTAL_ONLY.items():
            names = [f"{layer}.{f}" for f in functions]
            out[f"{layer}.calls"] = sum(calls.get(n, 0) for n in names)
            out[f"{layer}.self_s"] = sum(own.get(n, 0.0) for n in names)
        finds = calls.get("rainbow.find_rainbow", 0)
        found = self.counts.pop("rainbow.find_rainbow.found")
        out["rainbow.find_rainbow.found_frac"] = found / finds if finds else 0.0
        out.update(self.counts)
        return out

    def save(self, path) -> None:
        """Write every span to a compressed ``.npz`` file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            answer=np.frombuffer(self.span_answer, dtype=np.int32),
            probe=np.frombuffer(self.span_probe, dtype=np.float64),
        )
