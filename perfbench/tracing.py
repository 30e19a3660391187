"""Spans and counters recorded around the benchmark's own calls into pcc.

The library itself is not instrumented: every span wraps one call that a
workload instance makes into a public function of a pcc module, and every
counter is derived from a returned value or from a replay made after the
instance's timed call.  `NullTracer` is what the untraced, measured passes
use; it adds one Python call per library call and records nothing.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable


class NullTracer:
    enabled = False

    def call(self, layer: str, op: str, fn: Callable, *args, **kwargs):
        return fn(*args, **kwargs)

    def add(self, key: str, amount: float = 1) -> None:
        pass


class Tracer(NullTracer):
    """Keeps spans in memory as (layer, op, start, end) tuples, plus
    counters by name.  Every span is a call the benchmark itself makes,
    so none encloses another."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[tuple[str, str, float, float]] = []
        self.counters: dict[str, float] = {}

    def call(self, layer: str, op: str, fn: Callable, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((layer, op, start, time.perf_counter()))

    def add(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def timed(self, key: str, fn: Callable, *args, **kwargs):
        """Run a replay outside any span and add its time in ms to key."""
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.add(key, (time.perf_counter() - start) * 1000.0)
        return result

    def timed_ms(self, fn: Callable, *args, **kwargs) -> float:
        start = time.perf_counter()
        fn(*args, **kwargs)
        return (time.perf_counter() - start) * 1000.0

    def peak(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    def last_ms(self) -> float:
        _, _, start, end = self.spans[-1]
        return (end - start) * 1000.0

    def snapshot(self) -> dict[str, float]:
        """Flat totals: <layer>.busy_ms, <layer>.calls, <layer>.<op>_ms
        for every span, plus every counter."""
        out: dict[str, float] = dict(self.counters)
        for layer, op, start, end in self.spans:
            ms = (end - start) * 1000.0
            for key, amount in (
                (f"{layer}.busy_ms", ms),
                (f"{layer}.calls", 1),
                (f"{layer}.{op}_ms", ms),
            ):
                out[key] = out.get(key, 0) + amount
        return out


def median_snapshot(snapshots: list[dict[str, float]]) -> dict[str, float]:
    keys = set().union(*snapshots)
    return {k: statistics.median(s.get(k, 0) for s in snapshots) for k in keys}


# Per-layer metrics of BENCHMARK.json: name -> unit.
LAYER_UNITS = {
    "verify.busy_ms": "ms",
    "verify.calls": "count",
    "verify.pairs": "count",
    "verify.us_per_pair": "us",
    "verify.slowest_pair_ms": "ms",
    "verify.witness_vertices": "count",
    "verify.refutations": "count",
    "verify.timeouts": "count",
    "exact.busy_ms": "ms",
    "exact.enumerate_ms": "ms",
    "exact.verify_ms": "ms",
    "exact.colorings_examined": "count",
    "exact.us_per_coloring": "us",
    "exact.levels_exhausted": "count",
    "exact.inconclusive": "count",
    "structure.busy_ms": "ms",
    "structure.hamiltonian_path_ms": "ms",
    "structure.reduce_ms": "ms",
    "structure.ears_ms": "ms",
    "structure.max_subtree_ms": "ms",
    "structure.calls": "count",
    "construct.busy_ms": "ms",
    "construct.self_ms": "ms",
    "construct.verify_share": "ratio",
    "construct.calls": "count",
    "graphs.build_ms": "ms",
    "graphs.calls": "count",
    "io.busy_ms": "ms",
    "io.bytes": "bytes",
    "cli.busy_ms": "ms",
    "cli.generate_ms": "ms",
    "cli.color_ms": "ms",
    "cli.verify_ms": "ms",
    "cli.exact_ms": "ms",
    "cli.table_ms": "ms",
    "cli.reverify_ms": "ms",
    "cli.self_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

# How each metric that is not a plain span total is obtained: by a replay
# made after an instance returned, outside its timed call, or by
# subtracting a replayed time from a measured one.
DERIVED = {
    "verify.slowest_pair_ms":
        "replay of find_distance_proper_path on every pair of decided k=1 instances",
    "exact.enumerate_ms":
        "replay: drain canonical_colorings(m, t) for the levels and counts visited",
    "exact.verify_ms": "subtraction: exact.busy_ms - exact.enumerate_ms",
    "structure.reduce_ms":
        "replay of minimally_2connected_spanning on the set-up's color_2connected inputs",
    "structure.ears_ms": "replay of ear_decomposition on the reduced graphs",
    "structure.max_subtree_ms":
        "replay of max_subtree_size_with_diameter on the set-up's color_tree inputs",
    "construct.self_ms": "subtraction: construct.busy_ms - replayed verify and structure time",
    "construct.verify_share": "replayed verify_coloring time / construct.busy_ms",
    "io.busy_ms": "replay of pcc.io read/write on the files each CLI run read or wrote",
    "cli.reverify_ms": "replay of verify_coloring on the coloring each `pcc color` run returned",
    "cli.self_ms": "replay of build_parser().parse_args(argv) for each CLI run",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    passes: dict[str, float],
    once: dict[str, float],
    overhead_ratio: float,
) -> dict[str, float]:
    """The per-layer metrics of one traced set-up plus one traced pass:
    `passes` is the median traced pass, `once` what is measured once per
    run (the traced set-up's spans and counters and the replays)."""
    v = lambda key: passes.get(key, 0) + once.get(key, 0)
    exact_busy = v("exact.busy_ms")
    colorings = v("exact.colorings_examined")
    ham = v("structure.hamiltonian_path_ms")
    reduce_ms = v("structure.reduce_ms")
    ears_ms = v("structure.ears_ms")
    subtree_ms = v("structure.max_subtree_ms")
    construct_busy = v("construct.busy_ms")
    construct_verify = v("construct.verify_ms")
    out = {
        "verify.busy_ms": v("verify.busy_ms") + construct_verify + v("cli.reverify_ms"),
        "verify.calls": v("verify.calls") + v("verify.replay_calls"),
        "verify.pairs": v("verify.pairs"),
        "verify.us_per_pair": _ratio(v("verify.decided_ms") * 1000.0, v("verify.pairs")),
        "verify.slowest_pair_ms": v("verify.slowest_pair_ms"),
        "verify.witness_vertices": v("verify.witness_vertices"),
        "verify.refutations": v("verify.refutations"),
        "verify.timeouts": v("verify.timeouts"),
        "exact.busy_ms": exact_busy,
        "exact.enumerate_ms": v("exact.enumerate_ms"),
        "exact.verify_ms": exact_busy - v("exact.enumerate_ms"),
        "exact.colorings_examined": colorings,
        "exact.us_per_coloring": _ratio(exact_busy * 1000.0, colorings),
        "exact.levels_exhausted": v("exact.levels_exhausted"),
        "exact.inconclusive": v("exact.inconclusive"),
        "structure.busy_ms": ham + reduce_ms + ears_ms + subtree_ms,
        "structure.hamiltonian_path_ms": ham,
        "structure.reduce_ms": reduce_ms,
        "structure.ears_ms": ears_ms,
        "structure.max_subtree_ms": subtree_ms,
        "structure.calls": v("structure.calls") + v("structure.replay_calls"),
        "construct.busy_ms": construct_busy,
        "construct.self_ms": construct_busy - construct_verify - reduce_ms - ears_ms - subtree_ms,
        "construct.verify_share": _ratio(construct_verify, construct_busy),
        "construct.calls": v("construct.calls"),
        "graphs.build_ms": v("graphs.busy_ms"),
        "graphs.calls": v("graphs.calls"),
        "io.busy_ms": v("io.busy_ms"),
        "io.bytes": v("io.bytes"),
        "cli.busy_ms": v("cli.busy_ms"),
        "cli.generate_ms": v("cli.generate_ms"),
        "cli.color_ms": v("cli.color_ms"),
        "cli.verify_ms": v("cli.verify_ms"),
        "cli.exact_ms": v("cli.exact_ms"),
        "cli.table_ms": v("cli.table_ms"),
        "cli.reverify_ms": v("cli.reverify_ms"),
        "cli.self_ms": v("cli.self_ms"),
        "trace.overhead_ratio": overhead_ratio,
    }
    return {name: out[name] for name in LAYER_UNITS}
