"""Run one workload of the pcc benchmark and print its metrics.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 32 --trace 0

Run from the root of a source checkout; pcc is imported from ./src.  One
process, one caller, closed loop: each instance (one public call or one
in-process CLI run) starts only after the previous one returned, and the
instance list is run pass after pass until --seconds have gone by.

Every timed call (an instance, a set-up) is bracketed by runs of a fixed
reference kernel, and the end-to-end times are reported at the reference
speed (see speed.py), which cancels the drift of a shared host's speed.
The times as measured are printed beside them as `measured` lines.

--trace 0 prints the end-to-end metrics, measured with tracing off.
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of the traced ones (see tracing.py; times as measured), with the
ratio of traced to untraced pass time as trace.overhead_ratio.

Every verdict is checked against its known answer outside the timed
region.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give each
metric with its unit, how the tail percentile was taken, and provenance.
The exit code is 1 when any verdict was wrong and 2 when there is no pcc
source to run.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Set-up (import, input generation, CLI input files) is repeated at least
# SETUP_MIN times, and on until SETUP_BUDGET_S seconds or SETUP_MAX
# set-ups; setup_s is the median.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 15, 1.5
# The tail is the slowest time that still has this many samples beyond it.
TAIL_BEYOND = 10

E2E_UNITS = {
    "wall_s": "s",
    "verdict_p50_ms": "ms",
    "verdict_tail_ms": "ms",
    "decided_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def fresh_pcc():
    """Import pcc from scratch, so that every set-up pays the import."""
    for name in [m for m in sys.modules if m == "pcc" or m.startswith("pcc.")]:
        del sys.modules[name]
    pcc = importlib.import_module("pcc")
    importlib.import_module("pcc.cli")
    return pcc


def setup(workload: str, seed: int, workdir: str, tr) -> tuple[float, list]:
    start = time.perf_counter()
    pcc = fresh_pcc()
    instances = workloads.BUILDERS[workload](pcc, seed, workdir, tr)
    return time.perf_counter() - start, instances


class Pass:
    """One run of the whole instance list: per-instance times in seconds as
    measured (`raw`) and at the reference speed (`times`), the reference
    kernel's times, how many instances ended undecided, and the wrong
    verdicts."""

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.times: list[float] = []
        self.references: list[float] = []
        self.undecided = 0
        self.failures: list[str] = []

    @property
    def wall(self) -> float:
        return sum(self.times)

    @property
    def raw_wall(self) -> float:
        return sum(self.raw)

    def record(self, elapsed: float, undecided: bool) -> None:
        """Store one instance's time; runs the reference kernel after it."""
        before = self.references[-1]
        self.references.append(speed.reference_s())
        self.raw.append(elapsed)
        self.times.append(elapsed if undecided else
                          speed.at_reference_speed(elapsed, before, self.references[-1]))


def run_pass(instances, reference: list, tr, replay=None) -> Pass:
    """Run every instance once, with a run of the reference kernel before
    the first and after each.  The first pass stores its results in
    `reference` after the full check; later passes get the cheap check and
    must reproduce the reference result.

    An instance that ended undecided stopped at its wall-clock budget, so
    its time is the budget whatever the host's speed, and is not rescaled."""
    out = Pass()
    out.references.append(speed.reference_s())
    for i, inst in enumerate(instances):
        start = time.perf_counter()
        try:
            result = inst.run(tr)
        except Exception:  # a crash is a wrong verdict; keep measuring the rest
            elapsed = time.perf_counter() - start
            out.failures.append(f"{inst.name}: raised\n{traceback.format_exc()}")
            out.record(elapsed, False)
            continue
        elapsed = time.perf_counter() - start
        undecided = bool(inst.undecided(result))
        out.record(elapsed, undecided)
        try:
            inst.check(result, reference[i] is None)
            if reference[i] is None:
                reference[i] = result
            elif inst.repeatable:
                workloads.expect(result == reference[i],
                                 f"{inst.name}: result changed between passes")
        except workloads.Mismatch as err:
            out.failures.append(str(err))
        out.undecided += undecided
        if tr.enabled:
            inst.observe(result, tr, replay)
    return out


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def provenance(seed: int) -> dict[str, str]:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = (line for line in fh if line.startswith("model name"))
            cpu = next(model).split(":", 1)[1].strip()
    except (OSError, StopIteration):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "pcc").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "seed": str(seed),
        "cpu": cpu,
        "nproc": str(os.cpu_count()),
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
    }


def tail_rank(n: int) -> int:
    """0-based rank of the slowest of n samples with TAIL_BEYOND beyond it."""
    return max(0, n - TAIL_BEYOND - 1)


def end_to_end(passes: list[Pass], setup_times: list[float], raw=False) -> dict[str, float]:
    """Each instance's time to a verdict is its median over the passes; the
    p50 and the tail are taken over those per-instance times.  Times are
    at the reference speed, or as measured with `raw`."""
    attempted = sum(len(p.times) for p in passes)
    undecided = sum(p.undecided for p in passes)
    per_instance = sorted(statistics.median(times)
                          for times in zip(*((p.raw if raw else p.times) for p in passes)))
    return {
        "wall_s": statistics.median((p.raw_wall if raw else p.wall) for p in passes),
        "verdict_p50_ms": statistics.median(per_instance) * 1000.0,
        "verdict_tail_ms": per_instance[tail_rank(len(per_instance))] * 1000.0,
        "decided_ratio": 1.0 - undecided / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_times),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: str):
    """Returns (metrics, units, passes, notes, measured), `measured` being
    the end-to-end metrics with times as measured."""
    notes: list[str] = []
    if not trace:
        setup_raw, setup_times = [], []
        while len(setup_raw) < SETUP_MIN or (
            sum(setup_raw) < SETUP_BUDGET_S and len(setup_raw) < SETUP_MAX
        ):
            before = speed.reference_s()
            elapsed, instances = setup(workload, seed, workdir, tracing.NullTracer())
            setup_raw.append(elapsed)
            setup_times.append(speed.at_reference_speed(elapsed, before, speed.reference_s()))
        reference = [None] * len(instances)
        passes = []
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline:
            passes.append(run_pass(instances, reference, tracing.NullTracer()))
        n = len(instances)
        rank = tail_rank(n)
        metrics = end_to_end(passes, setup_times)
        kernel = statistics.median(t for p in passes for t in p.references)
        notes += [
            f"instances {n}",
            f"passes {len(passes)}",
            f"verdict_tail_ms is the instance time at rank {rank + 1} of {n} "
            f"(p{100.0 * (rank + 1) / n:.0f}, {n - rank - 1} samples beyond it)",
            f"undecided_ratio = 1 - decided_ratio: {sum(p.undecided for p in passes)} of "
            f"{n * len(passes)} instance runs ended in a timeout or Inconclusive",
            f"setup_s is the median of {len(setup_times)} set-ups",
            f"times at the reference speed: the reference kernel took {kernel * 1000.0:.4g} ms "
            f"(median of {sum(len(p.references) for p in passes)} runs) against "
            f"{speed.NOMINAL_S * 1000.0:.4g} ms nominal",
        ]
        return metrics, E2E_UNITS, passes, notes, end_to_end(passes, setup_raw, raw=True)

    # An untraced set-up first, so that the traced one does not pay for
    # compiling the bytecode.
    setup(workload, seed, workdir, tracing.NullTracer())
    setup_tr = tracing.Tracer()
    _, instances = setup(workload, seed, workdir, setup_tr)
    reference = [None] * len(instances)
    plain, traced, snapshots = [], [], []
    replay = tracing.Tracer()
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(run_pass(instances, reference, tracing.NullTracer()))
        tr = tracing.Tracer()
        traced.append(run_pass(instances, reference, tr, replay if not snapshots else None))
        snapshots.append(tr.snapshot())
    overhead = statistics.median(p.wall for p in traced) / statistics.median(p.wall for p in plain)
    once = setup_tr.snapshot()
    for key, value in replay.counters.items():
        once[key] = once.get(key, 0) + value
    metrics = tracing.layer_metrics(tracing.median_snapshot(snapshots), once, overhead)
    notes.append(f"traced_passes {len(traced)} untraced_passes {len(plain)}")
    notes += [f"derived {name}: {how}" for name, how in tracing.DERIVED.items()]
    return metrics, tracing.LAYER_UNITS, plain + traced, notes, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "pcc" / "__init__.py").is_file():
        print(f"error: no pcc source under {SRC}; run from the root of a pcc checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        metrics, units, passes, notes, measured = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for p in passes for f in p.failures]
    for failure in failures:
        print(f"WRONG VERDICT: {failure}", file=sys.stderr)
    print(f"workload {args.workload}")
    for key, value in provenance(args.seed).items():
        print(f"provenance {key} {value}")
    for note in notes:
        print(f"note {note}")
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    if "decided_ratio" in metrics:
        print(f"metric undecided_ratio {1.0 - metrics['decided_ratio']:.6g} ratio")
    for name in ("wall_s", "verdict_p50_ms", "verdict_tail_ms", "setup_s"):
        if name in measured:
            print(f"measured {name} {measured[name]:.6g} {units[name]}")
    result = {
        "correct": not failures,
        "attempted": sum(len(p.times) for p in passes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
