"""Benchmark for the reproduction: one command, four workloads.

    python3 perfbench/run.py --workload flash_crowd --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from
``src/``.  ``--trace 0`` measures the end-to-end metrics untraced;
``--trace 1`` wraps each layer's entry points (see ``layers.py``) and
reports the per-layer split instead.  Human-readable lines come first;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Workloads are described in
``workloads.py`` and in ``README.md`` beside this file.

The end-to-end times are in *reference seconds*: wall time scaled by
how fast the host ran at that moment, against a fixed reference speed
(see :class:`SpeedProbe`).  The raw wall-clock figures are printed
beside them.

The whole load runs in this one process: no CryptoPool, no fork
workers, no threads.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

clock = time.perf_counter
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: How many times set-up runs at least; ``setup_s`` reports the median.
SETUP_REPEATS = 3
#: Alternating untraced/traced unit pairs that price the wrappers.
OVERHEAD_PAIRS = 3
#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "step_tail_ms": "ms",
}

# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------

#: Program work between two speed samples, at least (s).
SAMPLE_EVERY_S = 0.05
#: A stretch of work is scaled by the median loop taken within this
#: much of it (s): a few loops either side, so that one loop that ran
#: fast or slow does not set a step's time, yet short enough to follow
#: the host's changes of speed, which last seconds.
SPEED_WINDOW_S = 0.25
#: The reference speed is the one at which one calibration loop takes
#: this long.  On the 2-vCPU host the benchmark was tuned on, the loop
#: took about 1.35 ms when that host ran at its usual speed.
REFERENCE_LOOP_S = 1.5e-3


def calibration_loop() -> None:
    """Fixed work in the interpreter and in C: an integer loop, then a
    chain of SHA-256 digests.  It allocates no object the cyclic garbage
    collector tracks, and the collector is off while it runs, so no
    collection of the program's garbage lands in it."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        total = 0
        for i in range(8000):
            total += i * i
        digest = total.to_bytes(16, "big") * 4
        for _ in range(600):
            digest = hashlib.sha256(digest).digest() * 2
    finally:
        if collecting:
            gc.enable()


class SpeedProbe:
    """How fast the host runs, sampled beside the program's work.

    On a shared host the CPU speed changes by half for seconds at a
    time as other loads come and go.  The probe runs
    :func:`calibration_loop` at the workloads' step boundaries (at most
    every ``SAMPLE_EVERY_S``) and around each set-up and unit.  A
    stretch of program work between two clock readings is then its wall
    time, minus the loops run inside it, times ``REFERENCE_LOOP_S`` over
    the median loop time around it: the time the work would have taken
    at the reference speed.  A disabled probe never runs the loop and
    reports raw wall time.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.starts: List[float] = []
        self.loop_s: List[float] = []
        self._due = 0.0

    def sample(self) -> None:
        if not self.enabled:
            return
        start = clock()
        calibration_loop()
        end = clock()
        self.starts.append(start)
        self.loop_s.append(end - start)
        self._due = end + SAMPLE_EVERY_S

    def tick(self) -> None:
        if self.enabled and clock() >= self._due:
            self.sample()

    def raw_s(self, a: float, b: float) -> float:
        """Wall time between clock readings ``a`` and ``b``, less the
        probe's own loops."""
        lo, hi = bisect_left(self.starts, a), bisect_left(self.starts, b)
        return b - a - sum(self.loop_s[lo:hi])

    def work_s(self, a: float, b: float) -> float:
        """Reference seconds of work between ``a`` and ``b``, at the
        median loop time within ``SPEED_WINDOW_S`` of it (at least the
        last loop before and the first after)."""
        raw = self.raw_s(a, b)
        if not self.enabled:
            return raw
        lo = min(bisect_left(self.starts, a - SPEED_WINDOW_S), bisect_left(self.starts, a) - 1)
        hi = max(bisect_left(self.starts, b + SPEED_WINDOW_S), bisect_left(self.starts, b) + 1)
        loops = self.loop_s[max(lo, 0):hi]
        return raw * REFERENCE_LOOP_S / statistics.median(loops)


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------


def time_imports() -> float:
    """Import the program, through the benchmark's own modules, and
    return how long that took in wall seconds.

    Reported, not part of ``setup_s``: from one interpreter to the next
    it varies with the host more than the speed probe corrects (see
    README.md)."""
    start = clock()
    import layers  # noqa: F401
    import workloads  # noqa: F401

    return clock() - start


@dataclass
class Timed:
    """One unit with its times in reference seconds (raw: wall seconds)."""

    unit: object
    wall_s: float
    raw_s: float
    setup_s: float
    steps_s: List[float]


def timed_unit(unit, probe: SpeedProbe) -> Timed:
    """Times of a finished unit; the probe must have sampled after it."""
    bounds = [unit.start] + [m for m in unit.marks if unit.start < m < unit.end] + [unit.end]
    segments = list(zip(bounds, bounds[1:]))
    return Timed(
        unit=unit,
        wall_s=sum(probe.work_s(a, b) for a, b in segments),
        raw_s=sum(probe.raw_s(a, b) for a, b in segments),
        setup_s=probe.work_s(unit.setup_start, unit.start),
        steps_s=[probe.work_s(a, b) for a, b in zip(unit.marks, unit.marks[1:])],
    )


@dataclass
class Measurement:
    #: The program's set-up, once per fixture: the build plus any set-up
    #: the program does inside the unit before its timed phase.
    setup_s: List[float] = field(default_factory=list)
    warm_up_s: float = 0.0
    timed: List[Timed] = field(default_factory=list)

    @property
    def units(self) -> list:
        return [t.unit for t in self.timed]

    @property
    def raw_s(self) -> float:
        return sum(t.raw_s for t in self.timed)

    @property
    def problems(self) -> List[str]:
        return [p for u in self.units for p in u.problems]


def measure(workload, seed: int, seconds: float, probe: SpeedProbe) -> Measurement:
    """Set up at least SETUP_REPEATS times and run units until ``seconds``
    of units are timed on the wall clock (and at least the workload's
    ``min_units``).  A fresh fixture is built just before its unit and
    dropped after it, so at most one is alive at a time."""
    out = Measurement()
    if workload.warm_up is not None:
        start = clock()
        workload.warm_up(seed)
        out.warm_up_s = clock() - start

    def build(index: int):
        gc.collect()
        probe.sample()
        start = clock()
        fixture = workload.build(seed, index)
        end = clock()
        probe.sample()
        return fixture, probe.work_s(start, end)

    def run(fixture) -> Timed:
        unit = workload.unit(fixture, probe.tick)
        probe.sample()
        timed = timed_unit(unit, probe)
        out.timed.append(timed)
        return timed

    def more() -> bool:
        return out.raw_s < seconds or len(out.timed) < workload.min_units

    if workload.fresh_fixture:
        while more() or len(out.setup_s) < SETUP_REPEATS:
            fixture, build_s = build(len(out.timed))
            timed = run(fixture)
            del fixture
            out.setup_s.append(build_s + timed.setup_s)
        return out
    fixture = None
    for index in range(SETUP_REPEATS):
        fixture = None
        fixture, build_s = build(index)
        out.setup_s.append(build_s)
    while more():
        run(fixture)
    return out


def tail(values: List[float]) -> Tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond
    it: ``(value, percentile)``."""
    ordered = sorted(values)
    if len(ordered) <= TAIL_BEYOND:
        raise ValueError(f"{len(ordered)} steps is too few for a tail percentile")
    index = len(ordered) - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def digest(parts) -> str:
    blob = json.dumps(parts, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> Dict[str, object]:
    numpy = sys.modules.get("numpy")
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", "not imported"),
        "commit": _git_commit(),
        "load": "one process; no CryptoPool, no fork workers, no threads",
    }


def end_to_end(workload, meas: Measurement, probe: SpeedProbe):
    steps = [s for t in meas.timed for s in t.steps_s]
    tail_s, tail_pct = tail(steps)
    ops = sum(u.ops for u in meas.units)
    wall = sum(t.wall_s for t in meas.timed)
    values = {
        "setup_s": statistics.median(meas.setup_s),
        "peak_rss_mb": peak_rss_mb(),
        "ops_per_s": ops / wall,
        "step_tail_ms": 1e3 * tail_s,
    }
    notes = {
        "setup_s": f"median of {len(meas.setup_s)} set-ups ({workload.setup})",
        "peak_rss_mb": "peak resident set size of this process",
        "ops_per_s": f"{ops} {workload.op} in {wall:.2f} reference s over "
                     f"{len(meas.timed)} units",
        "step_tail_ms": f"p{tail_pct:.1f} of {len(steps)} steps; one step = {workload.step}",
    }
    lines = [
        f"{name:<14} {values[name]:>12.4f} {END_TO_END_UNITS[name]:<5} {notes[name]}"
        for name in END_TO_END_UNITS
    ]
    lines.append(
        f"{'step_p50_ms':<14} {1e3 * statistics.median(steps):>12.4f} ms    "
        f"p50 of {len(steps)} steps (not gated)"
    )
    loops = sorted(probe.loop_s)
    lines.append(
        f"raw wall clock: {ops / meas.raw_s:.2f} ops/s over {meas.raw_s:.2f} s; "
        f"{len(loops)} calibration loops took {1e3 * loops[len(loops) // 10]:.3f}-"
        f"{1e3 * statistics.median(loops):.3f}-{1e3 * loops[len(loops) * 9 // 10]:.3f} ms "
        f"(p10-p50-p90; reference {1e3 * REFERENCE_LOOP_S:g} ms)"
    )
    if meas.warm_up_s:
        lines.append(f"warm-up {meas.warm_up_s:.3f} s, untimed and not in setup_s")
    return values, lines


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------


def tracing_overhead(workload, seed: int):
    """Median traced/untraced time of the first unit over alternating
    pairs, each unit on a fixture built in the same mode; and the last
    untraced unit, the reference for the traced run's digest."""
    import layers

    probe = SpeedProbe()
    ratios = []
    for _ in range(OVERHEAD_PAIRS):
        gc.collect()
        plain = workload.unit(workload.build(seed, 0), probe.tick)
        probe.sample()
        gc.collect()
        tracer = layers.LayerTracer()
        tracer.install()
        try:
            wrapped = workload.unit(workload.build(seed, 0), probe.tick)
        finally:
            tracer.uninstall()
        probe.sample()
        ratios.append(timed_unit(wrapped, probe).wall_s / timed_unit(plain, probe).wall_s)
    return statistics.median(ratios), plain


def traced(workload, seed: int, seconds: float):
    """Per-layer split of one traced measurement (raw wall time, no speed
    probe), plus its self-checks."""
    import layers

    overhead, reference = tracing_overhead(workload, seed)
    tracer = layers.LayerTracer()
    tracer.install()
    mark = layers.CounterMark.take()
    start = clock()
    meas = measure(workload, seed, seconds, SpeedProbe(enabled=False))
    wall = clock() - start
    delta = mark.delta()

    split, problems = tracer.split(wall)
    problems += meas.problems
    idle = [layer for layer in workload.busy_layers if split[layer][0] == 0]
    if idle:
        problems.append(f"layer map: no calls recorded for {', '.join(idle)}")
    if digest(meas.units[0].digest) != digest(reference.digest):
        problems.append("traced run's first unit differs from the untraced reference")

    counts: Dict[str, float] = {}
    for unit in meas.units:
        for key, value in unit.counts.items():
            counts[key] = counts.get(key, 0) + value
    values: Dict[str, float] = {}
    for layer, (calls, self_s) in split.items():
        values[f"{layer}.calls"] = calls
        values[f"{layer}.self_s"] = self_s
    values.update(layers.counter_metrics(tracer, delta, counts, overhead))

    lines = [f"traced wall {wall:.3f} s over {len(meas.units)} units "
             f"(tracing overhead x{overhead:.3f}: median of {OVERHEAD_PAIRS} "
             f"alternating untraced/traced first units)"]
    lines.append(f"{'layer':<22} {'calls':>10} {'self_s':>10} {'share':>7}")
    for layer, (calls, self_s) in sorted(split.items(), key=lambda kv: -kv[1][1]):
        lines.append(f"{layer:<22} {calls:>10} {self_s:>10.4f} {100 * self_s / wall:>6.1f}%")
    lines.append("inclusive time of the busiest entry points (outermost calls only; shares overlap):")
    top = sorted(tracer.inclusive_s.items(), key=lambda kv: -kv[1])[:8]
    for path, seconds_in in top:
        lines.append(f"  {path:<40} {seconds_in:>10.4f} {100 * seconds_in / wall:>6.1f}%")
    return meas, values, problems, lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import_s = time_imports()
    probe = SpeedProbe(enabled=not args.trace)
    import layers
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    if args.trace:
        meas, values, problems, lines = traced(workload, args.seed, args.seconds)
        units = layers.per_layer_units()
    else:
        meas = measure(workload, args.seed, args.seconds, probe)
        values, lines = end_to_end(workload, meas, probe)
        lines.append(f"imports {import_s:.3f} wall s, not in setup_s")
        problems = meas.problems
        units = END_TO_END_UNITS
    if threading.active_count() != 1:
        problems.append(f"{threading.active_count()} threads alive; the load must be single-threaded")
    for line in lines:
        print(line)
    print(f"digest {digest(meas.units[0].digest)}  (first unit's seeded model outputs)")
    attempted = sum(u.attempted for u in meas.units)
    failed = sum(u.failed for u in meas.units)
    print(f"operations {attempted} attempted, {failed} failed")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
