"""One measured run of one workload, in a process of its own.

``run.py`` starts this script with ``REPRO_*`` cleared and ``TMPDIR``
pointing at a fresh directory inside the checkout, and reads the JSON
it writes to ``--out``.  Modes:

* ``timed`` — set up ``--setups`` times (the last set-up is kept), run
  the closed-loop client until ``--seconds`` have passed and at least
  ``--min-ops`` ops are done, then check every op and report the
  end-to-end metrics at the reference host speed (:mod:`calibrate`).
* ``traced`` — the same loop with every layer wrapped by
  :mod:`tracer`; reports per-layer metrics per op and writes the spans.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro.engine.metrics import JobMetrics  # noqa: E402

import calibrate  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Longest timed phase, so a run ends within its time limit even when
#: the op is far slower than expected.
MAX_PHASE_SECONDS = 120.0
#: Rates are the median over this many consecutive slices of the ops,
#: so a burst of interference from outside the process moves one slice,
#: not the run's figure.
SLICES = 10
#: The client runs in windows of this many seconds, with the host's
#: speed measured between windows while the client is idle.
WINDOW_SECONDS = 1.0


class Phase:
    """What the client of one timed phase saw."""

    def __init__(self) -> None:
        #: Per op, in completion order: wall latency, process CPU and the
        #: index of the window the op ran in.
        self.latencies: list[float] = []
        self.cpu: list[float] = []
        self.windows: list[int] = []
        #: Kernel seconds measured before each window and after the last.
        self.speeds: list[float] = []
        self.failed = 0
        self.wall_seconds = 0.0
        self.counters = JobMetrics(job_id=-1, description="ops")
        self.jobs = 0
        self.cache_hits: dict[str, list[int]] = {}


def _cache_counts(stats: dict) -> dict[str, list[int]]:
    return {
        name: [stats[name]["hits"], stats[name]["misses"]]
        for name in ("plan_cache", "pass_cache")
    }


def _add_counts(into: dict, before: dict, after: dict) -> None:
    for name, (hits, misses) in after.items():
        total = into.setdefault(name, [0, 0])
        total[0] += hits - before[name][0]
        total[1] += misses - before[name][1]


def run_phase(workload, seconds: float, min_ops: int, tracer,
              speed: calibrate.HostSpeed) -> Phase:
    """Closed loop: one client sends its next op when the last returns,
    taking turns as each name in ``workload.clients``.

    The client runs in windows of :data:`WINDOW_SECONDS`; before each
    window and after the last, with the client idle, the host's speed
    is measured (:meth:`calibrate.HostSpeed.measure`).  In a traced run
    the engine counters are read around each op, so the oracle's own
    engine calls between ops are not counted.
    """
    phase = Phase()
    names = itertools.cycle(workload.clients)
    start = time.perf_counter()
    deadline = start + seconds
    hard_stop = start + max(seconds, MAX_PHASE_SECONDS)

    def one_op(op_id: int, window: int) -> None:
        name = next(names)
        if tracer:
            registry = workload.registry()
            snapshot = registry.snapshot()
            jobs = len(registry.jobs)
            caches = _cache_counts(workload.cache_stats())
        ok = True
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            if tracer:
                with tracer.op(op_id, tenant=name):
                    result = workload.op(name)
            else:
                result = workload.op(name)
        except Exception as exc:  # an op failure is data, not a crash
            print(f"op {op_id} failed: {exc!r}", file=sys.stderr)
            ok = False
        phase.latencies.append(time.perf_counter() - t0)
        phase.cpu.append(time.process_time() - cpu0)
        phase.windows.append(window)
        if tracer:
            phase.counters.merge(registry.delta_since(snapshot))
            phase.jobs += len(registry.jobs) - jobs
            _add_counts(
                phase.cache_hits, caches, _cache_counts(workload.cache_stats())
            )
        if ok:
            try:
                ok = workload.after(name, result) is not False
            except Exception as exc:
                print(f"op {op_id} check failed: {exc!r}", file=sys.stderr)
                ok = False
        phase.failed += not ok

    op_ids = itertools.count()
    for window in itertools.count():
        now = time.perf_counter()
        if now >= hard_stop or (
            now >= deadline and len(phase.latencies) >= min_ops
        ):
            break
        phase.speeds.append(speed.measure())
        window_end = min(time.perf_counter() + WINDOW_SECONDS, hard_stop)
        while time.perf_counter() < window_end:
            one_op(next(op_ids), window)
    phase.speeds.append(speed.measure())
    phase.wall_seconds = time.perf_counter() - start
    return phase


def _sliced_median(numerators, denominators) -> float:
    """Median over :data:`SLICES` consecutive slices of sum(num)/sum(den)."""
    bounds = np.linspace(0, len(numerators), SLICES + 1).astype(int)
    return float(np.median([
        sum(numerators[lo:hi]) / sum(denominators[lo:hi])
        for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo
    ]))


def at_reference(phase: Phase,
                 speed: calibrate.HostSpeed) -> tuple[np.ndarray, np.ndarray]:
    """Each op's latency and CPU at the reference host speed, scaled by
    the kernel measurements on either side of the op's window."""
    speeds = phase.speeds
    scales = np.array([
        speed.scale(speeds[w], speeds[w + 1]) for w in phase.windows
    ])
    return np.asarray(phase.latencies) * scales, np.asarray(phase.cpu) * scales


def ops_per_s(latencies) -> float:
    """Closed-loop throughput, 1 / mean latency (Little's law).

    Only the ops' own time counts, so the oracle work the client does
    between ops is not part of the rate.
    """
    return _sliced_median([1] * len(latencies), latencies)


def end_to_end(latencies, cpu, setup_seconds: list[float],
               peak_rss_mb: float) -> dict:
    ms = np.asarray(latencies) * 1e3
    return {
        "setup_s": (float(np.median(setup_seconds)), "s"),
        "ops_per_s": (ops_per_s(latencies), "1/s"),
        "op_p50_ms": (float(np.percentile(ms, 50)), "ms"),
        "op_p90_ms": (float(np.percentile(ms, 90)), "ms"),
        "cpu_ms_per_op": (
            _sliced_median(list(cpu), [1] * len(ms)) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(phase: Phase, tracer: tracing.Tracer, workload,
              speed: calibrate.HostSpeed) -> dict:
    """Per-op layer metrics from the spans and the engine's counters.

    Every ``*_ms`` metric is self time: the span's duration minus the
    time its child spans cover.
    """
    ops = len(phase.latencies)
    c = phase.counters

    def ms(*names: str) -> float:
        return sum(tracer.self_seconds[n] for n in names) * 1e3 / ops

    def calls(*names: str) -> float:
        return sum(tracer.calls[n] for n in names) / ops

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def cache_ratio(name: str) -> float:
        hits, misses = phase.cache_hits[name]
        return ratio(hits, hits + misses)

    op_wall = sum(phase.latencies)
    frontdoor = 0.0
    if tracer.calls["serve.submit"]:
        frontdoor = (op_wall - tracer.total_seconds["serve.submit"]) * 1e3 / ops
    metrics = {
        "comprehension.parse_ms": (ms("comprehension.parse"), "ms"),
        "comprehension.normalize_ms": (
            ms("comprehension.desugar", "comprehension.normalize"), "ms"),
        "session.compile_ms": (ms("session.compile"), "ms"),
        "session.plan_cache_hit_ratio": (cache_ratio("plan_cache"), "ratio"),
        "session.pass_cache_hit_ratio": (cache_ratio("pass_cache"), "ratio"),
        "planner.passes_ms": (ms("planner.plan_state"), "ms"),
        "planner.lower_ms": (ms("planner.lower"), "ms"),
        "planner.contract_calls": (calls("planner.contract"), "count"),
        "planner.contract_ms": (
            ms("planner.contract", "planner.combine_tiles"), "ms"),
        "scheduler.jobs": (phase.jobs / ops, "count"),
        "scheduler.job_ms": (ms("scheduler.run_job"), "ms"),
        "scheduler.stages": (c.stages / ops, "count"),
        "scheduler.tasks": (c.tasks / ops, "count"),
        "scheduler.task_retries": (c.task_retries / ops, "count"),
        "shuffle.calls": (calls("shuffle.shuffle"), "count"),
        "shuffle.ms": (ms("shuffle.shuffle"), "ms"),
        "shuffle.mb": (c.shuffle_bytes / 1e6 / ops, "MB"),
        "shuffle.records": (c.shuffle_records / ops, "count"),
        "shuffle.reuse_ratio": (
            ratio(c.shuffle_reuses, c.shuffle_reuses + c.shuffles), "ratio"),
        "shuffle.est_actual_ratio": (
            ratio(c.estimated_shuffle_bytes, c.shuffle_bytes), "ratio"),
        "serialization.size_calls": (calls("serialization.batch_size"), "count"),
        "serialization.size_ms": (ms("serialization.batch_size"), "ms"),
        "block_manager.get_calls": (calls("block_manager.get"), "count"),
        "block_manager.get_ms": (ms("block_manager.get"), "ms"),
        "block_manager.put_ms": (ms("block_manager.put"), "ms"),
        "block_manager.cache_hit_ratio": (
            ratio(c.cache_hits, c.cache_hits + c.cache_misses), "ratio"),
        "block_manager.spilled_mb": (c.spilled_bytes / 1e6 / ops, "MB"),
        "block_manager.restored_mb": (c.restored_bytes / 1e6 / ops, "MB"),
        "block_manager.restore_stall_ms": (
            c.restore_stall_seconds * 1e3 / ops, "ms"),
        "block_manager.prefetch_hit_ratio": (
            ratio(c.prefetch_hits, c.spill_restores), "ratio"),
        "objectstore.put_calls": (calls("objectstore.put"), "count"),
        "objectstore.put_ms": (ms("objectstore.put"), "ms"),
        "objectstore.get_ms": (ms("objectstore.get"), "ms"),
        "storage.load_ms": (ms("storage.from_numpy", "storage.materialize"), "ms"),
        "storage.assemble_ms": (ms("storage.to_numpy"), "ms"),
        "serve.submit_ms": (ms("serve.submit"), "ms"),
        "serve.render_ms": (ms("serve.render"), "ms"),
        "serve.frontdoor_ms": (frontdoor, "ms"),
        "adaptive.decisions": (len(c.adaptive_decisions) / ops, "count"),
        "trace.span_coverage": (ratio(tracer.covered_seconds, op_wall), "ratio"),
        "trace.traced_ops_per_s": (
            ops_per_s(at_reference(phase, speed)[0]), "1/s"),
    }
    shares = workload.shares() if hasattr(workload, "shares") else {}
    for name in ("serve.repeat_share", "serve.fresh_share"):
        metrics[name] = (shares.get(name, 0.0), "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("timed", "traced"), required=True)
    parser.add_argument("--setups", type=int, default=1)
    parser.add_argument("--min-ops", type=int, default=0)
    parser.add_argument("--spans", help="gzip file for the traced spans")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"imported repro from {repro.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    speed = calibrate.HostSpeed(
        handoffs=getattr(workload, "crosses_threads", False)
    )
    try:
        setup_seconds, setup_raw = [], []
        for index in range(args.setups):
            if index:
                workload.close()
            before = speed.measure()
            start = time.perf_counter()
            workload.setup()
            setup_raw.append(time.perf_counter() - start)
            after = speed.measure()
            setup_seconds.append(setup_raw[-1] * speed.scale(before, after))
        tracer = tracing.Tracer() if args.mode == "traced" else None
        try:
            if tracer:
                with tracing.installed(tracer):
                    phase = run_phase(
                        workload, args.seconds, args.min_ops, tracer, speed)
            else:
                phase = run_phase(
                    workload, args.seconds, args.min_ops, None, speed)
            # Peak memory of the workload itself, before the oracle
            # replays and without the host-speed kernel's buffer.
            peak_rss_mb = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                - calibrate.STREAM_MB
            )
            phase.failed += workload.finish()
        finally:
            workload.close()
    finally:
        speed.close()

    result = {
        "attempted": len(phase.latencies),
        "failed": phase.failed,
        "wall_seconds": phase.wall_seconds,
        "numpy": np.__version__,
    }
    if tracer:
        result["metrics"] = per_layer(phase, tracer, workload, speed)
        if args.spans:
            tracer.write(args.spans)
        result["spans"] = len(tracer.spans)
    else:
        latencies, cpu = at_reference(phase, speed)
        result["metrics"] = end_to_end(
            latencies, cpu, setup_seconds, peak_rss_mb)
        raw = end_to_end(phase.latencies, phase.cpu, setup_raw, peak_rss_mb)
        result["raw"] = {name: value for name, (value, _unit) in raw.items()}
        result["kernel_ms"] = float(np.median(phase.speeds)) * 1e3
        if hasattr(workload, "baselines"):
            result["baselines"] = workload.baselines()
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
