"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload multiply-t25 --seed 1 --seconds 20 --trace 0

``--trace 0`` runs one timed process and prints the end-to-end metrics,
its times at the reference host speed (see ``calibrate.py``).
``--trace 1`` runs an untraced process and a traced process for
half of ``--seconds`` each and prints the per-layer metrics, the span
coverage of op wall and the tracing overhead.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
the run's environment (nproc, Python and NumPy versions, git commit)
and the figures that are not gated: on ``--trace 0`` the measured
(raw) end-to-end figures and the reference kernel's time among them.

Every measured run is a fresh ``worker.py`` process with ``REPRO_*``
cleared and ``TMPDIR`` (and so the spill store) in a fresh directory
under ``.perfbench/`` in the checkout, removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("multiply-t25", "factorize-gd", "serve-mix", "factorize-spill")
#: Set-ups per timed run; ``setup_s`` is their median.
SETUPS = 5
#: Fewest ops in a timed run, so ten samples lie beyond ``op_p90_ms``.
MIN_OPS = 100
#: Every worker of one run must end within this many seconds.
RUN_TIMEOUT = 170


def _git_commit() -> str:
    """HEAD of the checkout, or ``unknown`` when it is not a git work tree."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if len(top) == 2 and Path(top[0]).resolve() == ROOT:
        return top[1]
    return "unknown"


def _worker(args: argparse.Namespace, rundir: Path, deadline: float,
            mode: str, seconds: float, extra: list[str]) -> dict:
    out = rundir / f"{mode}.json"
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["TMPDIR"] = str(rundir / f"tmp-{mode}")
    env["PYTHONHASHSEED"] = "0"
    # One BLAS thread: the engine's runner owns parallelism, and BLAS
    # helper threads spinning on a 2-core host doubled CPU per op and
    # widened the run-to-run spread.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    os.makedirs(env["TMPDIR"])
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--mode", mode, "--out", str(out), *extra,
    ]
    completed = subprocess.run(
        command, env=env, cwd=ROOT, timeout=deadline - time.monotonic()
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with {completed.returncode}")
    return json.loads(out.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    state = ROOT / ".perfbench"
    state.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(prefix="run-", dir=state))
    deadline = time.monotonic() + RUN_TIMEOUT
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _git_commit(),
    }
    try:
        if args.trace:
            half = args.seconds / 2
            plain = _worker(args, rundir, deadline, "timed", half, [])
            spans = state / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
            run = _worker(
                args, rundir, deadline, "traced", half, ["--spans", str(spans)]
            )
            metrics = run["metrics"]
            untraced = plain["metrics"]["ops_per_s"][0]
            traced = metrics["trace.traced_ops_per_s"][0]
            metrics["trace.untraced_ops_per_s"] = (untraced, "1/s")
            metrics["trace.ops_per_s_delta"] = (traced - untraced, "1/s")
            for name in ("baseline.numpy_matmul_ms", "baseline.blocked_loop_ms"):
                metrics[name] = (plain.get("baselines", {}).get(name, 0.0), "ms")
            info["spans"] = run["spans"]
            info["spans_file"] = str(spans.relative_to(ROOT))
            attempted = plain["attempted"] + run["attempted"]
            failed = plain["failed"] + run["failed"]
        else:
            run = _worker(
                args, rundir, deadline, "timed", args.seconds,
                ["--setups", str(SETUPS), "--min-ops", str(MIN_OPS)],
            )
            metrics = run["metrics"]
            info["raw"] = run["raw"]
            info["kernel_ms"] = run["kernel_ms"]
            info["baselines_ms"] = run.get("baselines", {})
            attempted, failed = run["attempted"], run["failed"]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    info.update(
        numpy=run["numpy"],
        samples=run["attempted"],
        error_rate=failed / attempted if attempted else 1.0,
        timed_wall_seconds=run["wall_seconds"],
    )
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
