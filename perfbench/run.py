"""Benchmark for rainbowfree: the time until every answer has been re-checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``, nothing is installed or built.  Each measurement runs in a fresh
single-threaded interpreter (worker.py) as a closed loop with one caller,
for a number of passes fixed by the workload and ``--seconds``.  Times are
reported in reference seconds: measured seconds scaled by a host-speed
probe that runs alongside (probe.py).  Workloads, metrics and the
layer-to-metric map are described in NOTES.md.

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a separate traced run, plus the tracing overhead.  Every metric is also
printed by name and unit on the lines before it.  A full result, with run
metadata, is written to ``.perfbench/results/`` and the spans of a traced
run to ``.perfbench/spans/``.  The exit code is 0 only if every answer was
certified and the output digest matched.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from speed import REF_PROBE_S, Speed, reference_setup_s
from workloads import PASS_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# set-up is measured in this many fresh interpreters and reported as a median
SETUP_SAMPLES = 7
# digests in digests.json are recorded for this seed
DIGEST_SEED = 0
# everything a run starts must end within this many seconds
TIME_LIMIT_S = 170
# answers per pass that must lie beyond the reported tail latency
TAIL_BEYOND = 10
# points of the grid on which quantile() integrates the Beta density
HD_GRID = 100_000

ENV_SINGLE_THREAD = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class WorkerError(RuntimeError):
    pass


def run_worker(args, mode: str, deadline: float, passes: int, *extra: str) -> dict:
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--src",
        str(SRC),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--mode",
        mode,
        "--passes",
        str(passes),
        *extra,
    ]
    env = {**os.environ, **ENV_SINGLE_THREAD}
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError(f"no time left for the {mode} worker")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker exceeded the time limit") from exc
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of quantile ``q``: a Beta-weighted average of
    all order statistics.  A registry pass has only 17 or 31 answers of very
    different sizes, and a plain sample quantile of those jumps between
    single claims from run to run; this estimator moves smoothly."""
    xs = np.sort(np.asarray(values))
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    grid = np.linspace(0.0, 1.0, HD_GRID + 1)
    inner = grid[1:-1]
    log_pdf = (a - 1) * np.log(inner) + (b - 1) * np.log1p(-inner)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))))
    cdf = np.concatenate((cdf, [cdf[-1]])) / cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))
    return float(weights @ xs)


def tail_quantile(answers_per_pass: int) -> float:
    """The highest quantile that still has at least TAIL_BEYOND answers of
    one pass beyond it."""
    return max(1 - TAIL_BEYOND / answers_per_pass, 0.0)


def per_pass_quantile(lat: list[float], sizes: list[int], q: float) -> tuple[float, int]:
    """(median over passes of each pass's quantile q, answers beyond it).
    Taken per pass, the estimate does not depend on how many passes a run
    makes: a registry pass has only 17 or 31 answers, and the estimator's
    weights change with the sample size."""
    bounds = np.cumsum([0, *sizes])
    passes = [lat[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    values = [quantile(p, q) for p in passes]
    beyond = sum(x > v for p, v in zip(passes, values) for x in p)
    return statistics.median(values), beyond


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def unit(name: str) -> str:
    if name.startswith("host_speed"):
        return "ref_s/s"
    if name.endswith("percentile"):
        return "%"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("frac"):
        return "fraction"
    return "count"


def pass_walls(worker: dict) -> list[float]:
    """Each pass's wall time in reference seconds."""
    return Speed(worker["probe_starts"], worker["probe_durations_s"]).intervals_s(worker["passes"])


def end_to_end(untraced: dict, setups: list[dict]) -> tuple[dict, dict]:
    """(metrics for the result line, extra figures printed alongside).
    Times are in reference seconds (speed.py); the measured ones are among
    the extra figures."""
    speed = Speed(untraced["probe_starts"], untraced["probe_durations_s"])
    lat = speed.intervals_s(untraced["answers"])
    walls = pass_walls(untraced)
    setup_ref = [reference_setup_s(s["setup_s"], s["setup_probes_s"]) for s in setups]
    sizes = untraced["pass_sizes"]
    tail_q = tail_quantile(min(sizes))
    p50_s, _ = per_pass_quantile(lat, sizes, 0.5)
    tail_s, beyond = per_pass_quantile(lat, sizes, tail_q)
    attempted = untraced["attempted"]
    metrics = {
        "setup_s": statistics.median(setup_ref),
        "wall_s": statistics.median(walls),
        "answer_p50_ms": 1000 * p50_s,
        "answer_tail_ms": 1000 * tail_s,
        "exact_frac": untraced["exact"] / attempted,
        "peak_rss_mb": untraced["peak_rss_mb"],
    }
    measured_lat = [b - a for a, b in untraced["answers"]]
    extra = {
        "fail_frac": untraced["failed"] / attempted,
        "inexact_frac": 1 - untraced["exact"] / attempted,
        "answer_tail_percentile": 100 * tail_q,
        "answers": len(lat),
        "answers_beyond_tail": beyond,
        "passes": len(walls),
        "setup_samples": len(setups),
        "measured_setup_s": statistics.median(s["setup_s"] for s in setups),
        "measured_wall_s": statistics.median(b - a for a, b in untraced["passes"]),
        "measured_answer_p50_ms": 1000 * per_pass_quantile(measured_lat, sizes, 0.5)[0],
        "probes": len(untraced["probe_starts"]),
        "host_speed_median": float(np.median(speed.factor)),
        "host_speed_min": float(speed.factor.min()),
        "host_speed_max": float(speed.factor.max()),
    }
    return metrics, extra


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(PASS_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "rainbowfree" / "__init__.py").is_file():
        print(f"rainbowfree sources not found under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    passes = max(1, int(args.seconds / PASS_S[args.workload]))

    try:
        # set-up samples are taken before and after the measuring worker, so
        # that they span the run; a traced run reports no end-to-end metrics
        # and skips them
        extra = 0 if args.trace else (SETUP_SAMPLES - 1) // 2
        setups = [run_worker(args, "setup", deadline, 1) for _ in range(extra)]
        untraced = run_worker(args, "run", deadline, passes)
        setups.append(untraced)
        setups += [run_worker(args, "setup", deadline, 1) for _ in range(extra)]
        traced = None
        if args.trace:
            spans = OUT / "spans" / f"{args.workload}-seed{args.seed}.npz"
            spans.parent.mkdir(parents=True, exist_ok=True)
            traced = run_worker(args, "trace", deadline, passes, "--spans", str(spans))
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    workers = [untraced] + ([traced] if traced else [])
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    digests = json.loads((BENCH / "digests.json").read_text())
    digest = untraced["digest"]
    problems = [e for w in workers for e in w["errors"]]
    if traced and traced["digest"] != digest:
        problems.append("traced run produced different answers from the untraced run")
    if args.seed == DIGEST_SEED and digests.get(args.workload) != digest:
        problems.append(
            f"digest {digest} differs from the one recorded for seed {DIGEST_SEED}: "
            f"{digests.get(args.workload)}"
        )
    correct = failed == 0 and not problems

    e2e, extra = end_to_end(untraced, setups)
    if traced:
        # per-layer figures are per pass; both runs saw the same passes
        metrics = {
            k: v if k.endswith("frac") else v / passes for k, v in traced["layers"].items()
        }
        metrics["trace.overhead_s"] = (sum(pass_walls(traced)) - sum(pass_walls(untraced))) / passes
    else:
        metrics = e2e

    result = {
        "meta": {
            "commit": commit(),
            "source_sha256": source_digest(),
            "python": sys.version,
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "nproc_usable": len(os.sched_getaffinity(0)),
            "command": [Path(sys.executable).name, *sys.argv],
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "answers": untraced["attempted"],
            "answers_per_pass": untraced["answers_per_pass"],
            "digest": digest,
            "spans": traced["spans"] if traced else 0,
        },
        "correct": correct,
        "problems": problems,
        "end_to_end": {**e2e, **extra},
        "per_layer": metrics if traced else None,
        "passes": untraced["passes"],
        "answers": untraced["answers"],
        "setup_samples_s": [s["setup_s"] for s in setups],
        "setup_probes_s": [s["setup_probes_s"] for s in setups],
        "probe_starts": untraced["probe_starts"],
        "probe_durations_s": untraced["probe_durations_s"],
        "reference_probe_s": REF_PROBE_S,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=2))

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} answers, {failed} failed, digest {digest}")
    for problem in problems:
        print(f"  problem: {problem.strip()}")
    for name, value in {**e2e, **extra}.items():
        print(f"  {name:28s} {value:14.6g} {unit(name)}")
    if traced:
        for name, value in metrics.items():
            print(f"  {name:56s} {value:14.6g} {unit(name)}")
    print(f"  result file {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
