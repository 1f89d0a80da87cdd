"""Runs one workload in a fresh interpreter and prints one JSON object.

Started by run.py, one process per measurement:

    python3 perfbench/worker.py --src SRC --workload NAME --seed N \
        --mode setup|run|trace --passes P [--spans PATH]

``setup`` times a cold ``import rainbowfree`` plus building the inputs and
the first pass, with host-speed probes (probe.py) just before and after,
then exits.  ``run`` goes on to a closed loop with one caller: each answer
is produced and certified before the next is requested, for ``--passes``
passes, while the probe timer samples the host's speed.  It reports the
start and end of every answer and pass, and the probes, in measured
seconds; run.py converts them to reference seconds.  ``trace`` runs the
same passes with every reported function wrapped by the tracer, reports
self times in reference seconds, and writes its spans to ``--spans`` at
the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback

from probe import Prober, timed_probes
from workloads import WORKLOADS

# probes timed just before and just after set-up, to convert it; the first
# few of a fresh interpreter run slower and are dropped
SETUP_PROBES = 15
WARMUP_SETUP_PROBES = 3


def digest(records) -> str:
    """sha256 over the canonical JSON of one pass's answers."""
    text = json.dumps(records, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=["setup", "run", "trace"])
    parser.add_argument("--passes", type=int, required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    workload = WORKLOADS[args.workload]

    setup_probes = timed_probes(WARMUP_SETUP_PROBES + SETUP_PROBES)[WARMUP_SETUP_PROBES:]
    start = time.perf_counter()
    import rainbowfree  # noqa: F401  (the cold import is part of set-up)

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        # installed before the inputs are built, so that closures the
        # registry captures at build time hold the wrapped functions
        tracer = Tracer()
        tracer.install()
    inputs = workload.build(args.seed)
    items = workload.items(inputs, 0)
    setup_s = time.perf_counter() - start
    setup_probes += timed_probes(SETUP_PROBES)
    setup = {"setup_s": setup_s, "setup_probes_s": setup_probes}
    if args.mode == "setup":
        print(json.dumps(setup))
        return
    if tracer is not None:
        tracer.reset()
    prober = Prober(tracer)
    prober.start()

    answers: list[tuple[float, float]] = []
    passes: list[tuple[float, float]] = []
    pass_sizes: list[int] = []
    attempted = failed = exact = 0
    errors: list[str] = []
    first_pass = None
    for p in range(args.passes):
        if p:
            items = workload.items(inputs, p)
        records = []
        pass_start = time.perf_counter()
        for item in items:
            if tracer is not None:
                tracer.answer = attempted
            t = time.perf_counter()
            try:
                record, ok, is_exact = workload.answer(inputs, item)
            except Exception:  # an answer that raises is a failed answer
                errors.append(traceback.format_exc(limit=4))
                record, ok, is_exact = {"error": errors[-1].splitlines()[-1]}, False, False
            answers.append((t, time.perf_counter()))
            records.append(record)
            attempted += 1
            failed += not ok
            exact += bool(is_exact)
        passes.append((pass_start, time.perf_counter()))
        pass_sizes.append(len(records))
        if first_pass is None:
            first_pass = records
    prober.stop()

    out = {
        **setup,
        "passes": passes,
        "pass_sizes": pass_sizes,
        "answers": answers,
        "probe_starts": list(prober.starts),
        "probe_durations_s": list(prober.durations),
        "answers_per_pass": len(first_pass),
        "attempted": attempted,
        "failed": failed,
        "exact": exact,
        "digest": digest(first_pass),
        "errors": errors[:5],
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        from speed import Speed

        out["layers"] = tracer.metrics(Speed(prober.starts, prober.durations))
        out["spans"] = len(tracer.span_start)
        if args.spans:
            tracer.save(args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
