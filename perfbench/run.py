"""Serving benchmark: one workload per invocation, both clocks, output checks.

Run from the repository root::

    python3 perfbench/run.py --workload diurnal --seed 1 --seconds 20 --trace 0

``--trace 0`` sets the workload up at least seven times and for at least
three host seconds (median ``setup_s``), then
serves the whole trace repeatedly for at least ``--seconds`` host seconds
(and at least three serves) and reports the end-to-end metrics: host
requests/sec as the median over serves, host times in reference seconds
(``perfbench/calibration.py``), the modelled (device-clock) numbers of the
first serve, which every later serve must repeat bit for bit.
``--trace 1`` serves once untraced and once with every layer's public calls
wrapped (``perfbench/layers.py``) and reports the per-layer metrics.

Before any workload runs, the paper's nine headline claims are recomputed;
if one drifted the command refuses to report.  Output checks run outside the
timed region; a failed check prints ``"correct": false`` and exits 1.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: BLAS thread pools are pinned to one thread (before numpy loads) so the
#: functional executor's host time does not depend on idle cores.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Fewest set-ups per run, and the least set-up wall they must add up to;
#: ``setup_s`` is their median.
MIN_SETUPS = 7
MIN_SETUP_S = 3.0
#: Fewest timed serves per run, whatever ``--seconds`` says.
MIN_SERVES = 3


def metric_units(key: str) -> "dict[str, str]":
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[key]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def git_sha() -> str:
    """The checkout's commit, or ``"unknown"`` outside a git repository."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        completed = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return completed.stdout.strip() or "unknown"


def manifest(args, workload) -> dict:
    """What a result needs to describe itself."""
    import numpy as np

    return {
        "workload": workload.name,
        "why": workload.why,
        "params": workload.params,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, seed: int, seconds: float):
    """Median set-up, timed serves, checks: ``(metrics, attempted, failed, notes)``."""
    from perfbench.calibration import REFERENCE_S, calibrate

    # Every measured stretch is bracketed by calibrations; its wall is
    # rescaled to reference seconds by the mean of the two around it.
    calibrations = [calibrate()]

    def to_reference(wall: float) -> float:
        return wall * REFERENCE_S / statistics.mean(calibrations[-2:])

    setup_walls, setups = [], []
    prepared = None
    while len(setup_walls) < MIN_SETUPS or sum(setup_walls) < MIN_SETUP_S:
        prepared = None  # free the previous set-up before timing the next
        gc.collect()
        start = time.perf_counter()
        prepared = workload.setup(seed)
        setup_walls.append(time.perf_counter() - start)
        calibrations.append(calibrate())
        setups.append(to_reference(setup_walls[-1]))
    requests = len(prepared.requests)
    first, walls, rates, failed, notes = None, [], [], 0, []
    while len(walls) < MIN_SERVES or sum(walls) < seconds:
        gc.collect()
        served = workload.serve(prepared)
        calibrations.append(calibrate())
        walls.append(served.wall_s)
        rates.append(requests / to_reference(served.wall_s))
        if first is None:
            first = served
        else:
            repeat_failed, repeat_notes = workload.check_repeat(first, served)
            failed += repeat_failed
            notes += repeat_notes
    checked_failed, checked_notes = workload.check(prepared, first)
    failed += checked_failed
    notes += checked_notes
    notes.append(
        f"set-up walls {', '.join(f'{wall:.3f}' for wall in setup_walls)} s; "
        f"{len(walls)} serves of {requests} requests: "
        f"{', '.join(f'{wall:.3f}' for wall in walls)} s"
    )
    notes.append(
        f"calibrations {', '.join(f'{wall:.3f}' for wall in calibrations)} s "
        f"(reference {REFERENCE_S} s); unscaled: set-up "
        f"{statistics.median(setup_walls):.4f} s, "
        f"{statistics.median(requests / wall for wall in walls):.2f} req/s"
    )
    metrics = {
        "setup_s": statistics.median(setups),
        "host_req_per_s": statistics.median(rates),
        "peak_rss_mb": peak_rss_mib(),
        **workload.model_metrics(first),
    }
    return metrics, requests * len(walls), failed, notes


def per_layer(workload, seed: int):
    """One untraced and one traced serve: ``(metrics, attempted, failed, notes)``."""
    from perfbench import layers
    from perfbench.tracer import Tracer

    prepared = workload.setup(seed)
    gc.collect()
    untraced = workload.serve(prepared)
    prepared = None
    tracer = Tracer()
    with layers.module_spans(tracer):
        prepared = tracer.run(layers.SETUP, workload.setup, seed, tracer)
        setup_spans = tracer.take()
        gc.collect()
        traced = workload.serve(prepared, tracer)
        serve_spans = tracer.take()
    failed, notes = workload.check_repeat(untraced, traced)
    checked_failed, checked_notes = workload.check(prepared, traced)
    metrics = layers.per_layer_metrics(
        setup_spans, serve_spans, traced.result, traced.wall_s, untraced.wall_s
    )
    notes += checked_notes
    notes.append(
        f"untraced serve {untraced.wall_s:.3f} s, traced serve {traced.wall_s:.3f} s; "
        "span self times (s): "
        + ", ".join(
            f"{name} {span.self_s:.4f}"
            for name, span in sorted(serve_spans.items(), key=lambda item: -item[1].self_ns)
            if span.calls
        )
    )
    return metrics, 2 * len(prepared.requests), failed + checked_failed, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    for name in BLAS_THREAD_VARIABLES:
        os.environ.setdefault(name, "1")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.claims import check_paper_claims
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    lines, drifted = check_paper_claims()
    print("paper claims (paper vs model):")
    for line in lines:
        print("  " + line)
    if drifted:
        print(f"error: paper claims drifted from their pinned values: {drifted}", file=sys.stderr)
        return 3

    if args.trace:
        metrics, attempted, failed, notes = per_layer(workload, args.seed)
        units = metric_units("per_layer")
    else:
        metrics, attempted, failed, notes = end_to_end(workload, args.seed, args.seconds)
        units = metric_units("end_to_end")
    if set(metrics) != set(units):
        print(f"error: measured metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 2
    correct = failed == 0
    print(f"workload {workload.name}, seed {args.seed}:")
    for note in notes:
        print("  " + note)
    for name, unit in units.items():
        print(f"  {name:<44} {metrics[name]:>16.6g} {unit}")
    print(f"  {'failed_share':<44} {failed / attempted:>16.6g} ratio ({failed}/{attempted})")
    print("manifest " + json.dumps(manifest(args, workload), sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
