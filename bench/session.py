"""One workload in one fresh interpreter: ``bench/run.py`` starts this file.

    python3 bench/session.py --workload NAME --seed N --seconds S --trace 0|1 --setup-samples K
    python3 bench/session.py --workload NAME --ready

The package is imported from ``src/`` and the workload's lazy set-up is done
before any timing.  With ``--ready`` the process stops there; ``run.py``
times such processes for ``setup_s``.  Otherwise rounds of the workload's
ops run in a closed loop (each op starts when the previous one has ended),
and one JSON summary is printed as the last line of standard output.
Untraced runs sample the machine's speed while the ops run (``speed.py``)
and report op times in reference units as well as in seconds.  The
loop stops after the first round that ends within half a round of
``--seconds``, so a run lasts ``--seconds`` give or take half a round.
With ``--trace 1`` every round runs twice on the same inputs, untraced and
then traced, and the summary carries the per-layer metrics of the traced
rounds and the tracing overhead.

Between ops the process asks ``run.py`` for the ``K`` set-up samples, spread
evenly over the run: it prints a line ``setup`` and waits for a line on
standard input, sent once ``run.py`` has timed one ``--ready`` process.  A
slow stretch of the machine then lands in a few samples, not in all of them.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import urnwalk
from speed import Samples
from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, reset_caches

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


class SetupSamples:
    """Asks ``run.py`` for ``count`` set-up samples, spread over ``seconds`` of ops.

    The clock of the run stops, and so does ``probe``, while a sample is
    being taken.
    """

    def __init__(self, count: int, seconds: float, probe: Samples | None) -> None:
        self.count, self.seconds, self.probe = count, seconds, probe
        self.taken = 0
        self.began = time.perf_counter()
        self.paused = 0.0

    def elapsed(self) -> float:
        return time.perf_counter() - self.began - self.paused

    def take(self, due: int) -> None:
        while self.taken < min(due, self.count):
            started = time.perf_counter()
            with _paused(self.probe):
                print("setup", flush=True)
                if not sys.stdin.readline():
                    raise RuntimeError("run.py closed the set-up channel")
            self.paused += time.perf_counter() - started
            self.taken += 1

    def at_op_boundary(self) -> None:
        share = min(1.0, self.elapsed() / self.seconds)
        self.take(1 + int(share * (self.count - 1)))


def _paused(probe: Samples | None):
    return contextlib.nullcontext() if probe is None else probe.off()


def _run_round(ops, records, samples: SetupSamples, probe=None, tracer=None) -> float:
    """Run and then check each op in turn; returns the round's summed op time.

    An op's time leaves out what ``probe`` took from the workload process
    during it.  An op that runs in worker processes runs with ``probe`` off,
    so that the probe does not take a core from a worker; its time is
    normalised by the samples nearest to it.
    """
    wall = 0.0
    for op in ops:
        samples.at_op_boundary()
        reset_caches()
        tracing = contextlib.nullcontext()
        if tracer is not None:
            tracer.op = len(records)
            tracing = tracer.installed()
        with tracing, _paused(probe if op.parallel else None):
            spent = probe.spent if probe is not None else 0.0
            started = time.perf_counter()
            try:
                output, error = op.run(), None
            except Exception as exc:  # an op that raises is a counted outcome
                output, error = None, exc
            ended = time.perf_counter()
            seconds = ended - started - ((probe.spent - spent) if probe is not None else 0.0)
        wall += seconds
        record = {
            "kind": op.kind,
            "seconds": seconds,
            "span": (started, ended),
            "error": None,
            "failed": False,
        }
        if error is not None:
            record["error"] = type(error).__name__
            if op.known_defect is None or not isinstance(error, op.known_defect):
                record["failed"] = True
                print(f"{op.kind}: raised {error!r}", file=sys.stderr)
        else:
            try:
                record.update(op.check(output))
            except Exception as exc:  # a check that cannot run is a failed check
                record["failed"] = True
                print(f"{op.kind}: check failed: {exc!r}", file=sys.stderr)
        records.append(record)
    return wall


def _kind_means(records, key: str) -> dict[str, float]:
    """Mean latency of each kind of op (one command at one size) over the run."""
    by_kind: dict[str, list[float]] = {}
    for r in records:
        by_kind.setdefault(r["kind"], []).append(r[key])
    return {kind: statistics.fmean(values) for kind, values in by_kind.items()}


def _latencies(records, key: str, rounds: int) -> dict:
    """``wall``, ``op_p50`` and ``op_max`` of ``records`` in the unit of ``key``.

    ``wall`` is the mean summed time of a round.  ``op_p50`` and ``op_max``
    are the median and largest latency over the ops, where each op counts
    at its kind's mean over the run.
    """
    means = _kind_means(records, key)
    latencies = [means[r["kind"]] for r in records]
    return {
        "wall": sum(r[key] for r in records) / rounds,
        "op_p50": statistics.median(latencies),
        "op_max": max(latencies),
        "by_kind": means,
    }


def _rate(records, kind: str, key: str) -> float:
    chosen = [r for r in records if r["kind"] == kind and not r["failed"]]
    seconds = sum(r["seconds"] for r in chosen)
    return sum(r.get(key, 0) for r in chosen) / seconds if seconds else 0.0


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-samples", type=int, default=0)
    parser.add_argument("--ready", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    workload.warm()
    if args.ready:
        print("ready")
        return 0

    tracer = Tracer(urnwalk) if args.trace else None
    probe = None if args.trace else workload.probe()

    records: list[dict] = []
    traced_records: list[dict] = []
    walls: list[float] = []
    traced_walls: list[float] = []
    samples = SetupSamples(args.setup_samples, args.seconds, probe)
    index = 0
    with contextlib.nullcontext() if probe is None else probe.on():
        while True:
            label = f"{args.seed}/{args.workload}/{index}"
            ops = workload.round(random.Random(label))
            walls.append(_run_round(ops, records, samples, probe))
            if tracer is not None:
                ops = workload.round(random.Random(label))
                traced_walls.append(_run_round(ops, traced_records, samples, None, tracer))
            index += 1
            if samples.elapsed() * (1 + 0.5 / index) >= args.seconds:
                break
        samples.take(samples.count)

    all_records = records + traced_records
    errors = Counter(r["error"] for r in all_records if r["error"] is not None)
    seconds = _latencies(records, "seconds", index)
    summary = {
        "rounds": index,
        "attempted": len(all_records),
        "failed": sum(r["failed"] for r in all_records),
        "unsuccessful": sum(r["failed"] or r["error"] is not None for r in all_records),
        "errors": errors,
        "walls": walls,
        "wall_s": seconds["wall"],
        "op_p50_s": seconds["op_p50"],
        "op_max_s": seconds["op_max"],
        "ops": len(records),
        "op_mean_by_kind": seconds["by_kind"],
        "peak_rss_mb": _peak_rss_mb(),
        "mc_steps_per_s": _rate(records, "mc long", "steps"),
        "mc_reps_per_s": _rate(records, "mc short", "reps"),
    }
    if probe is not None:
        for r in records:
            r["ref"] = probe.in_reference_units(r["seconds"], *r["span"])
        ref = _latencies(records, "ref", index)
        summary.update(
            wall_ref=ref["wall"],
            op_p50_ref=ref["op_p50"],
            op_max_ref=ref["op_max"],
            op_ref_by_kind=ref["by_kind"],
            reference_ms=1000 * statistics.median(probe.durations),
            reference_samples=len(probe.durations),
        )
    if tracer is not None:
        summary["layers"] = layer_metrics(tracer.spans, len(traced_walls), tracer.functions)
        summary["trace_overhead_s"] = statistics.fmean(traced_walls) - summary["wall_s"]
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
