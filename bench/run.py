"""Benchmark of the urnwalk verification routes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is imported from ``src/``.
Each run starts fresh interpreters with ``URNWALK_ORACLE_BUDGET`` unset:

* one that runs the workload (``bench/session.py``) for ``--seconds``;
* with ``--trace 0``, several that only import the package and do the
  workload's lazy set-up, timed from start to exit; their median is
  ``setup_s``.  They run one at a time, at moments spread over the
  workload's run, while the workload process waits between two ops.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics, with ``--trace 1`` one with the per-layer metrics
and the tracing overhead.  The metric names and units are read from
``BENCHMARK.json``; the lines before the JSON repeat the metrics for a
reader, with sample counts and the ops that raised.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("oracle-ladder", "verify-grid", "montecarlo", "formulas-large-m")
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 170


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "URNWALK_ORACLE_BUDGET"}
    env["PYTHONPATH"] = str(SRC)
    return env


def _ready_seconds(workload: str) -> float:
    """Time from a fresh interpreter to a package ready for the workload.

    The wait blocks until the child exits: a wait with a timeout polls, in
    steps of up to 50 ms, which would show in the sample.  A timer kills a
    child that takes too long.
    """
    started = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "session.py"), "--workload", workload, "--ready"],
        env=_env(),
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
    ) as proc:
        watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            proc.wait()
        finally:
            watchdog.cancel()
    seconds = time.perf_counter() - started
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, proc.args)
    return seconds


def _session(args: list[str], workload: str, timeout: float) -> tuple[str, list[float]]:
    """Run ``session.py`` in its own process group, serving its set-up requests.

    Returns the session's last line of standard output and the set-up
    samples taken.  On a timeout the whole group goes, Monte Carlo workers
    included.
    """
    samples: list[float] = []
    last = ""
    with subprocess.Popen(
        [sys.executable, str(HERE / "session.py"), *args],
        env=_env(),
        cwd=ROOT,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    ) as proc:
        watchdog = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            for line in proc.stdout:
                if line == "setup\n":
                    samples.append(_ready_seconds(workload))
                    proc.stdin.write("\n")
                    proc.stdin.flush()
                elif line.strip():
                    last = line
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, proc.args)
    return last, samples


def _units() -> dict[str, dict[str, str]]:
    """``end_to_end`` and ``per_layer``: metric name -> unit, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        group: {m["name"]: m["unit"] for m in spec[group]}
        for group in ("end_to_end", "per_layer")
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "urnwalk" / "__init__.py").is_file():
        print(f"error: no urnwalk package under {SRC}", file=sys.stderr)
        return 2
    units = _units()

    last, setup_samples = _session(
        [
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--setup-samples", str(0 if args.trace else SETUP_SAMPLES),
        ],
        args.workload,
        RUN_TIMEOUT_S,
    )
    summary = json.loads(last)

    attempted, failed = summary["attempted"], summary["failed"]
    failed_frac = summary["unsuccessful"] / attempted
    errors = ", ".join(f"{name} x{count}" for name, count in sorted(summary["errors"].items()))
    print(f"workload {args.workload}  seed {args.seed}  rounds {summary['rounds']}  "
          "round seconds " + " ".join(f"{w:.3f}" for w in summary["walls"]))
    print(f"failed_frac {failed_frac:.6g}  ({summary['unsuccessful']} of {attempted} ops raised"
          " or failed their check" + (f"; raised: {errors}" if errors else "")
          + f"; {failed} outside the documented defect)")
    if args.trace:
        values = dict(summary["layers"])
        values["trace.overhead_s"] = summary["trace_overhead_s"]
        values["wall_s"] = summary["wall_s"]
        values["failed_frac"] = failed_frac
        values["mc_steps_per_s"] = summary["mc_steps_per_s"]
        values["mc_reps_per_s"] = summary["mc_reps_per_s"]
        group = "per_layer"
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_ref": summary["wall_ref"],
            "op_p50_ref": summary["op_p50_ref"],
            "op_max_ref": summary["op_max_ref"],
            "peak_rss_mb": summary["peak_rss_mb"],
        }
        group = "end_to_end"
        print("setup_s samples " + " ".join(f"{s:.3f}" for s in setup_samples))
        print(f"reference task: median {summary['reference_ms']:.3f} ms"
              f" over {summary['reference_samples']} samples")
        print(f"in seconds: wall_s {summary['wall_s']:.4f}  op_p50_s {summary['op_p50_s']:.4f}"
              f"  op_max_s {summary['op_max_s']:.4f}")
        print(f"op_p50 and op_max over {summary['ops']} ops, each at its kind's mean")
        for kind, seconds in summary["op_mean_by_kind"].items():
            ref = summary["op_ref_by_kind"][kind]
            print(f"  op {kind}: mean {seconds:.4f} s, {ref:.1f} ref")
        if args.workload == "montecarlo":
            print(f"mc_steps_per_s {summary['mc_steps_per_s']:.6g} 1/s  (long-walk plan)")
            print(f"mc_reps_per_s {summary['mc_reps_per_s']:.6g} 1/s  (short-walk plan)")
    if args.trace:
        # A counter no call of this run recorded is 0.  Any other missing
        # name is a metric the tracer does not make.
        known = {name.rsplit(".", 1)[0] for name in values} | {n.split(".")[0] for n in values}
        for name in units[group]:
            if name not in values and name.rsplit(".", 1)[0] not in known:
                raise KeyError(f"the traced run makes no metric {name}")
        values = {name: values.get(name, 0.0) for name in units[group]}
    metrics = {name: _metric(values[name], unit) for name, unit in units[group].items()}
    for name, entry in metrics.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
