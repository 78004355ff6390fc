"""Session-level benchmark of the hybrid-store database.

Run from the root of a source checkout::

    python3 sessionbench/run.py --workload oltp_point --seed 1 --seconds 15 --trace 0

``--workload`` is one of ``oltp_point``, ``olap_reports``, ``hybrid_advised``
(see ``sessionbench/README.md``).  The program is imported from ``src/`` of
the current directory; without it the benchmark exits with code 2.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
workload untraced in a child process, then traced in this one, and prints
the per-layer metrics plus the tracing overhead (untraced over traced
``ops_per_s``).  The last line of standard output is always one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it are the human-readable report.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from statistics import median
from typing import Dict, List, Optional, Sequence

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
#: Scratch space for WAL files, inside the checkout (ignored by git).
WORKDIR = ".sessionbench"
CHILD_TIMEOUT_S = 170

#: (name, unit) of the end-to-end metrics every workload reports.
#: ``ops_per_s`` is the median over this many consecutive slices of the
#: loop, so a burst of load from outside the process moves at most one.
RATE_SLICES = 5

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_iqm_us", "us"),
    ("latency_p90_us", "us"),
    ("peak_rss_mb", "MB"),
)


def percentile(samples_ns: Sequence[int], q: float) -> float:
    return float(np.percentile(np.asarray(samples_ns, dtype=np.float64), q))


def interquartile_mean(samples_ns: Sequence[int]) -> float:
    """The mean of the middle half of the samples.

    Statement latencies are multi-modal (in oltp_point a select that follows
    a write re-checksums the changed column and takes ~10x one that does
    not), so a percentile can sit in the gap between two modes and jump
    with small shifts of the mix.  A trimmed mean moves smoothly with the
    mix and, unlike the plain mean, leaves out the merge and fsync tails
    that ``latency_p90_us`` covers.
    """
    values = np.sort(np.asarray(samples_ns, dtype=np.float64))
    quarter = len(values) // 4
    return float(values[quarter:len(values) - quarter].mean())


def _git_commit() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    try:
        with open(os.path.join(".git", "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref)) as handle:
                return handle.read().strip()
        with open(os.path.join(".git", "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (no .git)"


def _kind_metrics(samples: Dict[str, List[int]]) -> List[tuple]:
    """The per-statement-kind percentiles of the report, with sample counts."""
    rows = []
    for kind, name, q, scale, unit in (
        ("select", "point_select_p50_us", 50, 1e3, "us"),
        ("select", "point_select_p99_us", 99, 1e3, "us"),
        ("update", "point_update_p50_us", 50, 1e3, "us"),
        ("update", "point_update_p99_us", 99, 1e3, "us"),
        ("insert", "insert_p50_us", 50, 1e3, "us"),
        ("report", "report_p50_ms", 50, 1e6, "ms"),
        ("report", "report_p90_ms", 90, 1e6, "ms"),
    ):
        if samples.get(kind):
            count = len(samples[kind])
            rows.append((name, percentile(samples[kind], q) / scale, unit,
                         f"p{q} of {count} samples, {count * (100 - q) / 100:.0f} beyond"))
    return rows


def end_to_end(outcome) -> Dict[str, float]:
    everything = outcome.recorder.timeline
    # Statements over the time spent inside the program's calls; the
    # benchmark's own checking between statements is not counted.
    step = len(everything) / RATE_SLICES
    slices = [everything[round(i * step):round((i + 1) * step)]
              for i in range(RATE_SLICES)]
    return {
        "setup_s": median(outcome.setup_s),
        "ops_per_s": median(len(part) / (sum(part) / 1e9) for part in slices),
        "latency_iqm_us": interquartile_mean(everything) / 1e3,
        "latency_p90_us": percentile(everything, 90) / 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _print_report(args, outcome, metrics: Dict[str, float], units: Dict[str, str]) -> None:
    recorder = outcome.recorder
    everything = recorder.loop_ops
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
        "clients": "1 (closed loop, one thread)",
        **outcome.info,
        "loop_s": round(outcome.phases["loop_s"], 3),
        "samples": {kind: len(values) for kind, values in recorder.samples.items()},
        "latency_samples": everything,
        "setup_runs_s": [round(value, 4) for value in outcome.setup_s],
    }
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    if args.trace == 0:
        print(f"metric latency_iqm_us: mean of the middle {everything - 2 * (everything // 4)} "
              f"of {everything} samples")
        print(f"metric latency_p90_us: p90 of {everything} samples, "
              f"{everything // 10} beyond")
        for name, value, unit, note in _kind_metrics(recorder.samples):
            print(f"metric {name} = {value:.6g} {unit} ({note})")
        for phase in ("advise_s", "recover_s"):
            if phase in outcome.phases:
                print(f"metric {phase} = {outcome.phases[phase]:.6g} s")
    error_rate = recorder.failed / max(1, recorder.attempted)
    print(f"metric error_rate = {error_rate:.6g} fraction "
          f"({recorder.failed} of {recorder.attempted} statements)")
    for error in recorder.errors:
        print(f"error {error}")
    print("check " + json.dumps(outcome.checks, sort_keys=True, default=str))


def _run_untraced_child(args) -> Optional[dict]:
    """Run the workload untraced in a fresh process; its final JSON line."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0"]
    if args.tiny:
        command.append("--tiny")
    # The child leads a process group of its own, so a timeout stops the
    # processes it started as well.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True, start_new_session=True)
    try:
        stdout, stderr = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        sys.stderr.write("sessionbench: the untraced run timed out\n")
        return None
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        sys.stderr.write(stderr)
        return None
    return json.loads(lines[-1])


def _child_pids() -> List[int]:
    """Processes whose parent is this one (Linux ``/proc``; empty elsewhere)."""
    me = os.getpid()
    try:
        with open(f"/proc/{me}/task/{me}/children") as handle:
            return [int(pid) for pid in handle.read().split()]
    except OSError:
        return []


def _stop_helper_processes() -> None:
    """Stop every process the program started and wait until each has ended.

    ``Session.close()`` already joins the shard workers.  What outlives it
    is multiprocessing's resource tracker, which the first shared-memory
    segment starts and which would otherwise run on after this process.
    """
    from repro.engine.shard import audit_shared_segments, shutdown_worker_pool

    shutdown_worker_pool()
    audit_shared_segments()
    for process in multiprocessing.active_children():
        process.join(timeout=5.0)
        if process.is_alive():
            process.kill()
            process.join()
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    # Anything else still here gets a grace period, then is killed; every
    # child is reaped.
    deadline = time.monotonic() + 10.0
    while _child_pids():
        late = time.monotonic() >= deadline
        for pid in _child_pids():
            try:
                if late:
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0 if late else os.WNOHANG)
            except (ProcessLookupError, ChildProcessError):
                pass
        time.sleep(0.05)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("oltp_point", "olap_reports", "hybrid_advised"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny tables and sample floors (for the smoke test)")
    args = parser.parse_args(argv)
    # A terminated run still stops the processes it started (see below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not os.path.isdir(os.path.join("src", "repro")):
        sys.stderr.write("sessionbench: run from a checkout root with src/repro\n")
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    sys.path.insert(0, HERE)
    import tracing
    import workloads

    untraced = None
    if args.trace:
        untraced = _run_untraced_child(args)
        if untraced is None:
            sys.stderr.write("sessionbench: the untraced run failed\n")
            return 1
    size = (workloads.TINY if args.tiny else workloads.SIZES)[args.workload]
    os.makedirs(WORKDIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR)
    try:
        tracer = tracing.Tracer() if args.trace else workloads.NoTracer()
        with tracer:
            outcome = workloads.WORKLOADS[args.workload](
                args.seed, args.seconds, size, tracer, workdir)
    finally:
        _stop_helper_processes()
        shutil.rmtree(workdir, ignore_errors=True)

    recorder = outcome.recorder
    e2e = end_to_end(outcome)
    if args.trace:
        overhead = untraced["metrics"]["ops_per_s"]["value"] / e2e["ops_per_s"]
        metrics = tracing.layer_metrics(tracer, outcome, overhead)
        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
        print(f"trace overhead: untraced {untraced['metrics']['ops_per_s']['value']:.6g} "
              f"ops/s, traced {e2e['ops_per_s']:.6g} ops/s")
        attempted = recorder.attempted + untraced["attempted"]
        failed = recorder.failed + untraced["failed"]
        correct = failed == 0 and untraced["correct"]
    else:
        metrics, units = e2e, dict(END_TO_END)
        attempted, failed, correct = recorder.attempted, recorder.failed, recorder.failed == 0
    _print_report(args, outcome, metrics, units)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
