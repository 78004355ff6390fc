"""Smoke self-test of the session benchmark at a tiny size.

Run from the root of a source checkout::

    python3 sessionbench/smoke.py

For every workload it runs ``run.py --tiny`` untraced and traced and asserts
that the final JSON line carries exactly the metrics ``BENCHMARK.json`` names,
with their units; that the report prints every metric the workload exercises
with its unit; that the environment header is complete; that no statement
failed (``error_rate`` 0); and that no process it started outlives it.  It also checks that the benchmark refuses to run
in a directory without the program.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))

#: Report metrics (name, unit) each workload exercises, besides the
#: end-to-end ones every workload reports.
EXERCISED = {
    "oltp_point": [("point_select_p50_us", "us"), ("point_select_p99_us", "us"),
                   ("point_update_p50_us", "us"), ("point_update_p99_us", "us"),
                   ("insert_p50_us", "us"), ("recover_s", "s")],
    "olap_reports": [("report_p50_ms", "ms"), ("report_p90_ms", "ms")],
    "hybrid_advised": [("point_select_p50_us", "us"), ("point_select_p99_us", "us"),
                       ("point_update_p50_us", "us"), ("point_update_p99_us", "us"),
                       ("insert_p50_us", "us"), ("report_p50_ms", "ms"),
                       ("report_p90_ms", "ms"), ("advise_s", "s")],
}
ENV_KEYS = ("nproc", "python", "numpy", "commit", "seed", "wal_flush_policy",
            "table_rows_at_start", "samples")


def session_members(session_id: int) -> list:
    """Processes of the session *session_id* (Linux ``/proc``), zombies included."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[3]) == session_id:
            members.append(int(entry))
    return members


def run(workload: str, trace: int, cwd: str = ".") -> subprocess.CompletedProcess:
    """Run the benchmark in a session of its own; assert it leaves no process behind."""
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    child = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             text=True, cwd=cwd, start_new_session=True)
    stdout, stderr = child.communicate(timeout=300)
    leftovers = session_members(child.pid)
    assert not leftovers, (workload, trace, "processes left running", leftovers)
    return subprocess.CompletedProcess(command, child.returncode, stdout, stderr)


def check_run(workload: str, trace: int, declared: dict) -> None:
    completed = run(workload, trace)
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    section = "per_layer" if trace else "end_to_end"
    expected = {metric["name"]: metric["unit"] for metric in declared[section]}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert got == expected, (workload, trace, set(got) ^ set(expected))
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)), metric

    report = "\n".join(lines[:-1])
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    missing = [key for key in ENV_KEYS if key not in env]
    assert not missing, (workload, missing)
    assert re.search(r"^metric error_rate = 0 fraction", report, re.M), report
    if not trace:
        for name, unit in EXERCISED[workload]:
            assert re.search(rf"^metric {name} = \S+ {re.escape(unit)}\b", report, re.M), \
                (workload, name)
    print(f"ok {workload} trace={trace} ({result['attempted']} statements)")


def check_refuses_without_program() -> None:
    os.makedirs(".sessionbench", exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=".sessionbench")
    try:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree(HERE, os.path.join(bare, "sessionbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        completed = run("oltp_point", 0, cwd=bare)
        assert completed.returncode != 0, completed.stdout
        assert not completed.stdout.strip(), completed.stdout
    finally:
        shutil.rmtree(bare)
    print("ok refuses to run without src/repro")


def main() -> int:
    with open("BENCHMARK.json") as handle:
        declared = json.load(handle)
    assert [w["name"] for w in declared["workloads"]] == list(EXERCISED)
    for workload in EXERCISED:
        for trace in (0, 1):
            check_run(workload, trace, declared)
    check_refuses_without_program()
    return 0


if __name__ == "__main__":
    sys.exit(main())
