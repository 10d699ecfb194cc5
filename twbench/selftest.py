"""Self-test of the benchmark.

Usage (from the root of a checkout)::

    python3 twbench/selftest.py

Checks that ``BENCHMARK.json`` declares what the code measures, that
the comparators count every kind of tampering (a missing,
extra, altered or misordered event) as failed, that a tiny run of each
workload passes its own checks and prints every end-to-end metric, that
a traced run prints every per-layer metric, and that the benchmark
refuses to run, printing no result, where the program's source is
absent.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from common import END_TO_END, ROOT, WORK, multiset_failures, ordered_failures
from layers import PER_LAYER
from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def check(condition: bool, what: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {what}", flush=True)
    if not condition:
        sys.exit(1)


def comparators() -> None:
    log = [("s0", "q1", 1, 4, (1.5).hex(), 6), ("s0", "q2", 3, 9, (0.25).hex(), 11),
           ("s1", "q1", 2, 5, (1.0).hex(), 7), ("s1", "q3", 8, 12, (2.0).hex(), 14)]
    altered = list(log)
    altered[1] = ("s0", "q2", 3, 9, (0.2500001).hex(), 11)
    cases = {
        "missing": log[:2] + log[3:],
        "extra": log + [log[0]],
        "altered": altered,
        "misordered": [log[1], log[0]] + log[2:],
    }
    check(ordered_failures(log, list(log)) == 0, "ordered comparator: equal logs pass")
    check(multiset_failures(log, list(reversed(log))) == 0,
          "multiset comparator: reordering alone passes")
    for name, tampered in cases.items():
        check(ordered_failures(log, tampered) >= 1,
              f"ordered comparator: a {name} event counts as failed")
        if name != "misordered":
            check(multiset_failures(log, tampered) >= 1,
                  f"multiset comparator: a {name} event counts as failed")
    lines = [b'{"seq":1,"type":"event"}\n', b'{"seq":2,"type":"event"}\n']
    check(ordered_failures(lines, [lines[0], b'{"seq":2,"type":"event"} \n']) == 1,
          "byte comparator counts an altered event line as failed")


def declared() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in bench["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json names the workloads run.py runs")
    for key, names in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        check({m["name"]: m["unit"] for m in bench[key]} == names,
              f"BENCHMARK.json {key} metrics and units match the code")


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, cwd=ROOT, timeout=600)


def tiny_runs() -> None:
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            if trace == "1" and workload != "monitor-lowsel":
                continue
            done = run(str(HERE / "run.py"), "--workload", workload,
                       "--seed", "7", "--seconds", "1", "--trace", trace)
            check(done.returncode == 0,
                  f"{workload} trace {trace}: exits 0 {done.stderr[-500:]}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{workload}: result keys")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] > 0,
                  f"{workload}: no failed operation "
                  f"({result['failed']}/{result['attempted']})")
            names = PER_LAYER if trace == "1" else END_TO_END
            check(set(result["metrics"]) == set(names)
                  and all(result["metrics"][k]["unit"] == names[k] for k in names),
                  f"{workload} trace {trace}: every metric with its unit")
            if trace == "0":
                check(all(m["value"] > 0 for m in result["metrics"].values()),
                      f"{workload}: every end-to-end metric is positive")


def refuses_without_source() -> None:
    bare = WORK / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    check(done.returncode != 0 and not done.stdout.strip(),
          "without src/ the benchmark exits non-zero and prints no result")


if __name__ == "__main__":
    declared()
    comparators()
    refuses_without_source()
    tiny_runs()
    print("selftest passed")
