"""Self-test of the benchmark itself, at tiny sizes.

Run from the repository root::

    python3 perfbench/selftest.py

It checks, in about a minute:

* every workload ``BENCHMARK.json`` lists, untraced and traced, exits 0
  and prints as its last line one JSON object whose metrics are exactly
  that file's ``end_to_end`` (untraced) or ``per_layer`` (traced)
  metrics, each with its unit; end-to-end values are positive numbers;
* the correctness gate has teeth: ``policy-compare`` passes when told
  the right fingerprints and fails, exiting 1, when one is wrong;
* in a directory holding only ``BENCHMARK.json`` and the benchmark, the
  command exits non-zero without printing a result.

Exits 0 when every check holds; prints each failed check otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TMP_DIR = os.path.join(ROOT, ".perfbench", f"selftest-{os.getpid()}")


def _run(args: List[str], cwd: str = ROOT):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--seed", "7",
         "--seconds", "1", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


def _metrics_problem(result, expected, positive: bool) -> Optional[str]:
    if result is None:
        return "no JSON result on the last line"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        return (f"correct={result['correct']} attempted="
                f"{result['attempted']} failed={result['failed']}")
    got = result["metrics"]
    if set(got) != {m["name"] for m in expected}:
        return (f"metrics differ from BENCHMARK.json: missing "
                f"{sorted({m['name'] for m in expected} - set(got))}, extra "
                f"{sorted(set(got) - {m['name'] for m in expected})}")
    for metric in expected:
        entry = got[metric["name"]]
        if entry.get("unit") != metric["unit"]:
            return f"{metric['name']} unit {entry.get('unit')!r}"
        value = entry.get("value")
        if not isinstance(value, (int, float)) or (positive and value <= 0):
            return f"{metric['name']} value {value!r}"
    return None


def _tiny_fingerprints():
    sys.path[0:0] = [os.path.join(ROOT, "src"), HERE]
    import inputs
    from repro import api

    kwargs = inputs.policy_compare(7, "tiny")["kwargs"]
    return {p: r.fingerprint() for p, r in api.compare(**kwargs).results.items()}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r") as handle:
        bench = json.load(handle)
    failures = []

    def check(label: str, problem: Optional[str]) -> None:
        print(f"{'ok  ' if problem is None else 'FAIL'} {label}"
              + ("" if problem is None else f": {problem}"), flush=True)
        if problem is not None:
            failures.append(label)

    for workload in bench["workloads"]:
        for trace, expected in (("0", bench["end_to_end"]),
                                ("1", bench["per_layer"])):
            proc, result = _run(["--workload", workload["name"], "--size",
                                 "tiny", "--trace", trace])
            problem = _metrics_problem(result, expected, trace == "0")
            if proc.returncode != 0:
                problem = (f"exit {proc.returncode}: {problem}; "
                           f"{proc.stderr[-300:]}")
            check(f"{workload['name']} --trace {trace}", problem)

    os.makedirs(TMP_DIR, exist_ok=True)
    try:
        fingerprints = _tiny_fingerprints()
        for label, tamper, want_exit in (("right", False, 0),
                                         ("wrong", True, 1)):
            expect = dict(fingerprints)
            if tamper:
                expect["vmt-ta"] = "0" * len(expect["vmt-ta"])
            path = os.path.join(TMP_DIR, f"{label}.json")
            with open(path, "w") as handle:
                json.dump(expect, handle)
            proc, result = _run(["--workload", "policy-compare", "--size",
                                 "tiny", "--expect-fingerprints", path])
            problem = None
            if proc.returncode != want_exit or result is None or \
                    result["correct"] != (not tamper):
                problem = (f"exit {proc.returncode}, result "
                           f"{None if result is None else result['correct']}")
            elif tamper and result["failed"] < 1:
                problem = "a wrong fingerprint counted no failed operation"
            check(f"policy-compare with the {label} fingerprints", problem)

        bare = os.path.join(TMP_DIR, "bare")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc, result = _run(["--workload", "gv-sweep", "--trace", "0"],
                            cwd=bare)
        check("bare directory exits non-zero without a result",
              None if proc.returncode != 0 and result is None
              else f"exit {proc.returncode}, result {result}")
    finally:
        shutil.rmtree(TMP_DIR, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
