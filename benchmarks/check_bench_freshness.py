"""CI guard: kernel changes must come with a re-measured BENCH_perf.json.

The fast-path kernels exist for one number — the measured speedup in
``BENCH_perf.json`` — so a commit that touches the tick engines while
leaving the benchmark record untouched is either unmeasured or quoting
stale numbers.  This script fails (exit 1) when the last commit
touching the watched performance-critical paths is *newer* than the
last commit touching ``BENCH_perf.json``; "newer" is ancestry, not
timestamps, so rebases and merges behave.

Working-tree state is checked too: locally, uncommitted kernel edits
without an uncommitted ``BENCH_perf.json`` fail the same way.

The check is deliberately tolerant of missing git history (shallow
clones, tarball checkouts): anything that prevents answering the
question exits 0 with a note, because a freshness guard that breaks CI
for infrastructure reasons gets deleted, not fixed.

Run::

    PYTHONPATH=src python benchmarks/check_bench_freshness.py
"""

from __future__ import annotations

import argparse
import subprocess
import sys

#: Paths whose changes invalidate the benchmark record.
WATCHED = (
    "src/repro/kernel",
    "src/repro/perf",
    "src/repro/cluster/simulation.py",
    "src/repro/cluster/metrics.py",
    # BENCH "live" times the MPC racer's shadow runs on the kernels,
    # and the live loop that plans its segments on them.
    "src/repro/live/mpc.py",
    "src/repro/live/runner.py",
    "benchmarks/bench_perf_scaling.py",
)

BENCH = "BENCH_perf.json"

#: How to regenerate the record the watched paths feed.
RERUN = ("Run: PYTHONPATH=src python benchmarks/bench_perf_scaling.py"
         " && PYTHONPATH=src python benchmarks/bench_sanitizer_overhead.py"
         " && PYTHONPATH=src python benchmarks/bench_live_gap.py")


def _git(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *argv], capture_output=True, text=True)


def last_commit(paths) -> str:
    """Hash of the newest commit touching ``paths`` ('' when none)."""
    proc = _git("log", "-1", "--format=%H", "--", *paths)
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr.strip())
    return proc.stdout.strip()


def dirty(paths) -> list:
    """Watched paths with uncommitted (staged or not) modifications."""
    proc = _git("status", "--porcelain", "--", *paths)
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr.strip())
    return [line[3:] for line in proc.stdout.splitlines() if line.strip()]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args()

    if _git("rev-parse", "--git-dir").returncode != 0:
        print("not a git checkout; skipping freshness check")
        return 0
    try:
        kernel_commit = last_commit(WATCHED)
        bench_commit = last_commit([BENCH])
        dirty_kernel = dirty(WATCHED)
        dirty_bench = dirty([BENCH])
    except RuntimeError as exc:
        print(f"git history unavailable ({exc}); skipping freshness check")
        return 0

    if not kernel_commit:
        print("no commits touch the watched perf paths; nothing to check")
        return 0

    if dirty_kernel and not dirty_bench:
        print("STALE: uncommitted changes under the perf-critical paths "
              f"({', '.join(sorted(dirty_kernel)[:5])}) without a "
              f"regenerated {BENCH}.")
        print(RERUN)
        return 1

    if not bench_commit:
        print(f"STALE: the watched perf paths are committed but {BENCH} "
              "never was.")
        return 1

    # Fresh iff the newest kernel-touching commit is an ancestor of (or
    # equal to) the newest bench-touching commit.
    ancestry = _git("merge-base", "--is-ancestor",
                    kernel_commit, bench_commit)
    if ancestry.returncode == 0:
        print(f"fresh: {BENCH} ({bench_commit[:12]}) covers the last "
              f"perf-path change ({kernel_commit[:12]})")
        return 0
    if ancestry.returncode == 1:
        print(f"STALE: perf paths changed in {kernel_commit[:12]} after "
              f"{BENCH} was last regenerated in {bench_commit[:12]}.")
        print(RERUN)
        return 1
    print("git ancestry query failed "
          f"({ancestry.stderr.strip()}); skipping freshness check")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
