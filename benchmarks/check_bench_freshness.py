"""CI guard: each BENCH_perf.json section is re-measured after what it times.

Every section of ``BENCH_perf.json`` is written by one script and times
a set of paths (:data:`SECTIONS`).  This script fails (exit 1) when the
last commit touching a section's paths is *newer* than the last commit
that changed that section's value; "newer" is ancestry, not timestamps,
so rebases and merges behave.  A commit that rewrites the file without
re-measuring a section leaves that section's value, and so its age,
where it was.

Working-tree state is checked too: locally, uncommitted edits under a
section's paths fail unless that section's value has uncommitted
changes as well.

The check is deliberately tolerant of missing git history (shallow
clones, tarball checkouts): anything that prevents answering the
question exits 0 with a note, because a freshness guard that breaks CI
for infrastructure reasons gets deleted, not fixed.  A commit whose
parent is missing counts as having changed every section it holds.

Run::

    PYTHONPATH=src python benchmarks/check_bench_freshness.py
"""

from __future__ import annotations

import argparse
import json
import subprocess

BENCH = "BENCH_perf.json"

#: What every section's runs go through: the tick drivers, the segment
#: loop, the schedulers' placement, the cluster's physics stage and the
#: thermal models it runs, the metrics collector and the runner.
KERNEL = (
    "src/repro/core",
    "src/repro/kernel",
    "src/repro/perf",
    "src/repro/cluster/cluster.py",
    "src/repro/cluster/simulation.py",
    "src/repro/cluster/metrics.py",
    "src/repro/thermal",
)

_SCALING = "benchmarks/bench_perf_scaling.py"

#: section -> (the script that writes it, the paths it times).
SECTIONS = {
    "tick_rate": (_SCALING, KERNEL + (_SCALING,)),
    "sweep_points": (_SCALING, KERNEL + (_SCALING,)),
    "sweep": (_SCALING, KERNEL + (_SCALING,)),
    "paper_scale": (_SCALING, KERNEL + (_SCALING,)),
    "sanitizer_overhead": (
        "benchmarks/bench_sanitizer_overhead.py",
        KERNEL + ("src/repro/checks",
                  "benchmarks/bench_sanitizer_overhead.py")),
    "checkpoint": (
        "benchmarks/bench_checkpoint.py",
        KERNEL + ("src/repro/state", "benchmarks/bench_checkpoint.py")),
    # The MPC racer's shadow runs and the live loop that drives them.
    "live": (
        "benchmarks/bench_live_gap.py",
        KERNEL + ("src/repro/live/mpc.py", "src/repro/live/runner.py",
                  "benchmarks/bench_live_gap.py")),
    "fleet": (
        "benchmarks/bench_fleet.py",
        KERNEL + ("src/repro/fleet", "src/repro/cluster/multi.py",
                  "benchmarks/bench_fleet.py")),
}


class GitError(RuntimeError):
    """A git query this check needs failed."""


def _git(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *argv], capture_output=True, text=True)


def _out(*argv: str) -> str:
    proc = _git(*argv)
    if proc.returncode != 0:
        raise GitError(proc.stderr.strip())
    return proc.stdout


def last_commit(paths) -> str:
    """Hash of the newest commit touching ``paths`` ('' when none)."""
    return _out("log", "-1", "--format=%H", "--", *paths).strip()


def dirty(paths) -> list:
    """Paths with uncommitted (staged or not) modifications."""
    return [line[3:] for line in
            _out("status", "--porcelain", "--", *paths).splitlines()
            if line.strip()]


def _sections_at(rev: str):
    """The parsed record at ``rev`` (the working tree when ''), or None
    when it is missing or unreadable there."""
    if rev:
        proc = _git("show", f"{rev}:{BENCH}")
        if proc.returncode != 0:
            return None
        text = proc.stdout
    else:
        try:
            with open(BENCH) as handle:
                text = handle.read()
        except OSError:
            return None
    try:
        record = json.loads(text)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


def section_commits() -> dict:
    """section -> hash of the newest commit that changed its value."""
    found = {}
    for commit in _out("log", "--format=%H", "--", BENCH).split():
        after = _sections_at(commit) or {}
        before = _sections_at(f"{commit}^") or {}
        for name in SECTIONS:
            if (name not in found and name in after
                    and after[name] != before.get(name)):
                found[name] = commit
        if len(found) == len(SECTIONS):
            break
    return found


def stale_sections() -> list:
    """(section, reason) for every section its paths outdate."""
    changed = section_commits()
    head = _sections_at("HEAD") or {}
    tree = _sections_at("") or {}
    stale = []
    for name, (_, paths) in SECTIONS.items():
        if name in tree and tree.get(name) != head.get(name):
            continue  # re-measured in the working tree
        edits = dirty(paths)
        if edits:
            stale.append((name, "uncommitted changes to "
                          f"{', '.join(sorted(edits)[:3])}"))
            continue
        path_commit = last_commit(paths)
        if not path_commit:
            continue
        bench_commit = changed.get(name)
        if bench_commit is None:
            stale.append((name, f"never recorded in {BENCH}"))
            continue
        ancestry = _git("merge-base", "--is-ancestor", path_commit,
                        bench_commit)
        if ancestry.returncode == 1:
            stale.append((name, f"its paths changed in {path_commit[:12]},"
                          f" after its last re-measure in "
                          f"{bench_commit[:12]}"))
        elif ancestry.returncode != 0:
            raise GitError(ancestry.stderr.strip())
    return stale


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args()

    if _git("rev-parse", "--git-dir").returncode != 0:
        print("not a git checkout; skipping freshness check")
        return 0
    try:
        stale = stale_sections()
    except GitError as exc:
        print(f"git history unavailable ({exc}); skipping freshness check")
        return 0
    if not stale:
        print(f"fresh: every {BENCH} section covers the last change to "
              "the paths it times")
        return 0
    for name, reason in stale:
        print(f"STALE: {BENCH} section {name!r}: {reason}.")
    scripts = sorted({SECTIONS[name][0] for name, _ in stale})
    print("Run: " + " && ".join(f"PYTHONPATH=src python {script}"
                                for script in scripts))
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
