"""Workload inputs, generated from the workload seed.

Each function returns plain values (configs, request bodies) and is the
whole of a workload's set-up besides imports, so ``coldstart.py`` and
``workloads.py`` build identical inputs.  ``tiny`` sizes exist for the
self-test only.
"""

from __future__ import annotations

from typing import Dict, List

from repro.config import SimulationConfig, TraceConfig, paper_cluster_config
from repro.core.policies import SCHEDULER_NAMES as POLICIES

#: Modules each batch workload's operation imports lazily on first use;
#: set-up imports them so ``setup_s`` carries the whole import cost.
IMPORTS = {
    "gv-sweep": ("repro.api", "repro.kernel.planned", "repro.kernel.stepped",
                 "repro.checks.sanitizer"),
    "policy-compare": ("repro.api", "repro.kernel.planned",
                       "repro.kernel.stepped", "repro.checks.sanitizer"),
    "live-mpc": ("repro.api", "repro.live", "repro.kernel.stepped",
                 "repro.checks.sanitizer", "repro.state"),
}


def gv_sweep(seed: int, size: str) -> Dict[str, object]:
    """``api.sweep`` keywords, plus the per-GV configs it will build."""
    full = size == "full"
    kwargs = {"grouping_values": (14.0, 22.0, 30.0, 36.0) if full
              else (14.0, 36.0),
              "policies": ("vmt-ta",), "num_servers": 100 if full else 8,
              "seed": seed, "backend": "fast", "max_workers": 1}
    configs = {gv: paper_cluster_config(num_servers=kwargs["num_servers"],
                                        grouping_value=gv, seed=seed)
               for gv in kwargs["grouping_values"]}
    return {"kwargs": kwargs, "configs": configs,
            "baseline": paper_cluster_config(
                num_servers=kwargs["num_servers"], seed=seed)}


def policy_compare(seed: int, size: str) -> Dict[str, object]:
    """``api.compare`` keywords for all five policies at GV 22."""
    config = paper_cluster_config(
        num_servers=100 if size == "full" else 8, grouping_value=22.0,
        seed=seed)
    if size != "full":
        config = config.replace(trace=TraceConfig(duration_hours=6.0))
    return {"kwargs": {"policies": POLICIES, "config": config,
                       "backend": "fast", "max_workers": 1},
            "config": config}


def serve_runs(seed: int, size: str) -> Dict[str, object]:
    """Distinct ``POST /v1/runs`` bodies: 5 policies x consecutive seeds."""
    full = size == "full"
    hours = 2.0 if full else 1.0
    seeds = range(seed, seed + (4 if full else 2))
    requests: List[Dict[str, object]] = [
        {"policy": policy, "num_servers": 8, "seed": s,
         "duration_hours": hours}
        for s in seeds for policy in POLICIES]
    return {"requests": requests,
            "ticks": TraceConfig(duration_hours=hours).num_steps}


def serve_config(request: Dict[str, object]) -> SimulationConfig:
    """The config the server builds for a run request (no other fields)."""
    return paper_cluster_config(
        num_servers=request["num_servers"], seed=request["seed"]).replace(
            trace=TraceConfig(duration_hours=request["duration_hours"]))


def live_mpc(seed: int, size: str) -> Dict[str, object]:
    """8 servers over a full diurnal cycle (24 h); the gap needs it."""
    hours = 24.0 if size == "full" else 6.0
    config = paper_cluster_config(num_servers=8, seed=seed).replace(
        trace=TraceConfig(duration_hours=hours))
    return {"config": config}


GENERATORS = {"gv-sweep": gv_sweep, "policy-compare": policy_compare,
            "serve-runs": serve_runs, "live-mpc": live_mpc}
