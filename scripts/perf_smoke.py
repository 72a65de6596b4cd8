#!/usr/bin/env python
"""Perf-regression smoke check for the CI gate.

Re-measures ``simulation_event_rate`` (the headline model-layer
benchmark, see docs/PERFORMANCE.md) as delivered flits per host second
and fails when it drops more than ``--tolerance`` (default 25%) below
the most recent entry of the same name *recorded on this host* in
``BENCH_engine.json``.

Flits, not events: the number of engine events per flit is an
implementation detail that optimisations cut on purpose (the delivery
wheel and the core pipeline FIFO cut it ~3.5x), so an events/s gate
would flag a faster build as a regression.  The delivered flits are
fixed by the simulated workload.

This host, not the latest entry: entries carry the host fingerprint
``scripts/bench_report.py`` stamps (CPU model, core count, Python
version and build), and a rate is only comparable with a rate measured
on the same host.  With no entry from this host the check reports that
and passes -- record one with ``scripts/bench_report.py --sim-only``.
The check never *writes* the history, so a slow run cannot silently
lower the bar for the next one.

Opt-out: ``SUPERSIM_SKIP_PERF=1`` skips the check entirely (exit 0).

Usage::

    PYTHONPATH=src python scripts/perf_smoke.py [--rounds N]
                                                [--tolerance FRACTION]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))
sys.path.insert(0, str(REPO_ROOT / "src"))

from bench_report import (  # noqa: E402
    BENCH_FILE,
    _simulation_workloads,
    _timed_simulation,
    host_fingerprint,
)

METRIC = "simulation_event_rate"
RATE = "flits_per_sec"


def latest_recorded_rate(host: dict) -> float | None:
    """``flits_per_sec`` of the newest ``METRIC`` entry from ``host``."""
    if not BENCH_FILE.exists():
        return None
    try:
        history = json.loads(BENCH_FILE.read_text(encoding="utf-8"))["history"]
    except (ValueError, KeyError, OSError):
        return None
    for entry in reversed(history):
        if (entry.get("name") == METRIC and RATE in entry
                and entry.get("host") == host):
            return float(entry[RATE])
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5,
                        help="measurement repetitions, best is kept (default "
                        "5, as bench_report.py records)")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional drop vs the recorded rate "
                        "(default 0.25)")
    args = parser.parse_args()

    if os.environ.get("SUPERSIM_SKIP_PERF", "") not in ("", "0"):
        print("perf_smoke: skipped (SUPERSIM_SKIP_PERF set)")
        return 0
    host = host_fingerprint()
    recorded = latest_recorded_rate(host)
    if recorded is None:
        print(f"perf_smoke: no {METRIC!r} {RATE} entry from this host "
              f"({host['cpu_model']}, {host['nproc']} cores, Python "
              f"{host['python']}) in {BENCH_FILE.name}; nothing to compare "
              "against")
        return 0

    name, config, max_time = next(
        w for w in _simulation_workloads() if w[0] == METRIC
    )
    best, _events, flits = min(
        (_timed_simulation(config, max_time) for _ in range(args.rounds)),
        key=lambda run: run[0],
    )
    rate = flits / best
    floor = recorded * (1.0 - args.tolerance)
    verdict = "OK" if rate >= floor else "REGRESSION"
    print(f"perf_smoke: {name} = {rate:.0f} flits/s (recorded {recorded:.0f} "
          f"on this host, floor {floor:.0f} at -{args.tolerance:.0%}): "
          f"{verdict}")
    if rate < floor:
        print("perf_smoke: the code got slower on the host that recorded "
              "the reference; profile it (scripts/profile_sim.py) before "
              "shipping")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
