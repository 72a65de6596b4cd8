"""Record the pinned outputs that the benchmark checks at the default seed.

    python3 perfbench/pin_goldens.py

Runs every single-process workload once at ``DEFAULT_SEED`` and writes
its delivery digest and run summary (sweep: per point) to
``perfbench/goldens.json``.  Re-pin only in a change that explains why
the simulated behaviour moved; the sharded workload is checked against
the single-process golden of the same configuration.
"""

from __future__ import annotations

import json
import sys

from run import HERE, spawn

from perfbench.workloads import DEFAULT_SEED


def main() -> int:
    goldens = {}
    for workload in ("torus_iq_dor", "clos_oq_adaptive", "torus_load_sweep"):
        output = spawn(workload, DEFAULT_SEED, "plain", timeout=170.0)
        if "points" in output:
            goldens[workload] = {
                job_id: {"digest": p["digest"], "summary": p["summary"]}
                for job_id, p in output["points"].items()
            }
        else:
            goldens[workload] = {"digest": output["digest"],
                                 "summary": output["summary"]}
    path = HERE / "goldens.json"
    path.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
