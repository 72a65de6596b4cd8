"""The benchmark's four workloads: configurations, runs and output digests.

Every workload is built from the benchmark seed alone: the seed reaches
the program only as ``simulator.seed`` in the generated configuration.
Each ``run_*`` function executes one repetition inside the calling
process and returns plain data -- timestamps taken with ``time.time()``
(so the parent process can measure from the moment it spawned this
one), the output that the parent checks, and the delivered-flit count.
"""

from __future__ import annotations

import hashlib
import time
from typing import Any, Dict, List, Optional

WORKLOADS = (
    "torus_iq_dor",
    "clos_oq_adaptive",
    "torus_load_sweep",
    "clos_sharded_k2",
)

#: the seed the pinned goldens (``goldens.json``) were recorded with.
DEFAULT_SEED = 1

#: offered loads of the load-latency sweep (flits/terminal/cycle).  The
#: torus saturates near 0.63 accepted, so the 0.7 point runs dense.  No
#: point lies further past saturation: at 0.8 the drain time varies
#: 1.6x from seed to seed, which alone moved the sweep's host time by
#: about 15% between seeds.
SWEEP_RATES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
SWEEP_WORKERS = 2
SHARDS = 2

#: safety limit for every simulation; each workload drains long before.
MAX_TIME = 200_000


def torus_config(seed: int, injection_rate: float = 0.3,
                 generate: int = 6000) -> dict:
    """4x4 torus, IQ routers, 2 VCs, DOR, 4-flit uniform-random messages."""
    return {
        "simulator": {"seed": seed},
        "network": {
            "topology": "torus",
            "dimension_widths": [4, 4],
            "concentration": 1,
            "num_vcs": 2,
            "channel_latency": 2,
            "terminal_channel_latency": 1,
            "channel_period": 1,
            "router": {
                "architecture": "input_queued",
                "input_queue_depth": 16,
                "core_latency": 2,
            },
            "interface": {"max_packet_size": 8},
            "routing": {"algorithm": "torus_dimension_order"},
        },
        "workload": {"applications": [{
            "type": "blast",
            "injection_rate": injection_rate,
            "warmup_duration": 300,
            "generate_duration": generate,
            "traffic": {"type": "uniform_random"},
            "message_size": {"type": "constant", "size": 4},
        }]},
    }


def sweep_base_config(seed: int) -> dict:
    """The torus network with a 750-tick window per sweep point."""
    return torus_config(seed, generate=750)


def clos_config(seed: int) -> dict:
    """Case study A scaled down: 3-level folded Clos, OQ, adaptive."""
    from repro.configs import latent_congestion_config

    return latent_congestion_config(
        injection_rate=0.25, warmup=200, window=500, seed=seed
    )


# -- output digests ----------------------------------------------------------


def delivery_digest(records) -> str:
    """SHA-256 over every delivered message, in message-id order.

    Covers the id (relative to the run's first id, so a process that ran
    other simulations first still matches), source, destination, created
    and delivered ticks, and each packet's hop count.
    """
    ordered = sorted(records, key=lambda r: r.message_id)
    base = ordered[0].message_id if ordered else 0
    digest = hashlib.sha256()
    for r in ordered:
        hops = ",".join(str(p.hop_count) for p in r.packets)
        digest.update(
            f"{r.message_id - base} {r.source} {r.destination} "
            f"{r.created_tick} {r.delivered_tick} {hops}\n".encode()
        )
    return digest.hexdigest()


def checked_summary(summary: Dict[str, Any]) -> Dict[str, Any]:
    """The run summary minus the fields a faster engine may change."""
    return {
        key: value for key, value in summary.items()
        if key not in ("events_executed", "partition")
    }


def simulation_output(results) -> Dict[str, Any]:
    """Everything the output check needs from one single-process run.

    Also the sweep's collect hook, so it runs in the sweep's workers.
    """
    records = results.log.records
    return {
        "digest": delivery_digest(records),
        "summary": checked_summary(results.summary()),
        "drained": bool(results.drained),
        "created": sum(a.messages_created for a in results.workload.applications),
        "delivered": len(records),
        "flits": sum(r.num_flits for r in records),
    }


# -- one repetition per workload ---------------------------------------------


def _run_single(config: dict, tracer=None, overrides: List[str] = (),
                setup_only: bool = False) -> Dict[str, Any]:
    from repro import Settings, Simulation

    t0 = time.perf_counter()
    settings = Settings.from_dict(config, overrides=overrides)
    t1 = time.perf_counter()
    simulation = Simulation(settings)
    if tracer is not None:
        tracer.bind(simulation.simulator)
    t_setup = time.time()
    if setup_only:
        return {"t_setup": t_setup}
    if tracer is not None:
        tracer.begin()
    results = simulation.run(max_time=MAX_TIME)
    if tracer is not None:
        tracer.end()
    t_sim_end = time.time()
    t2 = time.perf_counter()
    output = simulation_output(results)
    t_results = time.time()
    output.update(
        t_setup=t_setup,
        t_sim_end=t_sim_end,
        t_results=t_results,
        settings_s=t1 - t0,
        results_s=time.perf_counter() - t2,
        events=simulation.simulator.executed_events,
        flit_hops=sum(r.flits_received for r in simulation.network.routers),
        grants=sum(r.flits_sent for r in simulation.network.routers),
    )
    return output


def run_torus_iq_dor(seed: int, mode: str, tracer=None) -> Dict[str, Any]:
    return _run_single(torus_config(seed), tracer, setup_only=mode == "setup")


def run_clos_oq_adaptive(seed: int, mode: str, tracer=None) -> Dict[str, Any]:
    return _run_single(clos_config(seed), tracer, setup_only=mode == "setup")


def _sweep(seed: int):
    from repro.tools.sssweep import Sweep

    sweep = Sweep(sweep_base_config(seed), name="load",
                  collect=simulation_output, max_time=MAX_TIME)
    sweep.add_variable(
        "InjectionRate", "IR", list(SWEEP_RATES),
        lambda rate: f"workload.applications[0].injection_rate=float={rate}",
    )
    sweep.generate_jobs()
    return sweep


def run_torus_load_sweep(seed: int, mode: str, tracer=None) -> Dict[str, Any]:
    """``plain``: the parallel sweep; ``serial``/``traced``: every point in
    this process, one after another (the base of the sweep efficiency and
    of the per-layer trace)."""
    sweep = _sweep(seed)
    if mode == "setup":
        return {"t_setup": time.time()}
    points: Dict[str, Any] = {}
    if mode == "plain":
        t_setup = time.time()
        sweep.run(workers=SWEEP_WORKERS)
        t_sim_end = time.time()
        for job in sweep.jobs:
            if job.error:
                raise RuntimeError(job.error)
            points[job.job_id] = job.result
    else:
        t_setup = time.time()
        for job in sweep.jobs:
            points[job.job_id] = _run_single(sweep.base_config, tracer,
                                             job.overrides)
        t_sim_end = time.time()
    t_results = time.time()
    totals = {
        key: sum(p.get(key, 0) for p in points.values())
        for key in ("flits", "events", "flit_hops", "grants", "settings_s",
                    "results_s")
    }
    return {
        "points": {
            job_id: {k: p[k] for k in ("digest", "summary", "drained",
                                       "created", "delivered", "flits")}
            for job_id, p in points.items()
        },
        "t_setup": t_setup,
        "t_sim_end": t_sim_end,
        "t_results": t_results,
        **totals,
    }


def run_clos_sharded_k2(seed: int, mode: str, tracer=None) -> Dict[str, Any]:
    from repro import Settings
    from repro.partition import plan_partition
    from repro.partition.runtime import run_sharded, validate_sharded_scope

    config = clos_config(seed)
    t0 = time.perf_counter()
    validate_sharded_scope(config)
    manifest = plan_partition(Settings(config), SHARDS)
    plan_s = time.perf_counter() - t0
    t_setup = time.time()
    if mode == "setup":
        return {"t_setup": t_setup}
    results = run_sharded(config, manifest=manifest, shard_workers=SHARDS)
    t_sim_end = time.time()
    records = results.records
    created = sum(
        counters["messages_created"]
        for counters in results.reports[0]["counters"].values()
    )
    output = {
        "digest": delivery_digest(records),
        "summary": checked_summary(results.summary()),
        "drained": bool(results.drained),
        "created": created,
        "delivered": len(records),
        "flits": sum(r.num_flits for r in records),
        "events": results.events_executed,
        "plan_s": plan_s,
        "windows": results.windows,
        "records": results.records_exchanged,
    }
    output.update(t_setup=t_setup, t_sim_end=t_sim_end, t_results=time.time())
    return output


RUNNERS = {
    "torus_iq_dor": run_torus_iq_dor,
    "clos_oq_adaptive": run_clos_oq_adaptive,
    "torus_load_sweep": run_torus_load_sweep,
    "clos_sharded_k2": run_clos_sharded_k2,
}


# -- output checks -------------------------------------------------------------


def _check_one(name: str, output: dict, golden: Optional[dict],
               problems: List[str]) -> None:
    if not output["drained"]:
        problems.append(f"{name}: did not drain")
    if output["created"] != output["delivered"]:
        problems.append(
            f"{name}: {output['delivered']} messages delivered of "
            f"{output['created']} created"
        )
    if golden is not None:
        if output["digest"] != golden["digest"]:
            problems.append(f"{name}: delivery digest differs from the golden")
        if output["summary"] != golden["summary"]:
            problems.append(f"{name}: run summary differs from the golden")


def check_output(workload: str, output: dict, golden: Optional[dict],
                 reference: Optional[dict]) -> List[str]:
    """Problems with one repetition's output; empty when it is correct.

    ``golden`` is the pinned output for the default seed (None for other
    seeds, where only the invariants are checked).  ``reference`` is an
    earlier output of the same seed that this one must equal: the first
    repetition of the run, or for the sharded workload the single-process
    run of the same configuration.
    """
    problems: List[str] = []
    if workload == "torus_load_sweep":
        expected = set(golden) if golden is not None else None
        if expected is not None and set(output["points"]) != expected:
            problems.append("sweep points differ from the golden")
        for job_id, point in output["points"].items():
            _check_one(job_id, point,
                       None if golden is None else golden.get(job_id),
                       problems)
        if reference is not None:
            for job_id, point in output["points"].items():
                if point["digest"] != reference["points"][job_id]["digest"]:
                    problems.append(f"{job_id}: digest changed between "
                                    f"repetitions of one seed")
        return problems
    _check_one(workload, output, golden, problems)
    if reference is not None:
        if output["digest"] != reference["digest"]:
            problems.append(f"{workload}: delivery digest differs from the "
                            f"reference run of the same seed")
        if output["summary"] != reference["summary"]:
            problems.append(f"{workload}: summary differs from the reference "
                            f"run of the same seed")
    return problems
