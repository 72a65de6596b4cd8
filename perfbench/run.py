"""The repository benchmark: host time of the simulator, end to end and by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each repetition is a fresh process
(``perfbench/rep.py``), so every number includes what a user pays per
``supersim`` call: interpreter start, package import and model loading.
Repetitions run back to back until ``--seconds`` is spent (at least
one), every repetition's output is checked, and each metric is the
median over the repetitions.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` re-runs the
workload with layer spans on (``perfbench/tracer.py``) and reports the
per-layer metrics, the event census and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every run is
also written, stamped with the host fingerprint, to
``perfbench/results/``; ``perfbench/compare.py`` compares two of them.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import (  # noqa: E402
    DEFAULT_SEED,
    SWEEP_WORKERS,
    WORKLOADS,
    check_output,
)

#: a run must finish well inside three minutes, whatever its repetitions do.
RUN_LIMIT_S = 170.0

#: set-up-only repetitions before each full one: set-up is short and
#: noisy, so its median needs more samples than the full runs give.
SETUPS_PER_REP = 2

CENSUS_KINDS = ("router_step", "flit_delivery", "credit_delivery",
                "core_arrival", "inject_step", "application")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "flits_per_s": "flits/s",
                    "peak_rss_mb": "MB"}

#: every per-layer metric; a workload's traced run reports 0 for a layer
#: it does not exercise.
PER_LAYER_UNITS = {
    "core.events": "count", "core.events_per_flit": "events/flit",
    "core.self_s": "s", "core.heap_peak": "count",
    "core.recycled_events": "count",
    "net.channel.deliveries": "count", "net.channel.items": "count",
    "net.channel.self_s": "s",
    "net.credit.deliveries": "count", "net.credit.self_s": "s",
    "net.interface.calls": "count", "net.interface.self_s": "s",
    "net.slab.peak_flits": "count",
    "router.step.calls": "count", "router.step.self_s": "s",
    "router.core_arrival.calls": "count", "router.core_arrival.self_s": "s",
    "router.receive.self_s": "s", "router.grants": "count",
    "router.grants_per_step": "flits/step",
    "router.congestion.calls": "count", "router.congestion.self_s": "s",
    "routing.calls": "count", "routing.candidates_per_call": "ratio",
    "routing.self_s": "s",
    "workload.messages": "count", "workload.self_s": "s",
    "workload.build_s": "s",
    "stats.self_s": "s", "stats.results_s": "s",
    "import_s": "s", "config.settings_s": "s", "topology.build_s": "s",
    "tools.sweep.points": "count", "tools.sweep.efficiency": "ratio",
    "partition.plan_s": "s", "partition.windows": "count",
    "partition.records": "count", "partition.replay_events": "count",
    "partition.speedup": "ratio",
    **{f"census.{kind}_per_hop": "events/hop" for kind in CENSUS_KINDS},
    "census.unattributed": "count",
    "trace.simulate_s": "s", "trace.coverage": "ratio",
    "trace.overhead_s": "s", "trace.overhead_ratio": "ratio",
}


class RepFailed(RuntimeError):
    """A repetition raised, timed out or printed no result."""


# -- host fingerprint ------------------------------------------------------------


def fingerprint() -> Dict[str, Any]:
    """Identity of the host and interpreter, plus the load at start."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "python_build": " ".join(platform.python_build()),
        "python_implementation": platform.python_implementation(),
        "python_compiler": platform.python_compiler(),
        "load_average": list(os.getloadavg()),
    }


#: fingerprint fields two results must share to be compared.
IDENTITY = ("cpu_model", "nproc", "python", "python_build",
            "python_implementation", "python_compiler")


# -- repetitions --------------------------------------------------------------------


def spawn(workload: str, seed: int, mode: str, timeout: float) -> Dict[str, Any]:
    """Run one repetition in a fresh process; return its output.

    The spawn time is taken here, so ``wall_s`` and ``setup_s`` include
    interpreter start-up.  The child gets its own process group, and on
    a timeout the whole group (sweep or shard workers included) is
    killed and reaped.
    """
    command = [sys.executable, str(HERE / "rep.py"), workload, str(seed), mode]
    t_spawn = time.time()
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        stdout, stderr = process.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RepFailed(f"{workload} ({mode}) timed out after {timeout:.0f} s")
    t_exit = time.time()
    if process.returncode != 0:
        tail = "\n".join(stderr.strip().splitlines()[-5:])
        raise RepFailed(f"{workload} ({mode}) exited {process.returncode}: "
                        f"{tail}")
    try:
        output = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise RepFailed(f"{workload} ({mode}) printed no result") from exc
    output["t_spawn"] = t_spawn
    output["duration_s"] = t_exit - t_spawn
    return output


def end_to_end(output: Dict[str, Any]) -> Dict[str, float]:
    t_spawn = output["t_spawn"]
    return {
        "wall_s": output["t_results"] - t_spawn,
        "setup_s": output["t_setup"] - t_spawn,
        "flits_per_s": output["flits"] / (output["t_sim_end"] - output["t_setup"]),
        "peak_rss_mb": max(output["rss_self_kb"], output["rss_children_kb"]) / 1024.0,
    }


class Run:
    """Repetitions of one workload within the time budget, with checks."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 goldens: Dict[str, Any]):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.start = time.time()
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.longest = 0.0
        golden_key = ("clos_oq_adaptive" if workload == "clos_sharded_k2"
                      else workload)
        self.golden = goldens.get(golden_key) if seed == DEFAULT_SEED else None

    def elapsed(self) -> float:
        return time.time() - self.start

    def time_left(self) -> bool:
        """Is there room for one more repetition as long as the longest?"""
        budget = min(self.seconds, RUN_LIMIT_S / 2)
        return self.elapsed() + self.longest <= budget

    def rep(self, workload: str, mode: str,
            reference: Optional[dict] = None) -> Optional[Dict[str, Any]]:
        """One checked repetition; None (and counted failed) on failure."""
        self.attempted += 1
        try:
            output = spawn(workload, self.seed, mode,
                           RUN_LIMIT_S - self.elapsed())
        except RepFailed as exc:
            self.failed += 1
            self.problems.append(str(exc))
            return None
        if mode == "setup":
            return output
        self.longest = max(self.longest, output["duration_s"])
        problems = check_output(workload, output, self.golden, reference)
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            return None
        return output


# -- plain runs -----------------------------------------------------------------------


def plain_run(run: Run) -> Dict[str, Any]:
    reference = None
    if run.workload == "clos_sharded_k2" and run.golden is None:
        # No golden for this seed: the sharded output must equal the
        # single-process output of the same configuration.
        reference = run.rep("clos_oq_adaptive", "plain")
    samples: List[Dict[str, float]] = []
    setups: List[float] = []
    while True:
        for _ in range(SETUPS_PER_REP):
            output = run.rep(run.workload, "setup")
            if output is not None:
                setups.append(output["t_setup"] - output["t_spawn"])
        output = run.rep(run.workload, "plain", reference)
        if output is not None:
            samples.append(end_to_end(output))
            setups.append(samples[-1]["setup_s"])
            if reference is None:
                reference = output
        if not run.time_left():
            break
    metrics = {
        name: statistics.median(s[name] for s in samples) if samples else 0.0
        for name in END_TO_END_UNITS
    }
    if samples:
        metrics["setup_s"] = statistics.median(setups)
    return {"metrics": metrics, "samples": samples, "setups": setups}


# -- traced runs -----------------------------------------------------------------------


def layer_metrics(output: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    trace = output["trace"]
    layers = trace["layers"]
    methods = trace["methods"]
    census = trace["census"]

    def calls(layer: str) -> int:
        return layers.get(layer, {}).get("calls", 0)

    def self_s(layer: str) -> float:
        return layers.get(layer, {}).get("self_s", 0.0)

    events = output["events"]
    flits = output["flits"]
    hops = output["flit_hops"]
    steps = calls("router.step")
    routing = methods.get("routing:respond", [0, 0.0, 0])
    core_self = trace["simulate_s"] - trace["covered_s"]
    metrics = {
        "core.events": events,
        "core.events_per_flit": events / flits,
        "core.self_s": core_self,
        "core.heap_peak": trace["heap_peak"],
        "core.recycled_events": events - trace["event_allocations"],
        "net.channel.deliveries": census.get("flit_delivery", 0),
        "net.channel.items": methods.get("net.channel:_deliver_item", [0])[0],
        "net.channel.self_s": self_s("net.channel"),
        "net.credit.deliveries": census.get("credit_delivery", 0),
        "net.credit.self_s": self_s("net.credit"),
        "net.interface.calls": calls("net.interface"),
        "net.interface.self_s": self_s("net.interface"),
        "net.slab.peak_flits": trace["slab_peak"],
        "router.step.calls": steps,
        "router.step.self_s": self_s("router.step"),
        "router.core_arrival.calls": calls("router.core_arrival"),
        "router.core_arrival.self_s": self_s("router.core_arrival"),
        "router.receive.self_s": self_s("router.receive"),
        "router.grants": output["grants"],
        "router.grants_per_step": output["grants"] / steps if steps else 0.0,
        "router.congestion.calls": calls("router.congestion"),
        "router.congestion.self_s": self_s("router.congestion"),
        "routing.calls": routing[0],
        "routing.candidates_per_call": routing[2] / routing[0] if routing[0] else 0.0,
        "routing.self_s": self_s("routing"),
        "workload.messages": _created_total(output),
        "workload.self_s": self_s("workload"),
        "workload.build_s": self_s("workload.build"),
        "stats.self_s": self_s("stats"),
        "stats.results_s": output["results_s"],
        "import_s": output["import_s"],
        "config.settings_s": output["settings_s"],
        "topology.build_s": self_s("topology.build"),
        "trace.simulate_s": trace["simulate_s"],
        "trace.coverage": trace["coverage"],
        "census.unattributed": events - sum(census.values()),
    }
    for kind in CENSUS_KINDS:
        metrics[f"census.{kind}_per_hop"] = census.get(kind, 0) / hops
    return metrics


#: traced metrics that are exact counts: they must repeat exactly.
COUNT_METRICS = (
    "core.events", "core.heap_peak", "core.recycled_events",
    "net.channel.deliveries", "net.channel.items", "net.credit.deliveries",
    "net.interface.calls", "net.slab.peak_flits", "router.step.calls",
    "router.core_arrival.calls", "router.grants", "router.congestion.calls",
    "routing.calls", "workload.messages", "census.unattributed",
)


def _created_total(output: Dict[str, Any]) -> int:
    if "points" in output:
        return sum(p["created"] for p in output["points"].values())
    return output["created"]


def sim_seconds(output: Dict[str, Any]) -> float:
    return output["t_sim_end"] - output["t_setup"]


def traced_run(run: Run) -> Dict[str, Any]:
    workload = run.workload
    extra: Dict[str, float] = {}
    if workload == "clos_sharded_k2":
        return sharded_trace(run)
    if workload == "torus_load_sweep":
        parallel = run.rep(workload, "plain")
        untraced = run.rep(workload, "serial", parallel)
        if parallel is not None and untraced is not None:
            extra["tools.sweep.points"] = len(parallel["points"])
            extra["tools.sweep.efficiency"] = sim_seconds(untraced) / (
                SWEEP_WORKERS * sim_seconds(parallel))
    else:
        untraced = run.rep(workload, "plain")
    reference = untraced
    traced: List[Dict[str, float]] = []
    while True:
        output = run.rep(workload, "traced", reference)
        if output is not None:
            sample = layer_metrics(output)
            sample["trace.wall_s"] = output["t_results"] - output["t_spawn"]
            traced.append(sample)
        if not run.time_left():
            break
    for first, later in zip(traced, traced[1:]):
        for name in COUNT_METRICS:
            if first[name] != later[name]:
                run.failed += 1
                run.problems.append(
                    f"traced count {name} did not repeat: {first[name]} vs "
                    f"{later[name]}")
                break
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0)
    metrics.update(extra)
    if traced:
        for name in traced[0]:
            metrics[name] = statistics.median(s[name] for s in traced)
        if untraced is not None:
            base = untraced["t_results"] - untraced["t_spawn"]
            metrics["trace.overhead_s"] = metrics["trace.wall_s"] - base
            metrics["trace.overhead_ratio"] = metrics["trace.wall_s"] / base
    metrics.pop("trace.wall_s", None)
    return {"metrics": metrics, "samples": traced}


def sharded_trace(run: Run) -> Dict[str, Any]:
    """Partition metrics: the sharded run against the single-process run."""
    single = run.rep("clos_oq_adaptive", "plain")
    samples = []
    while True:
        output = run.rep(run.workload, "plain", single)
        if output is not None:
            samples.append(output)
        if not run.time_left():
            break
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0)
    if samples and single is not None:
        wall = statistics.median(end_to_end(s)["wall_s"] for s in samples)
        metrics.update({
            "import_s": statistics.median(s["import_s"] for s in samples),
            "partition.plan_s": statistics.median(s["plan_s"] for s in samples),
            "partition.windows": samples[0]["windows"],
            "partition.records": samples[0]["records"],
            "partition.replay_events": samples[0]["events"] - single["events"],
            "partition.speedup": end_to_end(single)["wall_s"] / wall,
        })
    return {"metrics": metrics, "samples": samples}


# -- entry point ---------------------------------------------------------------


def reported(workload: str, trace: int) -> List[str]:
    """The metrics of the result line: those BENCHMARK.json declares for
    this kind of run, or every metric for a workload it does not list."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    units = END_TO_END_UNITS if not trace else PER_LAYER_UNITS
    if workload not in {w["name"] for w in spec["workloads"]}:
        return list(units)
    declared = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    return [name for name in units if name in declared]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    host = fingerprint()
    # The "build": byte-compile once so no repetition pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(ROOT / "src"), str(HERE)], check=True,
                   stdout=subprocess.DEVNULL)
    with open(HERE / "goldens.json", encoding="utf-8") as handle:
        goldens = json.load(handle)

    run = Run(args.workload, args.seed, args.seconds, goldens)
    result = traced_run(run) if args.trace else plain_run(run)
    metrics = result["metrics"]
    unit_of = {**END_TO_END_UNITS, **PER_LAYER_UNITS}
    for name, value in metrics.items():
        print(f"{name:32s} {value:>16.6g} {unit_of[name]}")
    error_rate = run.failed / run.attempted
    print(f"{'error_rate':32s} {error_rate:>16.6g} failed/attempted")
    for problem in run.problems:
        print(f"FAILED: {problem}")
    print(f"host: {json.dumps(host)}")

    stamp = datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y%m%dT%H%M%S")
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "host": host,
        "elapsed_s": run.elapsed(),
        "attempted": run.attempted, "failed": run.failed,
        "error_rate": error_rate, "problems": run.problems,
        "metrics": metrics, "samples": result["samples"],
        "setups": result.get("setups", []),
    }
    path = results_dir / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                          f"-{stamp}-{os.getpid()}.json")
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": metrics.get(name, 0), "unit": unit_of[name]}
            for name in reported(args.workload, args.trace)
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
