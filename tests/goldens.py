"""Committed golden digests: the behavioural spec of the simulator.

Each golden case is a config run for a fixed tick budget from a fresh
packet/message id counter (ids feed routing decisions, so every run
must start from the same position).  The run is observed by DetSan and
summarised as:

* ``delivery_digest`` / ``deliveries`` -- DetSan's delivery digest:
  every flit and credit landing on the same channel at the same
  ``(tick, epsilon)`` with the same identity, independent of how the
  deliveries were packed into engine events;
* ``messages_digest`` -- SHA-256 over every delivered message in id
  order (source, destination, created/delivered ticks, per-packet hop
  counts);
* ``drained``, ``injected``, ``ejected``, ``messages``, ``hops`` --
  workload-level counters.

The event-stream digest is deliberately *not* pinned: a faster engine
legitimately executes fewer events for the same simulation.

The goldens live in ``tests/goldens.json``.  Re-pin them only for an
intended behaviour change, and say so in the change log::

    PYTHONPATH=src python -m tests.goldens
"""

from __future__ import annotations

import contextlib
import copy
import functools
import hashlib
import itertools
import json
import pathlib
from typing import Dict, Iterator, Tuple

from repro import Settings, Simulation, configs
from repro.net import message as message_mod
from repro.net import packet as packet_mod
from repro.sanitize import attach_sanitizers

from tests.conftest import small_torus_config

GOLDEN_FILE = pathlib.Path(__file__).resolve().parent / "goldens.json"


def _clos_config() -> dict:
    return configs.latent_congestion_config(
        injection_rate=0.15, warmup=50, window=150, half_radix=2
    )


def _request_reply_config() -> dict:
    """Replies are numbered in delivery order, and ids feed routing, so
    this case pins the order in which same-tick deliveries land."""
    config = small_torus_config()
    config["simulator"]["seed"] = 31
    config["workload"]["applications"][0].update(
        type="request_reply", injection_rate=0.1,
        message_size={"type": "constant", "size": 2},
    )
    return config


def _pipeline_config(architecture: str, core_latency: int,
                     channel_period: int) -> dict:
    """The small torus with a chosen router core pipeline."""
    config = small_torus_config()
    network = config["network"]
    network["channel_period"] = channel_period
    network["router"]["architecture"] = architecture
    network["router"]["core_latency"] = core_latency
    return config


#: name -> (config factory, tick budget)
NETWORK_CASES: Dict[str, Tuple] = {
    "torus_iq": (small_torus_config, 20_000),
    "folded_clos_oq": (_clos_config, 2_000),
    "request_reply": (_request_reply_config, 20_000),
    "flow_control": (configs.flow_control_config, 250),
    "credit_accounting": (configs.credit_accounting_config, 600),
    "latent_congestion": (configs.latent_congestion_config, 400),
    "blast_pulse": (configs.blast_pulse_config, 2_000),
}

ARCHITECTURES = ("input_queued", "output_queued", "input_output_queued")

#: core pipeline cases: every architecture at core latency 0 (arrival
#: in the grant tick) and 50, and at latency 0 on a period-2 channel.
PIPELINE_CASES: Dict[str, Tuple] = {
    f"{arch}_core{latency}_period{period}": (
        functools.partial(_pipeline_config, arch, latency, period), 4_000
    )
    for arch in ARCHITECTURES
    for latency, period in ((0, 1), (50, 1), (0, 2))
}


@contextlib.contextmanager
def fresh_ids() -> Iterator[None]:
    """Start packet and message ids at 0; restore the counters after."""
    with packet_mod.preserve_packet_ids():
        packet_mod._global_packet_ids = itertools.count()
        message_mod._global_message_ids = itertools.count()
        yield


def messages_digest(records) -> str:
    digest = hashlib.sha256()
    for r in sorted(records, key=lambda r: r.message_id):
        hops = ",".join(str(p.hop_count) for p in r.packets)
        digest.update(
            f"{r.message_id} {r.source} {r.destination} "
            f"{r.created_tick} {r.delivered_tick} {hops}\n".encode()
        )
    return digest.hexdigest()


def golden_run(config: dict, max_time: int) -> dict:
    """Run ``config`` under DetSan; return the pinned observables."""
    with fresh_ids():
        simulation = Simulation(Settings.from_dict(copy.deepcopy(config)))
        with attach_sanitizers(simulation, "det") as suite:
            results = simulation.run(max_time=max_time)
            suite.finish()
            det = suite.report()["det"]
    network = simulation.network
    return {
        "delivery_digest": det["delivery_digest"],
        "deliveries": det["deliveries"],
        "messages_digest": messages_digest(results.log.records),
        "drained": bool(results.drained),
        "injected": sum(i.flits_injected for i in network.interfaces),
        "ejected": sum(i.flits_ejected for i in network.interfaces),
        "messages": sum(i.messages_delivered for i in network.interfaces),
        "hops": sum(r.flits_received for r in network.routers),
    }


def load_goldens() -> dict:
    return json.loads(GOLDEN_FILE.read_text(encoding="utf-8"))


def pin() -> None:
    goldens = {
        name: golden_run(factory(), max_time)
        for name, (factory, max_time) in {
            **NETWORK_CASES, **PIPELINE_CASES
        }.items()
    }
    GOLDEN_FILE.write_text(
        json.dumps(goldens, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"pinned {len(goldens)} goldens to {GOLDEN_FILE}")


if __name__ == "__main__":
    pin()
