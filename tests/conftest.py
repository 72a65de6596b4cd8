"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import contextlib

import pytest

from repro import Settings, Simulation
from repro.core.simulator import Simulator


@pytest.fixture
def simulator():
    return Simulator()


class BareSimulation:
    """Just enough of the Simulation surface for network-less sanitizers."""

    def __init__(self, simulator: Simulator):
        self.simulator = simulator


#: ``Simulator.run`` has two executer loops: a bare run without an
#: event/clock budget takes the fast one, a run with a sanitizer suite
#: attached always takes the limited one.
EXECUTER_LOOPS = ("bare", "sanitized")


@contextlib.contextmanager
def executer(loop: str, **simulator_kwargs):
    """A fresh simulator, bare or with a sanitizer suite attached."""
    from repro.sanitize import attach_sanitizers

    simulator = Simulator(**simulator_kwargs)
    if loop == "bare":
        yield simulator
        return
    with attach_sanitizers(BareSimulation(simulator), "event"):
        yield simulator


def small_torus_config(**workload_overrides) -> dict:
    """A 4x4 torus with IQ routers: the workhorse integration config."""
    application = {
        "type": "blast",
        "injection_rate": 0.2,
        "warmup_duration": 300,
        "generate_duration": 1500,
        "traffic": {"type": "uniform_random"},
        "message_size": {"type": "constant", "size": 4},
    }
    application.update(workload_overrides)
    return {
        "simulator": {"seed": 17},
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
        "workload": {"applications": [application]},
    }


def run_config(config: dict, max_time: int = 200_000):
    """Build and run a simulation from a plain config dict."""
    simulation = Simulation(Settings.from_dict(config))
    results = simulation.run(max_time=max_time)
    return simulation, results


def assert_network_quiescent(network) -> None:
    """After a drained run: all credits restored, all buffers empty.

    This is the strongest conservation check available: every flit that
    consumed a credit anywhere returned it, nothing is parked in any
    input buffer, and no interface has a backlog.
    """
    for router in network.routers:
        for port in range(router.num_ports):
            if not router.port_is_wired(port):
                continue
            tracker = router.output_credit_tracker(port)
            for vc in range(tracker.num_vcs):
                assert tracker.available(vc) == tracker.capacity(vc), (
                    f"{router.full_name} port {port} vc {vc}: "
                    f"{tracker.available(vc)}/{tracker.capacity(vc)}"
                )
            for vc in range(router.num_vcs):
                assert router.input_occupancy(port, vc) == 0
    for interface in network.interfaces:
        assert interface.pending_flits() == 0
        tracker = interface.output_credit_tracker(0)
        for vc in range(tracker.num_vcs):
            assert tracker.available(vc) == tracker.capacity(vc)


def assert_flit_conservation(network) -> None:
    """Every injected flit was ejected somewhere."""
    injected = sum(i.flits_injected for i in network.interfaces)
    ejected = sum(i.flits_ejected for i in network.interfaces)
    assert injected == ejected, f"injected {injected} != ejected {ejected}"
