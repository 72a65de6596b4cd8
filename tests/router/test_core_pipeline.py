"""Router core pipeline against the committed goldens.

A granted flit traverses the router core in ``core_latency`` ticks
before it reaches the output staging register (IQ) or output queue
(OQ, IOQ).  The traversal is a per-router FIFO drained at the head of
each router step, so the cases that stress that step -- latency 0
(arrival in the grant tick, after the grant), a long core (50 ticks)
and a period-2 channel -- are pinned per architecture in
``tests/goldens.json`` (see :mod:`tests.goldens`).
"""

from __future__ import annotations

import pytest

from tests.goldens import PIPELINE_CASES, golden_run, load_goldens


@pytest.mark.parametrize("name", sorted(PIPELINE_CASES))
def test_core_pipeline_matches_golden(name):
    factory, max_time = PIPELINE_CASES[name]
    observed = golden_run(factory(), max_time)
    assert observed["drained"]
    assert observed == load_goldens()[name], f"{name}: diverged from golden"
