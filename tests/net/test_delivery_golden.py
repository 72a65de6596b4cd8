"""Golden delivery digests for the network-level configs.

Every flit and credit must land on the same channel at the same
``(tick, epsilon)``, and every message must be delivered at the same
tick with the same hop counts, as the committed goldens in
``tests/goldens.json`` record (see :mod:`tests.goldens`).  DetSan's
delivery digest is independent of how deliveries are packed into
engine events, so the goldens stay valid across delivery-path changes.

Covered: a torus/IQ and a folded-Clos/OQ/adaptive workload (the two
router architectures exercise disjoint send paths) plus every built-in
benchmark config.
"""

from __future__ import annotations

import pytest

from tests.goldens import NETWORK_CASES, golden_run, load_goldens


@pytest.mark.parametrize("name", sorted(NETWORK_CASES))
def test_delivery_matches_golden(name):
    factory, max_time = NETWORK_CASES[name]
    observed = golden_run(factory(), max_time)
    assert observed["deliveries"] > 0
    assert observed == load_goldens()[name], f"{name}: diverged from golden"
