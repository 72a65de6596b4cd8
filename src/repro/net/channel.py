"""Channels: latency-bearing links between devices.

A channel moves one item (a flit or a credit) from a source device port
to a sink device port after a fixed latency.  Flit channels additionally
enforce a bandwidth of one flit per channel-clock cycle -- the *phit*
rate.  Credit channels carry the reverse credit flow with the same
latency; multiple credits (for different VCs) may share a cycle, which
models the credit piggybacking used by real links.

High channel latency is a defining property of large-scale networks
(paper §I): a 10 m cable at ~5 ns/m is 50 ns, i.e. tens of flit times in
flight.  The channel keeps an utilization count so analyses can report
channel load.

Delivery goes through one network-wide *delivery wheel* per simulator
(see ``docs/PERFORMANCE.md``): each channel keeps its items on the wire
as a FIFO of ``(due_tick, item)`` pairs (dues are nondecreasing: time
is monotone and the latency is fixed), and the wheel maps each due
tick to the channels with items landing then.  One engine event per
distinct due tick, at ``(due, EPS_DELIVER)``, lands every flit and
credit due at the tick, channel by channel.  Heap traffic is
O(busy ticks) for the whole network instead of O(items) or O(busy
ticks per channel).  Channels land in the order in which they entered
the tick's bucket -- when the item was sent onto an idle wire, or when
the channel's previous due tick landed -- which is the order of the
former per-channel delivery events, so simulations are unchanged.
Every per-item hook (sanitizers, delivery digests, shard ingress)
attaches to :meth:`Channel._deliver_item` /
:meth:`CreditChannel._deliver_item`, through which every landing goes.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Optional, Tuple

from repro.core.component import Component
from repro.core.event import Event
from repro.net.credit import Credit
from repro.net.flit import Flit
from repro.net.phases import EPS_DELIVER

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.simulator import Simulator
    from repro.net.device import PortedDevice


class DeliveryWheel:
    """The delivery schedule of every channel of one simulator.

    ``buckets`` maps a due tick to the channels with items landing then;
    whoever opens a bucket schedules the tick's single :meth:`land`
    event.  A channel enters the bucket of its oldest item's due tick
    when that item is sent onto an idle wire, or when its previous
    due tick lands.  Latency is at least one tick, so nothing is ever
    added to the bucket being landed.
    """

    __slots__ = ("simulator", "buckets", "_spare")

    def __init__(self, simulator: "Simulator"):
        self.simulator = simulator
        self.buckets: Dict[int, list] = {}
        # Landed bucket lists, recycled by add().
        self._spare: list = []

    @classmethod
    def of(cls, simulator: "Simulator") -> "DeliveryWheel":
        """The simulator's wheel, created by its first channel."""
        wheel = simulator.delivery_wheel
        if wheel is None:
            wheel = simulator.delivery_wheel = cls(simulator)
        return wheel

    def add(self, due: int, channel) -> None:
        """Put ``channel`` in the bucket of tick ``due``."""
        bucket = self.buckets.get(due)
        if bucket is None:
            spare = self._spare
            bucket = spare.pop() if spare else []
            self.buckets[due] = bucket
            self.simulator.call_at(due, self.land, None, EPS_DELIVER)
        bucket.append(channel)

    def land(self, event: Event) -> None:
        """Land every item due now, channel by channel."""
        tick = self.simulator.tick
        add = self.add
        bucket = self.buckets.pop(tick)
        for channel in bucket:
            inflight = channel._inflight
            deliver_item = channel._deliver_item
            while inflight and inflight[0][0] == tick:
                deliver_item(inflight.popleft()[1])
            if inflight:
                add(inflight[0][0], channel)
        bucket.clear()
        self._spare.append(bucket)


class ChannelError(RuntimeError):
    """Raised on channel protocol violations (overdriving, no sink)."""


class Channel(Component):
    """A unidirectional flit link with latency and one-flit-per-cycle pacing."""

    #: True on channels cut by a shard partition: the sharded runtime
    #: (:mod:`repro.partition.runtime`) replaces one endpoint with a
    #: proxy (egress serializes sends onto IPC; ingress lands records
    #: through ``_deliver_item``), so per-link invariant checkers that
    #: need both endpoints (CreditSan) must skip these links.  Always
    #: False in single-process simulation.
    shard_proxy = False

    def __init__(
        self,
        simulator: "Simulator",
        name: str,
        parent: Optional[Component],
        latency: int,
        period: int = 1,
    ):
        super().__init__(simulator, name, parent)
        if latency < 1:
            raise ValueError(f"channel latency must be >= 1 tick, got {latency}")
        if period < 1:
            raise ValueError(f"channel period must be >= 1 tick, got {period}")
        self.latency = latency
        self.period = period
        self._sink: Optional["PortedDevice"] = None
        self._sink_port: Optional[int] = None
        self._next_free_tick = 0
        self.flits_carried = 0
        # (due_tick, flit) pairs on the wire, oldest first.
        self._inflight: Deque[Tuple[int, Flit]] = deque()
        self._wheel = DeliveryWheel.of(simulator)

    def connect_sink(self, sink: "PortedDevice", port: int) -> None:
        if self._sink is not None:
            raise ChannelError(f"{self.full_name}: sink already connected")
        self._sink = sink
        self._sink_port = port

    @property
    def sink(self) -> Optional["PortedDevice"]:
        return self._sink

    @property
    def sink_port(self) -> Optional[int]:
        return self._sink_port

    def can_send(self) -> bool:
        """True when the channel is free this cycle."""
        return self.simulator.tick >= self._next_free_tick

    def next_send_tick(self) -> int:
        """Earliest tick at which the channel accepts the next flit."""
        return max(self._next_free_tick, self.simulator.tick)

    def inflight_items(self) -> int:
        """Flits currently on the wire."""
        return len(self._inflight)

    def send_flit(self, flit: Flit) -> None:
        """Transmit ``flit``; it arrives at the sink after ``latency``."""
        if self._sink is None:
            raise ChannelError(f"{self.full_name}: no sink connected")
        now = self.simulator.tick
        if now < self._next_free_tick:
            raise ChannelError(
                f"{self.full_name}: overdriven -- busy until {self._next_free_tick}, "
                f"send attempted at {now}"
            )
        self._next_free_tick = now + self.period
        self.flits_carried += 1
        due = now + self.latency
        inflight = self._inflight
        inflight.append((due, flit))
        if len(inflight) == 1:
            self._wheel.add(due, self)

    def _deliver_item(self, flit: Flit) -> None:
        """Hand one landed flit to the sink (sanitizer hookpoint)."""
        self._sink.receive_flit(self._sink_port, flit)

    def utilization(self, window_ticks: int) -> float:
        """Flits carried per channel cycle over ``window_ticks``."""
        if window_ticks <= 0:
            return 0.0
        cycles = window_ticks / self.period
        return self.flits_carried / cycles


class CreditChannel(Component):
    """A unidirectional credit link with latency (no pacing).

    Several credits may be sent within one tick (different VCs of the
    same link free slots in the same cycle); they land together, with
    everything else due at their tick, from the wheel's single event.
    """

    #: see :attr:`Channel.shard_proxy`.
    shard_proxy = False

    def __init__(
        self,
        simulator: "Simulator",
        name: str,
        parent: Optional[Component],
        latency: int,
    ):
        super().__init__(simulator, name, parent)
        if latency < 1:
            raise ValueError(f"credit latency must be >= 1 tick, got {latency}")
        self.latency = latency
        self._sink: Optional["PortedDevice"] = None
        self._sink_port: Optional[int] = None
        self.credits_carried = 0
        # (due_tick, credit) pairs on the wire, oldest first.
        self._inflight: Deque[Tuple[int, Credit]] = deque()
        self._wheel = DeliveryWheel.of(simulator)

    def connect_sink(self, sink: "PortedDevice", port: int) -> None:
        if self._sink is not None:
            raise ChannelError(f"{self.full_name}: sink already connected")
        self._sink = sink
        self._sink_port = port

    @property
    def sink(self) -> Optional["PortedDevice"]:
        return self._sink

    @property
    def sink_port(self) -> Optional[int]:
        return self._sink_port

    def inflight_items(self) -> int:
        """Credits currently on the wire."""
        return len(self._inflight)

    def send_credit(self, credit: Credit) -> None:
        if self._sink is None:
            raise ChannelError(f"{self.full_name}: no sink connected")
        self.credits_carried += 1
        due = self.simulator.tick + self.latency
        inflight = self._inflight
        inflight.append((due, credit))
        if len(inflight) == 1:
            self._wheel.add(due, self)

    def _deliver_item(self, credit: Credit) -> None:
        """Hand one landed credit to the sink (sanitizer hookpoint)."""
        self._sink.receive_credit(self._sink_port, credit)
