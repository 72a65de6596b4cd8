"""Channels: latency, pacing, credit return path."""

import pytest

from repro.core.simulator import Simulator
from repro.net.channel import Channel, ChannelError, CreditChannel
from repro.net.credit import Credit
from repro.net.device import PortedDevice
from repro.net.message import Message


class SinkDevice(PortedDevice):
    """Records everything it receives, with arrival ticks."""

    def __init__(self, simulator, name):
        super().__init__(simulator, name, None, num_ports=1, num_vcs=2)
        self.flits = []
        self.credits = []

    def input_buffer_capacities(self, port):
        return [8] * self.num_vcs

    def receive_flit(self, port, flit):
        self.flits.append((self.simulator.tick, port, flit))

    def receive_credit(self, port, credit):
        self.credits.append((self.simulator.tick, port, credit.vc))


def make_flit():
    return Message(0, 0, 1, 1).packetize(1)[0].flits[0]


@pytest.fixture
def sim():
    return Simulator()


def test_flit_arrives_after_latency(sim):
    sink = SinkDevice(sim, "sink")
    channel = Channel(sim, "ch", None, latency=7)
    channel.connect_sink(sink, 0)
    flit = make_flit()
    sim.call_at(10, lambda e: channel.send_flit(flit))
    sim.run()
    assert sink.flits == [(17, 0, flit)]


def test_one_flit_per_cycle_pacing(sim):
    sink = SinkDevice(sim, "sink")
    channel = Channel(sim, "ch", None, latency=3, period=1)
    channel.connect_sink(sink, 0)

    def send_two(event):
        channel.send_flit(make_flit())
        assert not channel.can_send()
        with pytest.raises(ChannelError):
            channel.send_flit(make_flit())

    sim.call_at(5, send_two)
    sim.run()
    assert len(sink.flits) == 1


def test_pacing_with_period(sim):
    sink = SinkDevice(sim, "sink")
    channel = Channel(sim, "ch", None, latency=2, period=4)
    channel.connect_sink(sink, 0)

    def sender(event):
        if channel.can_send():
            channel.send_flit(make_flit())
        if sim.tick < 12:
            sim.call_at(sim.tick + 1, sender)

    sim.call_at(0, sender)
    sim.run()
    # Sends at 0, 4, 8, 12 -> arrivals at 2, 6, 10, 14.
    assert [t for t, _p, _f in sink.flits] == [2, 6, 10, 14]


def test_next_send_tick(sim):
    sink = SinkDevice(sim, "sink")
    channel = Channel(sim, "ch", None, latency=1, period=3)
    channel.connect_sink(sink, 0)

    def check(event):
        assert channel.next_send_tick() == 5
        channel.send_flit(make_flit())
        assert channel.next_send_tick() == 8

    sim.call_at(5, check)
    sim.run()


def test_send_without_sink_raises(sim):
    channel = Channel(sim, "ch", None, latency=1)
    sim.call_at(1, lambda e: channel.send_flit(make_flit()))
    with pytest.raises(ChannelError):
        sim.run()


def test_double_sink_rejected(sim):
    sink = SinkDevice(sim, "sink")
    channel = Channel(sim, "ch", None, latency=1)
    channel.connect_sink(sink, 0)
    with pytest.raises(ChannelError):
        channel.connect_sink(sink, 0)


def test_invalid_latency_and_period(sim):
    with pytest.raises(ValueError):
        Channel(sim, "a", None, latency=0)
    with pytest.raises(ValueError):
        Channel(sim, "b", None, latency=1, period=0)
    with pytest.raises(ValueError):
        CreditChannel(sim, "c", None, latency=0)


def test_utilization(sim):
    sink = SinkDevice(sim, "sink")
    channel = Channel(sim, "ch", None, latency=1, period=1)
    channel.connect_sink(sink, 0)

    def sender(event):
        channel.send_flit(make_flit())
        if sim.tick < 4:
            sim.call_at(sim.tick + 1, sender)

    sim.call_at(0, sender)
    sim.run()
    assert channel.flits_carried == 5
    assert channel.utilization(10) == 0.5


def test_credit_channel_latency_no_pacing(sim):
    sink = SinkDevice(sim, "sink")
    channel = CreditChannel(sim, "cc", None, latency=4)
    channel.connect_sink(sink, 0)

    def send(event):
        # Multiple credits in one tick are fine (piggybacking).
        channel.send_credit(Credit(0))
        channel.send_credit(Credit(1))

    sim.call_at(3, send)
    sim.run()
    assert sink.credits == [(7, 0, 0), (7, 0, 1)]


# -- delivery wheel ------------------------------------------------------------


def test_coalesced_fifo_keeps_one_pending_event(sim):
    """A busy channel holds no delivery event of its own, only wheel slots."""
    sink = SinkDevice(sim, "sink")
    channel = Channel(sim, "ch", None, latency=5)
    channel.connect_sink(sink, 0)
    flits = [make_flit() for _ in range(3)]

    def send(event):
        channel.send_flit(flits[event.data])

    for tick in range(3):
        sim.call_at(10 + tick, send, data=tick)
    sim.run()
    # One send event per flit plus one wheel event per due tick:
    # 3 sends + 3 landings = 6.  The observable contract is the arrival
    # times.
    assert [(t, f) for t, _p, f in sink.flits] == [
        (15, flits[0]), (16, flits[1]), (17, flits[2])
    ]
    assert channel.inflight_items() == 0


def test_coalesced_pacing_overdrive_still_raises(sim):
    """Coalescing must not relax the one-flit-per-period bandwidth check."""
    sink = SinkDevice(sim, "sink")
    channel = Channel(sim, "ch", None, latency=2, period=3)
    channel.connect_sink(sink, 0)
    sent = []

    def send_burst(event):
        channel.send_flit(make_flit())
        sent.append(sim.tick)
        for _ in range(2):
            with pytest.raises(ChannelError, match="overdriven"):
                channel.send_flit(make_flit())

    sim.call_at(4, send_burst)
    sim.call_at(5, lambda e: pytest.raises(ChannelError, channel.send_flit, make_flit()))
    sim.call_at(7, send_burst)  # 4 + period is free again
    sim.run()
    assert sent == [4, 7]
    assert [t for t, _p, _f in sink.flits] == [6, 9]


def test_multiple_credits_per_cycle_single_event(sim):
    """Same-tick credits land from one wheel event (piggybacking)."""
    sink = SinkDevice(sim, "sink")
    channel = CreditChannel(sim, "cc", None, latency=4)
    channel.connect_sink(sink, 0)

    def send(event):
        for vc in (0, 1, 0):
            channel.send_credit(Credit(vc))
        assert channel.inflight_items() == 3

    sim.call_at(3, send)
    sim.run()
    assert sink.credits == [(7, 0, 0), (7, 0, 1), (7, 0, 0)]
    # The whole run: the send event plus ONE wheel event.
    assert sim.executed_events == 2


def test_flit_batches_refire_per_due_tick(sim):
    """Back-to-back sends produce one wheel landing per due tick."""
    sink = SinkDevice(sim, "sink")
    channel = Channel(sim, "ch", None, latency=1)
    channel.connect_sink(sink, 0)
    count = [0]

    def send(event):
        channel.send_flit(make_flit())
        count[0] += 1
        if count[0] < 4:
            sim.call_at(sim.tick + 1, send)

    sim.call_at(1, send)
    sim.run()
    # 4 sends + 4 single-item landings (dues are 1 apart, never merged).
    assert sim.executed_events == 8
    assert [t for t, _p, _f in sink.flits] == [2, 3, 4, 5]


def test_channels_sharing_a_due_tick_land_from_one_event(sim):
    """Different latencies, one due tick: one engine event, send order."""
    sink = SinkDevice(sim, "sink")
    credit_sink = SinkDevice(sim, "credit_sink")
    channels = [Channel(sim, f"ch{latency}", None, latency=latency)
                for latency in (9, 5, 2)]
    credits = CreditChannel(sim, "cc", None, latency=4)
    for channel in channels:
        channel.connect_sink(sink, 0)
    credits.connect_sink(credit_sink, 0)
    flits = [make_flit() for _ in channels]
    # Sent at ticks 1, 5 and 8; all due at tick 10.
    for channel, flit in zip(channels, flits):
        sim.call_at(10 - channel.latency,
                    lambda e, c=channel, f=flit: c.send_flit(f))
    sim.call_at(6, lambda e: credits.send_credit(Credit(1)))
    sim.run(max_time=9)
    assert sim.executed_events == 4  # the sends only
    assert [c.inflight_items() for c in channels] == [1, 1, 1]
    assert credits.inflight_items() == 1
    sim.run()
    assert sim.executed_events == 5  # ... plus ONE landing
    assert sink.flits == [(10, 0, flit) for flit in flits]
    assert credit_sink.credits == [(10, 0, 1)]
    assert [c.inflight_items() for c in channels + [credits]] == [0] * 4


def test_inflight_items_counts_the_wire(sim):
    sink = SinkDevice(sim, "sink")
    channel = Channel(sim, "ch", None, latency=4)
    channel.connect_sink(sink, 0)
    seen = []
    for tick in range(3):
        sim.call_at(tick, lambda e: channel.send_flit(make_flit()))
    for tick in range(8):
        sim.call_at(tick, lambda e: seen.append(channel.inflight_items()),
                    epsilon=5)
    sim.run()
    # Sent at 0, 1, 2; landed at 4, 5, 6 (before epsilon 5).
    assert seen == [1, 2, 3, 3, 2, 1, 0, 0]


def test_busy_channel_lands_after_channels_queued_before_its_turn(sim):
    """A busy channel joins a tick's landing when its previous tick lands.

    Here ``busy`` joins tick 3 at tick 2, after ``idle`` joined it by
    sending onto its idle wire at tick 1, although ``busy`` sent its
    tick-3 flit first.
    """
    sink = SinkDevice(sim, "sink")
    busy = Channel(sim, "busy", None, latency=2)
    idle = Channel(sim, "idle", None, latency=2)
    busy.connect_sink(sink, 0)
    idle.connect_sink(sink, 0)
    flits = {name: make_flit() for name in ("busy0", "busy1", "idle")}
    sim.call_at(0, lambda e: busy.send_flit(flits["busy0"]))
    sim.call_at(1, lambda e: busy.send_flit(flits["busy1"]))
    sim.call_at(1, lambda e: idle.send_flit(flits["idle"]))
    sim.run()
    assert sink.flits == [
        (2, 0, flits["busy0"]), (3, 0, flits["idle"]), (3, 0, flits["busy1"])
    ]
