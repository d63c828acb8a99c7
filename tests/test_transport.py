"""Framing, metering, delivery order, and backend equivalence."""

import socket
import struct
import threading
import time
import tracemalloc

import pytest

from authpsi import harness, merkle, transport
from authpsi.errors import TransportClosed, TransportError
from authpsi.transport import Envelope

SID = b"\xaa" * 16


def test_envelope_frame_roundtrip():
    env = Envelope(SID, 0x42, b"hello world")
    frame = env.to_frame()
    assert int.from_bytes(frame[:4], "big") == len(frame) - 4
    back = Envelope.from_body(frame[4:])
    assert back == env
    # the frame length is the only length: session id, type, then the payload
    assert frame[4:] == SID + b"\x42" + b"hello world"
    assert env.wire_bytes == 21 + 11
    assert Envelope.from_body(SID + b"\x42") == Envelope(SID, 0x42, b"")


def test_envelope_validation():
    with pytest.raises(ValueError):
        Envelope(b"\x00" * 8, 0x01, b"")
    with pytest.raises(ValueError):
        Envelope(SID, 0x100, b"")


def test_meter_header_arithmetic():
    net = transport.BusNetwork()
    net.deliver(1, 2, Envelope(SID, 0x01, b"\x00" * 100))
    assert net.meter.protocol_bytes() == 121  # payload + 21 header bytes
    assert net.meter.setup_bytes() == 0
    assert net.meter.per_type() == {"0x01": 121}


def test_dealer_traffic_is_setup_bytes():
    net = transport.BusNetwork()
    net.deliver(1, 0, Envelope(SID, 0x21, b"\x00" * 10))
    assert net.meter.protocol_bytes() == 0
    assert net.meter.setup_bytes() == 31


def test_meter_conservation():
    net = transport.BusNetwork()
    sizes = [3, 50, 7, 0]
    for i, size in enumerate(sizes):
        net.deliver(1, 2, Envelope(SID, i + 1, b"\x01" * size))
    assert sum(net.meter.per_type().values()) == net.meter.protocol_bytes()


def test_bus_fifo_order_and_exactly_once():
    net = transport.BusNetwork()
    for i in range(10_000):
        net.deliver(1, 2, Envelope(SID, 0x01, i.to_bytes(4, "big")))
    for i in range(10_000):
        src, dst, env = net.recv(timeout=0.1)
        assert (src, dst) == (1, 2)
        assert int.from_bytes(env.payload, "big") == i
    assert net.recv(timeout=0.01) is None


def test_abort_not_reordered():
    # strict FIFO: an abort queued behind data does not jump the queue
    net = transport.BusNetwork()
    net.deliver(1, 2, Envelope(SID, 0x02, b"data"))
    net.deliver(1, 2, Envelope(SID, 0x0F, b"abort"))
    assert net.recv(timeout=0.1)[2].msg_type == 0x02
    assert net.recv(timeout=0.1)[2].msg_type == 0x0F


def test_bus_timeout_vs_closed():
    # an empty bus is a value, returned at once; the bus has no close
    net = transport.BusNetwork()
    t0 = time.monotonic()
    assert net.recv(timeout=5) is None
    assert time.monotonic() - t0 < 1


def test_log_counts_a_message_of_another_session():
    # the receiver refuses a root rewritten to another session id, and the
    # reported bytes still cover every message the bus carried, that one too
    class RewritingBus(transport.BusNetwork):
        def deliver(self, src, dst, env):
            if (src, dst, env.msg_type) == (2, 1, 0x01):
                env = Envelope(bytes(16), env.msg_type, env.payload)
            super().deliver(src, dst, env)

    x = [bytes([i, 2]) for i in range(24)]
    y = [bytes([i, 2]) for i in range(12, 36)]
    run = harness.run_two_party(x, y, session_id=SID, seed=3, network=RewritingBus())
    assert run.aborted and "envelope for a different session" in run.report["abort_reasons"][1]
    assert (2, 1, 0x01) in {(src, dst, mt) for src, dst, mt, *_ in run.meter.entries}
    logged = sum(nbytes for *_, nbytes, _ in run.meter.entries)
    assert run.report["bytes_total"] + run.report["setup_bytes"] == logged


def test_tcp_roundtrip_and_meter():
    n1 = transport.TcpNode(1, ("127.0.0.1", 0), {})
    n2 = transport.TcpNode(2, ("127.0.0.1", 0), {1: ("127.0.0.1", n1.bound_port)})
    try:
        n2.deliver(2, 1, Envelope(SID, 0x07, b"over tcp"))
        src, dst, env = n1.recv(timeout=5)
        assert (src, dst, env.payload) == (2, 1, b"over tcp")
        # both ends count the one message
        assert n1.meter.protocol_bytes() == n2.meter.protocol_bytes() == 29
        # both ends log the same per-pair sequence: the sender its send, the
        # receiver the frame it read
        assert n1.meter.per_pair() == n2.meter.per_pair()
        for i in range(100):
            n2.deliver(2, 1, Envelope(SID, 0x08, bytes([i])))
        got = [n1.recv(timeout=5)[2].payload[0] for _ in range(100)]
        assert got == list(range(100))
    finally:
        n1.close()
        n2.close()


@pytest.mark.parametrize("body", [b"\x00" * 5, SID], ids=["truncated-envelope", "no-type-byte"])
def test_tcp_malformed_frame_delivers_close(body):
    # a body too short for its session id and type: the node closes the
    # connection and delivers the bad frame as an error of its own, not as
    # the hang-up of a peer that finished its part
    node = transport.TcpNode(1, ("127.0.0.1", 0), {})
    try:
        with socket.create_connection(("127.0.0.1", node.bound_port), timeout=5) as raw:
            raw.sendall((2).to_bytes(2, "big") + len(body).to_bytes(4, "big") + body)
            t0 = time.monotonic()
            with pytest.raises(TransportError, match="malformed frame from party 2") as info:
                node.recv(timeout=5)
            assert time.monotonic() - t0 < 2
            assert not isinstance(info.value, TransportClosed)
            assert raw.recv(1) == b""
    finally:
        node.close()


@pytest.mark.parametrize("fault", ["reset", "stall", "one-byte"])
def test_tcp_faulty_dialer_delays_no_other_peer(fault):
    # a dialer that resets before sending its 2-byte index, sends nothing, or
    # sends one byte of it ends or holds up only its own connection: an
    # honest peer that dials after it is still heard at once
    node = transport.TcpNode(1, ("127.0.0.1", 0), {})
    peer = transport.TcpNode(2, None, {1: ("127.0.0.1", node.bound_port)})
    faulty = socket.create_connection(("127.0.0.1", node.bound_port), timeout=5)
    try:
        if fault == "reset":
            faulty.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            faulty.close()
        elif fault == "one-byte":
            faulty.sendall(b"\x00")
        time.sleep(0.2)  # the node meets the faulty dialer first
        peer.deliver(2, 1, Envelope(SID, 0x07, b"honest"))
        got = node.recv(timeout=2)
        assert got is not None and got[:2] == (2, 1) and got[2].payload == b"honest"
    finally:
        faulty.close()
        peer.close()
        node.close()


def test_networked_receiver_gives_up_on_malformed_frame():
    # a 2pc receiver whose party-2 connection sends one 5-byte frame stops at
    # once instead of waiting out its timeout
    x = [bytes([i, 2]) for i in range(16)]
    y = [bytes([i, 2]) for i in range(8, 24)]
    session = b"\x34" * 16
    roots = {1: merkle.root(x, session), 2: merkle.root(y, session)}
    spec = harness.Session({1: roots[1]}, {i: c.root for i, c in roots.items()}, session)
    sinks = {i: transport.TcpNode(i, ("127.0.0.1", 0), {}) for i in (0, 2)}
    node = transport.TcpNode(1, ("127.0.0.1", 0),
                             {i: ("127.0.0.1", sink.bound_port) for i, sink in sinks.items()})
    try:
        with socket.create_connection(("127.0.0.1", node.bound_port), timeout=5) as raw:
            raw.sendall((2).to_bytes(2, "big") + (5).to_bytes(4, "big") + bytes(5))
            t0 = time.monotonic()
            with pytest.raises(TransportError, match="malformed frame") as info:
                harness.drive(node, {1: spec.engine(1, harness.run_stream(0))}, timeout=4.0)
            assert time.monotonic() - t0 < 1.0
            assert not isinstance(info.value, TransportClosed)
    finally:
        node.close()
        for sink in sinks.values():
            sink.close()


def test_frame_length_alone_allocates_no_buffer():
    # a frame that claims 64 MiB and hangs up after 10 bytes: reading it must
    # not allocate the claimed size before the bytes arrive
    a, b = socket.socketpair()
    try:
        a.sendall((64 << 20).to_bytes(4, "big") + b"\x00" * 10)
        a.close()
        tracemalloc.start()
        try:
            with pytest.raises(TransportClosed):
                transport.read_frame(b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    finally:
        a.close()
        b.close()
    assert peak < 4 << 20, peak


def test_tcp_unreachable_peer():
    n = transport.TcpNode(1, None, {2: ("127.0.0.1", 1)})  # nothing listens there
    try:
        with pytest.raises(TransportError):
            n._connection(2, retry_for=0.2)
    finally:
        n.close()


def test_tcp_send_to_a_peer_that_left_fails_at_once():
    # a peer whose own connection has hung up has left: the first send to it
    # fails at once instead of retrying the refused connection for 10 s
    a = transport.TcpNode(1, ("127.0.0.1", 0), {})
    b = transport.TcpNode(2, ("127.0.0.1", 0), {1: ("127.0.0.1", a.bound_port)})
    a._peers[2] = ("127.0.0.1", b.bound_port)
    try:
        b.deliver(2, 1, Envelope(SID, 0x07, b"done"))
        assert a.recv(timeout=5)[2].payload == b"done"
        b.close()
        t0 = time.monotonic()
        with pytest.raises(TransportError, match="party 2"):
            a.deliver(1, 2, Envelope(SID, 0x07, b"too late"))
        assert time.monotonic() - t0 < 1
        # the hang-up itself is delivered after the peer's last frame
        assert a.recv(timeout=5) == (2, 1, None)
    finally:
        a.close()
        b.close()


def test_meter_by_party_counts_each_message_at_both_ends():
    # every party the log names, the dealer included, with its bytes sent and
    # received per message type
    meter = transport.Meter()
    for src, dst, msg_type, size in ((1, 2, 0x02, 75), (1, 0, 0x21, 4), (0, 1, 0x22, 48),
                                     (1, 2, 0x02, 5)):
        meter.add(src, dst, Envelope(SID, msg_type, bytes(size)))
    assert meter.by_party() == {
        0: {"sent": {"0x22": 69}, "received": {"0x21": 25}},
        1: {"sent": {"0x02": 122, "0x21": 25}, "received": {"0x22": 69}},
        2: {"sent": {}, "received": {"0x02": 122}},
    }


def test_backends_produce_identical_transcripts():
    # same seeds, same session: bus and TCP runs must exchange byte-identical
    # per-pair message sequences
    x = [bytes([i, 1]) for i in range(24)]
    y = [bytes([i, 1]) for i in range(12, 36)]
    session = b"\x33" * 16

    bus_run = harness.run_two_party(x, y, session_id=session, seed=5)

    # the networked CLI's path: the shared builder, one `drive` per process
    roots = {1: merkle.root(x, session), 2: merkle.root(y, session)}
    engines, dealer = harness.Session(roots, {i: c.root for i, c in roots.items()},
                                      session).endpoints(harness.run_stream(5))

    nodes = {}
    nodes[0] = transport.TcpNode(0, ("127.0.0.1", 0), {})
    addr0 = ("127.0.0.1", nodes[0].bound_port)
    nodes[1] = transport.TcpNode(1, ("127.0.0.1", 0), {0: addr0})
    nodes[2] = transport.TcpNode(2, ("127.0.0.1", 0), {0: addr0})
    nodes[1]._peers[2] = ("127.0.0.1", nodes[2].bound_port)
    nodes[2]._peers[1] = ("127.0.0.1", nodes[1].bound_port)
    nodes[0]._peers = {1: ("127.0.0.1", nodes[1].bound_port),
                       2: ("127.0.0.1", nodes[2].bound_port)}

    threads = [
        *(threading.Thread(target=harness.drive, args=(nodes[i], {i: engines[i]}),
                           kwargs={"timeout": 30.0}) for i in (1, 2)),
        threading.Thread(target=harness.drive, args=(nodes[0], {}, dealer), kwargs={"timeout": 1.0}),
    ]
    try:
        for th in threads:
            th.start()
        for th in threads[:2]:
            th.join(timeout=30)
            assert not th.is_alive()
    finally:
        for node in nodes.values():
            node.close()

    assert engines[1].intersection == bus_run.intersection
    # each node logs its sends and its reads; its sends are the pairs it is the source of
    tcp_pairs = {pair: seq for i, node in nodes.items()
                 for pair, seq in node.meter.per_pair().items() if pair[0] == i}
    bus_pairs = bus_run.meter.per_pair()
    assert set(tcp_pairs) == set(bus_pairs)
    for pair in bus_pairs:
        assert tcp_pairs[pair] == bus_pairs[pair], pair
