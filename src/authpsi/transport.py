"""Message framing, delivery backends, and the one log of the traffic they carry.

Every protocol message travels as an envelope: 16-byte session id, one type
byte, and the payload. On the wire an envelope is preceded by a 4-byte
big-endian frame length, the only length it carries, for 21 bytes of header
per message.

Two backends offer `harness.drive` the same two calls: `deliver(src, dst,
env)` sends a message, and `recv(timeout)` returns the next (src, dst, env)
or None. The in-process bus, for tests and single-process runs, is one
global FIFO for every party and the dealer; its receive never waits. TCP,
for multi-process runs, is one node per process with one connection per
directed party pair; its receive waits up to the timeout, and it returns
(src, dst, None) once src's connection has hung up. Party index 0 is
reserved for dealer endpoints (correlated-randomness setup); traffic to or
from index 0 is accounted as setup bytes, everything else as protocol bytes.
Delivery is exactly-once and FIFO per directed pair on both backends.
Each backend carries one session and keeps one log of it, its `meter`: an
entry per message it sends, and on TCP also per frame it receives. Every
figure `harness.run` reports, and every per-pair transcript, is a view of
that log.
"""

from __future__ import annotations

import hashlib
import queue
import socket
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Optional

from .errors import TransportClosed, TransportError

SESSION_ID_BYTES = 16
HEADER_BYTES = 21  # 4 frame length + 16 session + 1 type
# the largest payload whose body (session id, type, payload) the frame length can state
MAX_PAYLOAD = 0xFFFFFFFF - (HEADER_BYTES - 4)
RECV_CHUNK = 1 << 16  # most bytes one socket read asks for

DEALER_INDEX = 0


@dataclass(frozen=True)
class Envelope:
    session_id: bytes
    msg_type: int
    payload: bytes

    def __post_init__(self):
        if len(self.session_id) != SESSION_ID_BYTES:
            raise ValueError("session id must be 16 bytes")
        if not 0 <= self.msg_type <= 0xFF:
            raise ValueError("message type must fit one byte")
        if len(self.payload) > MAX_PAYLOAD:
            raise ValueError("payload too large for the frame format")

    def to_frame(self) -> bytes:
        body = self.session_id + bytes([self.msg_type]) + self.payload
        return len(body).to_bytes(4, "big") + body

    @classmethod
    def from_body(cls, body: bytes) -> "Envelope":
        if len(body) < SESSION_ID_BYTES + 1:
            raise TransportError("truncated envelope")
        return cls(session_id=body[:SESSION_ID_BYTES], msg_type=body[SESSION_ID_BYTES],
                   payload=body[SESSION_ID_BYTES + 1:])

    @property
    def wire_bytes(self) -> int:
        return HEADER_BYTES + len(self.payload)


class Meter:
    """The one log of what a backend carried: per message, in order,
    (src, dst, type, wire bytes, payload digest).

    Every view is read off this log. Dealer traffic (src or dst 0) is setup
    traffic; the rest is protocol traffic.
    """

    def __init__(self):
        self.entries: list[tuple[int, int, int, int, str]] = []
        self._lock = threading.Lock()

    def add(self, src: int, dst: int, env: Envelope):
        digest = hashlib.sha256(env.payload).hexdigest()[:16]
        with self._lock:
            self.entries.append((src, dst, env.msg_type, env.wire_bytes, digest))

    def _logged(self) -> list[tuple[int, int, int, int, str]]:
        with self._lock:
            return list(self.entries)

    def protocol_bytes(self) -> int:
        return sum(self.per_type().values())

    def setup_bytes(self) -> int:
        return sum(nb for src, dst, _, nb, _ in self._logged() if DEALER_INDEX in (src, dst))

    def per_type(self) -> dict[str, int]:
        """Protocol bytes per message type."""
        out: dict[str, int] = {}
        for src, dst, mt, nb, _ in self._logged():
            if DEALER_INDEX not in (src, dst):
                key = f"0x{mt:02x}"
                out[key] = out.get(key, 0) + nb
        return out

    def by_party(self) -> dict[int, dict[str, dict[str, int]]]:
        """Per party, the dealer included: bytes "sent" and "received" per message type."""
        out: dict[int, dict[str, dict[str, int]]] = {}
        for src, dst, mt, nb, _ in self._logged():
            key = f"0x{mt:02x}"
            for party, way in ((src, "sent"), (dst, "received")):
                counts = out.setdefault(party, {"sent": {}, "received": {}})[way]
                counts[key] = counts.get(key, 0) + nb
        return out

    def per_pair(self) -> dict[tuple[int, int], list[tuple[int, int, str]]]:
        """Per directed pair, the ordered (type, bytes, digest) sequence."""
        out: dict[tuple[int, int], list[tuple[int, int, str]]] = {}
        for src, dst, mt, nb, dg in self._logged():
            out.setdefault((src, dst), []).append((mt, nb, dg))
        return out


class BusNetwork:
    """The in-process bus: one global FIFO of (src, dst, envelope) for every party and the dealer.

    One queue for the whole session keeps delivery order, and with it every
    seeded run, reproducible. A receive never waits: an empty queue means no
    party has anything left to say.
    """

    def __init__(self):
        self.meter = Meter()
        self._fifo: deque[tuple[int, int, Envelope]] = deque()

    def deliver(self, src: int, dst: int, env: Envelope):
        self.meter.add(src, dst, env)
        self._fifo.append((src, dst, env))

    def recv(self, timeout: Optional[float] = None):
        """The oldest queued (src, dst, envelope), or None at once if nothing is queued."""
        return self._fifo.popleft() if self._fifo else None


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    # reads at most RECV_CHUNK at a time: a recv buffer is allocated in full
    # before any byte arrives, so a frame length alone must not size it
    buf = bytearray()
    while len(buf) < count:
        chunk = sock.recv(min(count - len(buf), RECV_CHUNK))
        if not chunk:
            raise TransportClosed("peer closed the connection")
        buf += chunk
    return bytes(buf)


def read_frame(sock: socket.socket) -> Envelope:
    length = struct.unpack(">I", _recv_exact(sock, 4))[0]
    return Envelope.from_body(_recv_exact(sock, length))


class TcpNode:
    """TCP endpoint: listens on its own address, dials peers on first send.

    A dialing party identifies itself with a 2-byte index right after
    connecting; afterwards both directions carry ordinary frames, each
    direction of a pair on its own connection. Each accepted connection has
    its own reader thread, which reads that index first, so a dialer that
    stalls or resets before sending it delays no other peer. The dealer
    dials only the parties that have dialed it.
    """

    def __init__(self, index: int, listen_addr: Optional[tuple[str, int]],
                 peers: dict[int, tuple[str, int]]):
        self.index = index
        self.meter = Meter()
        self._peers = dict(peers)
        self._out: dict[int, socket.socket] = {}
        self._inbox: queue.Queue = queue.Queue()
        self._lock = threading.Lock()
        # peers that have dialed this node, and those that have hung up since
        self._dialed: set[int] = set()
        self._gone: set[int] = set()
        self._closed = False
        self._listener = None
        if listen_addr is not None:
            try:
                self._listener = socket.create_server(listen_addr)
            except OSError as exc:
                raise TransportError(f"cannot listen on {listen_addr}: {exc}") from exc
            threading.Thread(target=self._accept_loop, daemon=True).start()

    @property
    def bound_port(self) -> Optional[int]:
        return self._listener.getsockname()[1] if self._listener else None

    def _accept_loop(self):
        # only accepts: a dialer that stalls or resets before its index holds
        # up or ends its own reader, never the next peer's accept
        while not self._closed:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(target=self._read_loop, args=(conn,), daemon=True).start()

    def _read_loop(self, conn: socket.socket):
        src = None  # the dialer's index, once it has sent it
        try:
            src = struct.unpack(">H", _recv_exact(conn, 2))[0]
            self._dialed.add(src)
            while True:
                env = read_frame(conn)
                self.meter.add(src, self.index, env)
                self._inbox.put((src, self.index, env))
        except TransportClosed:
            # a peer that hangs up after its part is done is not an error; it
            # has left, and its frames are all queued ahead of the hang-up. A
            # dialer that hangs up before naming itself was never a peer
            if src is not None:
                self._gone.add(src)
                self._inbox.put((src, self.index, None))
        except TransportError as exc:
            # an undecodable frame ends this connection and the session with it
            if not self._closed:
                self._inbox.put(TransportError(f"malformed frame from party {src}: {exc}"))
        except OSError:
            pass
        finally:
            conn.close()

    def _connection(self, dst: int, retry_for: float = 10.0) -> socket.socket:
        with self._lock:
            sock = self._out.get(dst)
            if sock is None:
                addr = self._peers.get(dst)
                if addr is None:
                    raise TransportError(f"no address configured for party {dst}")
                if self.index == DEALER_INDEX and dst not in self._dialed:
                    raise TransportError(f"party {dst} has not dialed the dealer")
                deadline = time.monotonic() + retry_for
                while True:
                    # peers come up in arbitrary order, so a refused connection
                    # is retried until the deadline; one that has been here
                    # and hung up is not coming back
                    if dst in self._gone:
                        raise TransportError(f"party {dst} has left")
                    try:
                        sock = socket.create_connection(addr, timeout=5)
                        break
                    except OSError as exc:
                        if time.monotonic() >= deadline:
                            raise TransportError(
                                f"cannot reach party {dst} at {addr}: {exc}") from exc
                        time.sleep(0.05)
                sock.sendall(struct.pack(">H", self.index))
                self._out[dst] = sock
            return sock

    def connect(self, dst: int):
        """Dial party `dst` now, so that it sees this node hang up even if it never sends."""
        self._connection(dst)

    def deliver(self, src: int, dst: int, env: Envelope):
        """Send `env` from this node (`src` is its own index) to party `dst`."""
        if self._closed:
            raise TransportError("send on closed endpoint")
        sock = self._connection(dst)
        try:
            sock.sendall(env.to_frame())
        except OSError as exc:
            raise TransportError(f"send to party {dst} failed: {exc}") from exc
        self.meter.add(src, dst, env)

    def recv(self, timeout: Optional[float] = None):
        """The next (src, own index, envelope), or None after `timeout` seconds without one.

        The envelope is None when src's connection has hung up.
        """
        try:
            item = self._inbox.get(timeout=timeout)
        except queue.Empty:
            return None
        if isinstance(item, TransportError):
            raise item
        return item

    def close(self):
        self._closed = True
        if self._listener:
            # closing alone leaves a thread blocked in accept() still
            # accepting on the port; shutting the socket down ends that wait
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._listener.close()
        with self._lock:
            for sock in self._out.values():
                try:
                    sock.close()
                except OSError:
                    pass
            self._out.clear()
