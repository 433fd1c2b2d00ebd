"""Keep-alive HTTP/1.1 load generator.

One process, one thread per connection, at most ``os.cpu_count()`` of
each.  Connections stay open across requests, as real clients and load
balancers keep them, because a connection-per-request client never sees
the stalls that only a reused TCP connection has (delayed ACKs meeting
small writes).

Every request is stamped with its scheduled send time, its actual send
time and its completion time, all on ``time.monotonic()``.  Open-loop
latency is measured from the scheduled time, so a stall also charges the
requests that queued behind it.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

#: status value recorded when no HTTP response arrived
NO_RESPONSE = 0

HOST = "127.0.0.1"
#: every request the benchmark sends is ``POST`` to this path
PATH = "/recommend"


@dataclass
class Record:
    """One request as the client saw it."""

    index: int
    scheduled: float
    picked: float
    sent: float
    done: float
    status: int
    body: Optional[bytes]

    @property
    def latency_ms(self) -> float:
        """From the scheduled send time to the last byte of the response."""
        return (self.done - self.scheduled) * 1000.0

    @property
    def round_trip_ms(self) -> float:
        """From the actual send to the last byte of the response."""
        return (self.done - self.sent) * 1000.0

    @property
    def lag_ms(self) -> Optional[float]:
        """How late the generator sent a request it was ready for in time;
        ``None`` when the request waited for a busy connection instead."""
        if self.picked > self.scheduled:
            return None
        return (self.sent - self.scheduled) * 1000.0


def status_class(status: int) -> str:
    """``"200"``, ``"429"``, ``"504"`` or ``"other"`` (no response included)."""
    return str(status) if status in (200, 429, 504) else "other"


def max_connections(requested: int) -> int:
    return max(1, min(requested, os.cpu_count() or 1))


class Connection:
    """A persistent HTTP/1.1 connection that reconnects after a failure."""

    def __init__(self, port: int, timeout: float = 30.0):
        self.address = (HOST, port)
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._buffer = b""

    def _connect(self) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection(self.address, timeout=self.timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
            self._buffer = b""
        return self._sock

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def request(self, body: bytes) -> "tuple[int, Optional[bytes]]":
        """POST ``body``; ``(status, body)``, or ``(NO_RESPONSE, None)``
        when the connection failed or timed out (it is then reopened on the
        next call)."""
        head = (f"POST {PATH} HTTP/1.1\r\nHost: {HOST}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode("ascii")
        try:
            sock = self._connect()
            sock.sendall(head + body)
            return self._read_response(sock)
        except (OSError, ValueError):
            self.close()
            return NO_RESPONSE, None

    def _read_response(self, sock: socket.socket) -> "tuple[int, bytes]":
        while b"\r\n\r\n" not in self._buffer:
            self._fill(sock)
        head, _, rest = self._buffer.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        length = 0
        close = False
        for line in lines[1:]:
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value.strip())
            elif name == "connection" and value.strip().lower() == "close":
                close = True
        self._buffer = rest
        while len(self._buffer) < length:
            self._fill(sock)
        body, self._buffer = self._buffer[:length], self._buffer[length:]
        if close:
            self.close()
        return status, body

    def _fill(self, sock: socket.socket) -> None:
        chunk = sock.recv(1 << 20)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buffer += chunk


def open_loop(port: int, bodies: Sequence[bytes], offsets: Sequence[float],
              connections: int) -> List[Record]:
    """Send ``bodies[i]`` at ``start + offsets[i]`` over ``connections``
    keep-alive connections, one sender thread each; a request whose time
    has come waits for the next free connection."""
    count = len(bodies)
    records: List[Optional[Record]] = [None] * count
    cursor = [0]
    lock = threading.Lock()
    start = time.monotonic() + 0.05

    def sender() -> None:
        conn = Connection(port)
        try:
            while True:
                with lock:
                    index = cursor[0]
                    if index >= count:
                        return
                    cursor[0] += 1
                picked = time.monotonic()
                scheduled = start + offsets[index]
                delay = scheduled - picked
                if delay > 0:
                    time.sleep(delay)
                sent = time.monotonic()
                status, body = conn.request(bodies[index])
                records[index] = Record(index, scheduled, picked, sent,
                                        time.monotonic(), status, body)
        finally:
            conn.close()

    threads = [threading.Thread(target=sender, daemon=True)
               for _ in range(max_connections(connections))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [record for record in records if record is not None]


def closed_loop(port: int, bodies: Sequence[bytes],
                seconds: float) -> List[Record]:
    """Send ``bodies`` one after another on one keep-alive connection until
    ``seconds`` have passed (or the bodies run out)."""
    records: List[Record] = []
    conn = Connection(port, timeout=120.0)
    deadline = time.monotonic() + seconds
    try:
        for index, body in enumerate(bodies):
            now = time.monotonic()
            if now >= deadline:
                break
            status, payload = conn.request(body)
            records.append(Record(index, now, now, now, time.monotonic(),
                                  status, payload))
    finally:
        conn.close()
    return records
