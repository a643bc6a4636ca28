"""Client side of the fleet protocol: one connection, three concerns.

A :class:`WorkerClient` owns a single multiplexed connection to one
worker daemon — dialed over TCP, or handed over already connected (the
owner's end of a fork-started local daemon's ``multiprocessing`` pipe,
which carries the same frames in its own framing):

* **submissions** — ``SUBMIT`` frames keyed by backend-chosen token;
  the matching ``RESULT``/``ERROR`` frames come back whenever the worker
  finishes and are delivered through the ``on_result``/``on_error``
  callbacks (on the reader thread);
* **requests** — ping/stats/cache/shutdown frames matched by ``rid``;
  :meth:`_request` blocks the calling thread until the reply (or its
  timeout) while jobs keep flowing;
* **liveness** — a heartbeat thread pings on a period and watches the
  last time *any* frame arrived.  A dead socket (EOF, reset — the
  SIGKILL case on loopback) or ``heartbeat_misses`` silent periods (the
  hang/partition case) marks the worker lost exactly once: the socket
  is torn down, every waiting request fails, and ``on_lost`` fires so
  the owning backend can map the loss to
  :class:`~repro.utils.errors.WorkerLost` and resubmit.  Each period
  also fires ``on_tick``, where the backend checks its hang ceiling.
"""

from __future__ import annotations

import itertools
import os
import socket
import threading
import time

from repro.service.fleet import protocol
from repro.service.fleet.protocol import recv_frame, send_frame
from repro.service.job import JobSpec
from repro.utils.errors import ProtocolError, WorkerLost


def parse_address(address: str) -> tuple[str, int]:
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ProtocolError(
            f"worker address {address!r} is not of the form host:port")
    try:
        return host, int(port)
    except ValueError:
        raise ProtocolError(
            f"worker address {address!r} has a non-numeric port") from None


class WorkerClient:
    """One live connection to one fleet worker."""

    def __init__(self, address: str, *, connect_timeout: float = 5.0,
                 request_timeout: float = 30.0, heartbeat_s: float = 1.0,
                 heartbeat_misses: int = 5, on_result=None, on_error=None,
                 on_lost=None, on_tick=None):
        self.address = address
        self.host, self.port = parse_address(address)
        self.connect_timeout = connect_timeout
        self.request_timeout = request_timeout
        self.heartbeat_s = heartbeat_s
        self.heartbeat_misses = heartbeat_misses
        self.on_result = on_result
        self.on_error = on_error
        self.on_lost = on_lost
        self.on_tick = on_tick
        self.alive = False
        self.welcome: dict = {}
        self.lost_reason: str | None = None
        self._conn = None  # a socket, or a local daemon's pipe
        self._wlock = threading.Lock()
        self._state_lock = threading.Lock()
        self._closing = False
        self._lost = False
        self._rids = itertools.count()
        self._replies: dict[int, dict] = {}
        self._last_rx = time.monotonic()
        self._reader: threading.Thread | None = None
        self._heartbeat: threading.Thread | None = None
        self._stop = threading.Event()

    # -- connection lifecycle ------------------------------------------------

    def connect(self, pipe=None) -> "WorkerClient":
        """Dial (unless handed a local daemon's ``pipe``), handshake with
        a version check, start the service threads."""
        if pipe is None:
            self._conn = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout)
            self._conn.settimeout(self.request_timeout)
        else:
            self._conn = pipe
        try:
            self._write(protocol.HELLO, {
                "version": protocol.PROTOCOL_VERSION,
                "client": f"pid:{os.getpid()}"})
            if pipe is not None and not pipe.poll(self.request_timeout):
                raise TimeoutError(
                    f"worker {self.address} sent no welcome")
            kind, body = self._read()
            body = body or {}
            if kind == protocol.REJECT:
                raise ProtocolError(
                    f"worker {self.address} rejected the handshake: "
                    f"{body.get('reason', 'no reason given')} "
                    f"(worker speaks protocol {body.get('version')}, "
                    f"client speaks {protocol.PROTOCOL_VERSION})")
            if kind != protocol.WELCOME:
                raise ProtocolError(
                    f"worker {self.address} opened with {kind!r}, "
                    f"not a welcome")
            if body.get("version") != protocol.PROTOCOL_VERSION:
                raise ProtocolError(
                    f"worker {self.address} speaks protocol "
                    f"{body.get('version')}, client speaks "
                    f"{protocol.PROTOCOL_VERSION}")
            if pipe is None:
                self._conn.settimeout(None)
        except BaseException:
            protocol.hang_up(self._conn)
            raise
        self.welcome = body
        self._last_rx = time.monotonic()
        self.alive = True
        self._reader = threading.Thread(
            target=self._reader_loop, name=f"fleet-rx-{self.port}",
            daemon=True)
        self._reader.start()
        self._heartbeat = threading.Thread(
            target=self._heartbeat_loop, name=f"fleet-hb-{self.port}",
            daemon=True)
        self._heartbeat.start()
        return self

    def close(self) -> None:
        """Deliberate local teardown — never reported as a worker loss."""
        with self._state_lock:
            if self._closing:
                return
            self._closing = True
            self.alive = False
        self._stop.set()
        self._hang_up()
        self._fail_pending_requests(ProtocolError(
            f"connection to {self.address} closed"))
        current = threading.current_thread()
        for thread in (self._reader, self._heartbeat):
            if thread is not None and thread is not current:
                thread.join(timeout=5.0)

    def _hang_up(self) -> None:
        if self._conn is not None:
            protocol.hang_up(self._conn)

    def mark_lost(self, reason: str) -> None:
        """Declare the worker dead (idempotent); fires ``on_lost`` once."""
        with self._state_lock:
            if self._closing or self._lost:
                return
            self._lost = True
            self.alive = False
            self.lost_reason = reason
        self._stop.set()
        self._hang_up()
        self._fail_pending_requests(
            WorkerLost(reason, worker=self.address))
        if self.on_lost is not None:
            self.on_lost(self, reason)

    def _fail_pending_requests(self, exc: Exception) -> None:
        with self._state_lock:
            slots = list(self._replies.values())
            self._replies.clear()
        for slot in slots:
            slot["error"] = exc
            slot["event"].set()

    # -- service threads -----------------------------------------------------

    def _reader_loop(self) -> None:
        try:
            while not self._stop.is_set():
                kind, body = self._read()
                self._last_rx = time.monotonic()
                body = body or {}
                if kind == protocol.RESULT:
                    if self.on_result is not None:
                        self.on_result(self, body["token"], body["result"])
                elif kind == protocol.ERROR:
                    if self.on_error is not None:
                        self.on_error(self, body["token"], body["error"])
                elif kind in protocol.REPLY_KINDS:
                    with self._state_lock:
                        slot = self._replies.pop(body.get("rid"), None)
                    if slot is not None:
                        slot["reply"] = (kind, body)
                        slot["event"].set()
                else:
                    raise ProtocolError(f"unexpected frame kind {kind!r}")
        except Exception as exc:
            self.mark_lost(f"connection to worker {self.address} "
                           f"dropped: {type(exc).__name__}: {exc}")

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_s):
            silent_s = time.monotonic() - self._last_rx
            if silent_s > self.heartbeat_s * self.heartbeat_misses:
                self.mark_lost(
                    f"worker {self.address} silent for {silent_s:.1f} s "
                    f"({self.heartbeat_misses} heartbeats missed)")
                return
            if self.on_tick is not None:
                self.on_tick(self)
            try:
                # Fire-and-forget: the pong (or any other frame) refreshes
                # _last_rx; an unmatched rid is simply dropped.
                self._send(protocol.PING, {"rid": next(self._rids)})
            except Exception:
                self.mark_lost(f"worker {self.address} heartbeat send failed")
                return

    # -- sending -------------------------------------------------------------

    # protocol.write_frame/read_frame, with sockets framed through this
    # module's send_frame/recv_frame names, which perfbench's tracer wraps.
    def _write(self, kind: str, body: dict) -> None:
        if isinstance(self._conn, socket.socket):
            send_frame(self._conn, kind, body)
        else:
            self._conn.send((kind, body))

    def _read(self) -> tuple[str, dict | None]:
        if isinstance(self._conn, socket.socket):
            return recv_frame(self._conn)
        return self._conn.recv()

    def _send(self, kind: str, body: dict) -> None:
        with self._wlock:
            if self._conn is None or not self.alive:
                raise WorkerLost(
                    self.lost_reason or f"worker {self.address} not connected",
                    worker=self.address)
            self._write(kind, body)

    def submit(self, token: int, spec: JobSpec, base_attempt: int = 0,
               faults=None) -> None:
        """Ship one job; the result arrives via ``on_result``/``on_error``."""
        body = {"token": token, "spec": spec, "base_attempt": base_attempt}
        if faults is not None:
            body["faults"] = faults
        self._send(protocol.SUBMIT, body)

    def cancel(self, token: int) -> None:
        """Best-effort: dequeue the job worker-side if it has not started."""
        try:
            self._send(protocol.CANCEL, {"token": token})
        except Exception:
            pass  # a dead worker cancels everything anyway

    def _request(self, kind: str, body: dict | None = None,
                 timeout: float | None = None) -> tuple[str, dict]:
        """Send a frame and block for its rid-matched reply."""
        rid = next(self._rids)
        slot = {"event": threading.Event(), "reply": None, "error": None}
        with self._state_lock:
            self._replies[rid] = slot
        body = dict(body or {})
        body["rid"] = rid
        try:
            self._send(kind, body)
        except BaseException:
            with self._state_lock:
                self._replies.pop(rid, None)
            raise
        if not slot["event"].wait(timeout if timeout is not None
                                  else self.request_timeout):
            with self._state_lock:
                self._replies.pop(rid, None)
            raise TimeoutError(
                f"{kind} request to worker {self.address} timed out")
        if slot["error"] is not None:
            raise slot["error"]
        return slot["reply"]

    # -- request surface -----------------------------------------------------

    def ping(self, timeout: float | None = None) -> dict:
        return self._request(protocol.PING, timeout=timeout)[1]

    def stats(self, timeout: float | None = None) -> dict:
        return self._request(protocol.STATS, timeout=timeout)[1]["stats"]

    def cache_names(self, timeout: float | None = None) -> tuple[str, ...]:
        reply = self._request(protocol.CACHE_LIST, timeout=timeout)
        return tuple(reply[1].get("names", ()))

    def cache_get(self, name: str,
                  timeout: float | None = None) -> bytes | None:
        reply = self._request(protocol.CACHE_GET, {"name": name},
                              timeout=timeout)
        return reply[1].get("data")

    def cache_put(self, name: str, data: bytes,
                  timeout: float | None = None) -> bool:
        reply = self._request(protocol.CACHE_PUT,
                              {"name": name, "data": data}, timeout=timeout)
        return bool(reply[1].get("stored"))

    def request_shutdown(self, timeout: float | None = None) -> None:
        """Ask the daemon to exit (answered with BYE before it stops)."""
        self._request(protocol.SHUTDOWN, timeout=timeout)
