"""The ``repro worker`` daemon: warm pool + caches behind a socket.

A :class:`WorkerServer` owns one machine pool, one compile cache
(optionally disk-spilled via ``--cache-dir``), one replay cache, and one
metrics registry.  Jobs arrive as pickled :class:`JobSpec`\\ s on
``SUBMIT`` frames and run through :func:`execute_with_retry`, so the
worker-side failure semantics (per-spec retry policy, fault plan from
its own environment, uniform ``JobError`` wrapping) are exactly those of
every in-process backend.  Results (or the terminal ``JobError``) ship
back on the same connection, keyed by the client's token.

Concurrency model: one accept loop, one reader thread per connection,
and a shared :class:`ThreadPoolExecutor` with ``slots`` job lanes
(default 1 — scale a host by running more daemons, which keeps each
daemon's pool/cache access effectively serial).  Heartbeats and cache
ops are answered from the reader thread, so a worker stays responsive
while a job runs.

Built with ``port=None`` a server opens no listener and serves only the
connection handed to :meth:`WorkerServer.serve_connection` — for the
private local daemons of ``backend="process"``, built with
``allow_crash=True``, one end of a ``multiprocessing`` pipe.

Otherwise injected *crash* faults degrade to transient errors here (like
the serial backend): a listening daemon is shared infrastructure that
outlives any one client, so chaos must not take it down from the inside
— killing workers is the test harness's job (``SIGKILL``), and the
client-side ``WorkerLost`` recovery is what's under test.
"""

from __future__ import annotations

import os
import re
import signal
import socket
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.obs.metrics import MetricsRegistry
from repro.service.backends.base import execute_with_retry
from repro.service.cache import CompileCache, ReplayCache
from repro.service.faults import FaultPlan
from repro.service.fleet import protocol
from repro.service.fleet.protocol import hang_up, read_frame, write_frame
from repro.service.job import JobResult, JobSpec
from repro.service.pool import MachinePool
from repro.utils.errors import ProtocolError

#: Content-addressed compile-cache spill names a worker will serve or
#: store — anything else (path tricks, foreign files) is refused.
_CACHE_NAME = re.compile(r"^(cg|as)_[0-9a-f_]{8,200}\.json$")


def parse_listen(listen: str) -> tuple[str, int]:
    """``host:port`` -> ``(host, port)``; port 0 binds an ephemeral port."""
    host, sep, port = listen.rpartition(":")
    if not sep or not host:
        raise ProtocolError(
            f"listen address {listen!r} is not of the form host:port")
    try:
        return host, int(port)
    except ValueError:
        raise ProtocolError(
            f"listen address {listen!r} has a non-numeric port") from None


class WorkerServer:
    """One fleet worker: accept loop, job lanes, warm pool + caches.

    ``cache_dir`` enables both the disk-spilled compile cache *and* the
    cache-sharing protocol frames (``CACHE_LIST``/``GET``/``PUT``
    operate on that directory's content-addressed entries); without it
    the worker reports ``cache_share: False`` in its welcome and serves
    an in-memory cache only.  ``port=None`` binds no listener; such a
    server is named ``pid:<pid>`` unless given a ``name``.
    """

    def __init__(self, host: str = "127.0.0.1", port: int | None = 0, *,
                 cache_dir: str | os.PathLike | None = None, slots: int = 1,
                 faults: FaultPlan | None = None, name: str | None = None,
                 allow_crash: bool = False):
        self.pool = MachinePool(label="fleet-worker")
        self.cache = CompileCache(persist_dir=cache_dir)
        self.replay_cache = ReplayCache()
        self.metrics = MetricsRegistry()
        self.faults = faults if faults is not None else FaultPlan.from_env()
        self.slots = max(1, int(slots))
        self.allow_crash = allow_crash
        self._listener = None
        self.address = None
        if port is not None:
            self._listener = socket.create_server((host, port))
            self.address = self._listener.getsockname()[:2]
        if name is None:
            name = ("worker:%s:%s" % self.address if self.address is not None
                    else f"pid:{os.getpid()}")
        self.name = name
        self._jobs = ThreadPoolExecutor(max_workers=self.slots,
                                        thread_name_prefix="fleet-job")
        self._closed = threading.Event()
        self._accept_thread: threading.Thread | None = None
        self._state_lock = threading.Lock()
        #: per-connection pending maps, for ``active`` stats and close-time
        #: cancellation: each is ``{token: executor handle}``.
        self._conn_pending: list[dict] = []
        self._conns: list = []
        self.connections_total = 0
        self.jobs_ok = 0
        self.jobs_failed = 0
        self.jobs_cancelled = 0
        self.rejects = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "WorkerServer":
        """Serve on a background thread (in-process workers, tests)."""
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="fleet-accept", daemon=True)
        self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop` (daemon mode)."""
        self._accept_loop()

    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                conn, peer = self._listener.accept()
            except OSError:
                return  # listener closed by stop()
            threading.Thread(target=self.serve_connection, args=(conn,),
                             name=f"fleet-conn-{peer[1]}", daemon=True).start()

    def stop(self) -> None:
        """Stop accepting, cancel queued jobs, close connections (idempotent)."""
        if self._closed.is_set():
            return
        self._closed.set()
        if self._listener is not None:
            # shutdown() wakes a thread blocked in accept() (close() alone
            # does not on all platforms); the throwaway dial covers the rest.
            hang_up(self._listener)
            try:
                socket.create_connection(self.address, timeout=1.0).close()
            except OSError:
                pass
        with self._state_lock:
            pending = [h for p in self._conn_pending for h in p.values()]
            conns = list(self._conns)
        for handle in pending:
            handle.cancel()
        self._jobs.shutdown(wait=True)
        for conn in conns:
            hang_up(conn)
        if (self._accept_thread is not None
                and self._accept_thread is not threading.current_thread()):
            self._accept_thread.join(timeout=5.0)

    def __enter__(self) -> "WorkerServer":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- connection handling -------------------------------------------------

    def serve_connection(self, conn) -> None:
        """Serve one connected socket (or local pipe end) on the calling
        thread until it closes."""
        wlock = threading.Lock()
        pending: dict = {}
        with self._state_lock:
            if self._closed.is_set():
                conn.close()
                return
            self._conns.append(conn)
            self.connections_total += 1
            self._conn_pending.append(pending)
        try:
            if not self._handshake(conn, wlock):
                return
            while not self._closed.is_set():
                kind, body = read_frame(conn)
                self._handle_frame(conn, wlock, pending, kind, body or {})
        except (EOFError, OSError, ProtocolError):
            pass  # client went away (or spoke garbage): drop the connection
        finally:
            with self._state_lock:
                if pending in self._conn_pending:
                    self._conn_pending.remove(pending)
                if conn in self._conns:
                    self._conns.remove(conn)
            # Nobody is listening for these results any more: stop queued
            # jobs, let running ones finish into the void.
            for handle in list(pending.values()):
                handle.cancel()
            try:
                conn.close()
            except OSError:
                pass

    def _handshake(self, conn, wlock: threading.Lock) -> bool:
        kind, body = read_frame(conn)
        body = body or {}
        version = body.get("version")
        if kind != protocol.HELLO or version != protocol.PROTOCOL_VERSION:
            with self._state_lock:
                self.rejects += 1
            reason = (f"unexpected opening frame {kind!r}"
                      if kind != protocol.HELLO else
                      f"protocol version {version} != "
                      f"{protocol.PROTOCOL_VERSION}")
            with wlock:
                write_frame(conn, protocol.REJECT, {
                    "reason": reason,
                    "version": protocol.PROTOCOL_VERSION})
            return False
        with wlock:
            write_frame(conn, protocol.WELCOME, {
                "version": protocol.PROTOCOL_VERSION,
                "worker": self.name,
                "pid": os.getpid(),
                "slots": self.slots,
                "cache_share": self.cache.persist_dir is not None,
            })
        return True

    def _handle_frame(self, conn, wlock, pending: dict, kind: str,
                      body: dict) -> None:
        if kind == protocol.SUBMIT:
            self._handle_submit(conn, wlock, pending, body)
        elif kind == protocol.CANCEL:
            handle = pending.get(body.get("token"))
            if handle is not None and handle.cancel():
                pass  # done-callback records the cancellation
        elif kind == protocol.PING:
            with self._state_lock:
                active = sum(len(p) for p in self._conn_pending)
            self._reply(conn, wlock, protocol.PONG,
                        {"rid": body.get("rid"), "active": active})
        elif kind == protocol.STATS:
            self._reply(conn, wlock, protocol.STATS_REPLY,
                        {"rid": body.get("rid"), "stats": self.stats()})
        elif kind == protocol.CACHE_LIST:
            self._reply(conn, wlock, protocol.CACHE_NAMES,
                        {"rid": body.get("rid"),
                         "names": self._cache_names()})
        elif kind == protocol.CACHE_GET:
            name = body.get("name", "")
            self._reply(conn, wlock, protocol.CACHE_DATA,
                        {"rid": body.get("rid"), "name": name,
                         "data": self._cache_read(name)})
        elif kind == protocol.CACHE_PUT:
            stored = self._cache_write(body.get("name", ""),
                                       body.get("data", b""))
            self._reply(conn, wlock, protocol.CACHE_OK,
                        {"rid": body.get("rid"), "stored": stored})
        elif kind == protocol.SHUTDOWN:
            self._reply(conn, wlock, protocol.BYE, {"rid": body.get("rid")})
            # stop() joins this very reader's connection teardown, so it
            # must run elsewhere; the daemon exits when accept unblocks.
            threading.Thread(target=self.stop, daemon=True).start()
        else:
            raise ProtocolError(f"unexpected frame kind {kind!r}")

    def _reply(self, conn, wlock, kind: str, body: dict) -> None:
        with wlock:
            write_frame(conn, kind, body)

    # -- job execution -------------------------------------------------------

    def _handle_submit(self, conn, wlock, pending: dict, body: dict) -> None:
        token = body["token"]
        spec: JobSpec = body["spec"]
        base_attempt = int(body.get("base_attempt", 0))
        handle = self._jobs.submit(self._execute, spec, base_attempt,
                                   body.get("faults"))
        pending[token] = handle
        handle.add_done_callback(
            lambda h: self._job_finished(conn, wlock, pending, token, h))

    def _execute(self, spec: JobSpec, base_attempt: int,
                 faults: FaultPlan | None = None) -> JobResult:
        result = execute_with_retry(
            spec, self.pool, self.cache, self.replay_cache,
            metrics=self.metrics,
            faults=faults if faults is not None else self.faults,
            base_attempt=base_attempt, allow_crash=self.allow_crash)
        if result.telemetry is not None:
            # Identify this daemon (not just a pid) in the service's
            # per-worker telemetry rollup.
            result.telemetry.worker = self.name
        return result

    def _job_finished(self, conn, wlock, pending: dict, token: int,
                      handle) -> None:
        pending.pop(token, None)
        if handle.cancelled():
            with self._state_lock:
                self.jobs_cancelled += 1
            return
        exc = handle.exception()
        if exc is not None:
            with self._state_lock:
                self.jobs_failed += 1
            frame = (protocol.ERROR, {"token": token, "error": exc})
        else:
            with self._state_lock:
                self.jobs_ok += 1
            frame = (protocol.RESULT, {"token": token,
                                       "result": handle.result()})
        try:
            with wlock:
                write_frame(conn, *frame)
        except (OSError, ProtocolError):
            pass  # client disconnected before the result could ship

    # -- cache sharing -------------------------------------------------------

    def _cache_names(self) -> tuple[str, ...]:
        if self.cache.persist_dir is None:
            return ()
        try:
            names = [p.name for p in self.cache.persist_dir.iterdir()
                     if _CACHE_NAME.match(p.name)]
        except OSError:
            return ()
        return tuple(sorted(names))

    def _cache_read(self, name: str) -> bytes | None:
        if self.cache.persist_dir is None or not _CACHE_NAME.match(name):
            return None
        try:
            return (self.cache.persist_dir / name).read_bytes()
        except OSError:
            return None

    def _cache_write(self, name: str, data: bytes) -> bool:
        if (self.cache.persist_dir is None or not _CACHE_NAME.match(name)
                or not isinstance(data, bytes)
                or len(data) > protocol.MAX_FRAME_BYTES):
            return False
        # Same atomic write discipline as CompileCache._spill: published
        # entries are content-addressed, so concurrent writers of one
        # name race to identical bytes.
        tmp = self.cache.persist_dir / f".{name}.{os.getpid()}.push.tmp"
        try:
            tmp.write_bytes(data)
            os.replace(tmp, self.cache.persist_dir / name)
        except OSError:
            return False
        return True

    # -- inspection ----------------------------------------------------------

    def stats(self) -> dict:
        with self._state_lock:
            active = sum(len(p) for p in self._conn_pending)
            connections = len(self._conns)
        return {
            "worker": self.name,
            "pid": os.getpid(),
            "address": ("%s:%s" % self.address if self.address is not None
                        else None),
            "slots": self.slots,
            "active": active,
            "connections": connections,
            "connections_total": self.connections_total,
            "jobs_ok": self.jobs_ok,
            "jobs_failed": self.jobs_failed,
            "jobs_cancelled": self.jobs_cancelled,
            "rejects": self.rejects,
            "cache_share": self.cache.persist_dir is not None,
            "pool": self.pool.stats(),
            "cache": self.cache.stats(),
            "replay_cache": self.replay_cache.stats(),
            "metrics": self.metrics.summary(),
        }


def run_worker(listen: str = "127.0.0.1:0",
               cache_dir: str | None = None, slots: int = 1,
               name: str | None = None) -> int:
    """``repro worker`` entry point: serve until SIGINT/SIGTERM/shutdown.

    Prints the bound address on stdout (``--listen host:0`` picks an
    ephemeral port), which is how launchers discover where an ephemeral
    worker landed.
    """
    host, port = parse_listen(listen)
    server = WorkerServer(host, port, cache_dir=cache_dir, slots=slots,
                          name=name)
    print(f"repro worker listening on "
          f"{server.address[0]}:{server.address[1]} "
          f"(pid {os.getpid()}, slots {server.slots}, "
          f"cache_dir {cache_dir or '-'})", flush=True)

    def _terminate(signum, frame):
        raise SystemExit(0)

    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        server.serve_forever()
    except (KeyboardInterrupt, SystemExit):
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.stop()
    return 0
