"""Fleet executor backends: worker daemons behind the futures contract.

:class:`FleetBackend` shards submissions across N worker daemons by
least outstanding jobs (ties to the lowest worker index), maps any
connection loss, heartbeat silence or overstayed job to
:class:`~repro.utils.errors.WorkerLost`, and resubmits the casualties to
surviving workers with an advanced base attempt.  Job execution is a
pure function of the spec, so a sweep that loses a worker mid-flight
still gathers bit-identical results.

:class:`RemoteBackend` is the single-worker specialization: it serves
the "one remote box" deployment and, on loss, tries to *reconnect* to
the same address before giving up (a restarted daemon picks the work
back up).

:class:`LocalFleetBackend` is ``backend="process"``: the same fleet over
daemons forked from this process, re-forked in place when lost.

Cache sharing: :meth:`FleetBackend.sync_compile_caches` unions the
workers' content-addressed compile-cache spills (``CACHE_LIST`` /
``GET`` / ``PUT`` frames), pushes every worker the entries it is
missing, and mirrors the union into the backend's local ``cache_dir``
when one is configured — one host's codegen warms every host.  The sync
also runs best-effort at :meth:`close`.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import signal
import threading
import time
import weakref

from repro.service.backends.base import ExecutorBackend
from repro.service.faults import FaultPlan
from repro.service.fleet.client import WorkerClient
from repro.service.fleet.worker import WorkerServer
from repro.service.job import JobFuture, JobSpec
from repro.service.policy import NO_RETRY, wrap_job_failure
from repro.utils.errors import ConfigurationError, WorkerLost

#: Comma-separated ``host:port`` list naming the fleet's workers; the
#: default address source so ``ExperimentService(backend="fleet")`` and
#: the pinned parity suite work without explicit plumbing.
FLEET_WORKERS_ENV = "REPRO_FLEET_WORKERS"


def fleet_addresses_from_env() -> tuple[str, ...]:
    raw = os.environ.get(FLEET_WORKERS_ENV, "")
    return tuple(part.strip() for part in raw.split(",") if part.strip())


class FleetBackend(ExecutorBackend):
    """Load-balance jobs across N fleet workers; survive losing some.

    ``addresses`` lists the worker daemons (``host:port``); when omitted
    it comes from ``$REPRO_FLEET_WORKERS``.  Connections are dialed
    lazily on first submit, and a dial failure is a loud
    :class:`ConfigurationError` — a fleet pointed at dead workers is
    misconfigured, not unlucky.

    Parallelism is the number of daemons.  ``faults`` travels with every
    ``SUBMIT`` frame — a :class:`FaultPlan` is a frozen, stateless
    schedule, so shipping it per job gives every daemon the same
    deterministic chaos (daemons may *also* arm ambiently from their own
    ``REPRO_FAULT_*`` environment; a client-supplied plan wins for its
    jobs).

    Jobs with a ``timeout`` get a hard ceiling: on each heartbeat tick,
    a worker whose oldest in-flight job has overstayed its whole attempt
    budget (``timeout`` times the attempts left, plus the total backoff,
    plus :attr:`KILL_GRACE_S`) is marked lost.  The job's clock starts
    at the later of its placement and that worker's last delivered
    result: a one-slot daemon runs its jobs in arrival order.
    """

    name = "fleet"

    #: Slack added to a job's whole attempt budget before its worker is
    #: presumed hung and marked lost.
    KILL_GRACE_S = 1.0

    def __init__(self, addresses=None, *, cache_dir: str | None = None,
                 faults: FaultPlan | None = None,
                 max_quarantine: int | None = None,
                 connect_timeout: float = 5.0,
                 request_timeout: float = 60.0,
                 heartbeat_s: float = 1.0, heartbeat_misses: int = 5,
                 reconnect_lost: bool = False):
        super().__init__(max_quarantine=max_quarantine)
        if addresses is None:
            addresses = fleet_addresses_from_env()
        if isinstance(addresses, str):
            addresses = (addresses,)
        self.addresses = tuple(addresses)
        if not self.addresses:
            raise ConfigurationError(
                f"a fleet needs worker addresses: pass addresses=/"
                f"fleet_workers=, or export {FLEET_WORKERS_ENV}="
                f"host:port[,host:port...] after starting daemons with "
                f"'repro worker --listen host:port'")
        self.faults = faults
        self.cache_dir = cache_dir
        self.connect_timeout = connect_timeout
        self.request_timeout = request_timeout
        self.heartbeat_s = heartbeat_s
        self.heartbeat_misses = heartbeat_misses
        self.reconnect_lost = reconnect_lost
        self.worker_losses = 0
        self.resubmissions = 0
        self.reconnects = 0
        self.hang_kills = 0
        self.last_cache_sync: dict | None = None
        # Reentrant: loss handling runs inside submit-path sends and
        # recursively when a resubmission target dies in the same breath.
        self._fleet_lock = threading.RLock()
        self._clients: list[WorkerClient | None] = [None] * len(self.addresses)
        self._loads = [0] * len(self.addresses)
        self._shipped = [0] * len(self.addresses)
        self._delivered_at = [0.0] * len(self.addresses)
        self._inflight: dict[int, dict] = {}
        self._tokens = itertools.count()
        self._started = False
        self._closing = False

    # -- connections ---------------------------------------------------------

    def _client(self, address: str) -> WorkerClient:
        """An unconnected client wired to this backend's callbacks."""
        return WorkerClient(
            address,
            connect_timeout=self.connect_timeout,
            request_timeout=self.request_timeout,
            heartbeat_s=self.heartbeat_s,
            heartbeat_misses=self.heartbeat_misses,
            on_result=self._on_result, on_error=self._on_error,
            on_lost=self._on_lost, on_tick=self._check_overstay)

    def _new_client(self, index: int) -> WorkerClient:
        return self._client(self.addresses[index]).connect()

    def _ensure_started(self) -> None:
        with self._fleet_lock:
            if self._started:
                return
            for index in range(len(self.addresses)):
                try:
                    self._clients[index] = self._new_client(index)
                except Exception as exc:
                    for client in self._clients:
                        if client is not None:
                            client.close()
                    raise ConfigurationError(
                        f"cannot connect to fleet worker "
                        f"{self.addresses[index]}: {exc}") from exc
            self._started = True

    def _index_of(self, client: WorkerClient) -> int | None:
        for index, candidate in enumerate(self._clients):
            if candidate is client:
                return index
        return None

    def _live_indices(self) -> list[int]:
        return [i for i, c in enumerate(self._clients)
                if c is not None and c.alive]

    # -- submission ----------------------------------------------------------

    def _submit(self, spec: JobSpec) -> JobFuture:
        future = JobFuture(spec)
        self._ensure_started()
        self._place(spec, future, base_attempt=0)
        return future

    def _place(self, spec: JobSpec, future: JobFuture,
               base_attempt: int) -> None:
        """Register and ship one job to the least-loaded live worker.

        Registration and the socket write happen under the fleet lock so
        a loss detected by the reader thread either sees the in-flight
        entry (and recovers it) or runs before the pick (and the pick
        avoids the dead worker) — never a half-registered job.
        """
        with self._fleet_lock:
            live = self._live_indices()
            if not live:
                self._resolve_lost(
                    spec, future, base_attempt,
                    WorkerLost("no live fleet workers remain",
                               worker=",".join(self.addresses)))
                return
            index = min(live, key=lambda i: (self._loads[i], i))
            token = next(self._tokens)
            self._inflight[token] = {"spec": spec, "future": future,
                                     "base_attempt": base_attempt,
                                     "worker": index,
                                     "placed_at": time.monotonic()}
            self._loads[index] += 1
            self._shipped[index] += 1
            client = self._clients[index]
            try:
                client.submit(token, spec, base_attempt, faults=self.faults)
            except Exception as exc:
                # The write found the corpse before the reader did; the
                # loss handler recovers this entry with everything else
                # that worker had in flight.
                client.mark_lost(
                    f"submit to worker {client.address} failed: {exc}")
                return
        future.add_done_callback(
            lambda f, token=token: self._forget_cancelled(token, f))

    def _forget_cancelled(self, token: int, future: JobFuture) -> None:
        if not future.cancelled():
            return
        with self._fleet_lock:
            entry = self._inflight.pop(token, None)
            if entry is None:
                return
            self._loads[entry["worker"]] -= 1
            client = self._clients[entry["worker"]]
        if client is not None:
            client.cancel(token)

    # -- result delivery (reader threads) ------------------------------------

    def _take(self, client: WorkerClient, token: int) -> dict | None:
        with self._fleet_lock:
            index = self._index_of(client)
            if index is not None:
                self._delivered_at[index] = time.monotonic()
            entry = self._inflight.pop(token, None)
            if entry is not None:
                self._loads[entry["worker"]] -= 1
            return entry

    def _on_result(self, client: WorkerClient, token: int, result) -> None:
        entry = self._take(client, token)
        if entry is None:
            return  # cancelled (or recovered elsewhere) before arrival
        try:
            entry["future"].set_result(result)
        except RuntimeError:
            pass

    def _on_error(self, client: WorkerClient, token: int,
                  exc: Exception) -> None:
        entry = self._take(client, token)
        if entry is None:
            return
        try:
            entry["future"].set_exception(exc)
        except RuntimeError:
            pass

    # -- worker loss ---------------------------------------------------------

    def _check_overstay(self, client: WorkerClient) -> None:
        """Mark ``client`` lost if its running job overstayed its budget."""
        now = time.monotonic()
        with self._fleet_lock:
            index = self._index_of(client)
            if index is None:
                return
            running = next((entry for entry in self._inflight.values()
                            if entry["worker"] == index), None)
            if running is None or running["spec"].timeout is None:
                return
            spec, base = running["spec"], running["base_attempt"]
            policy = spec.retry if spec.retry is not None else NO_RETRY
            budget = (spec.timeout * max(1, policy.max_attempts - base)
                      + policy.total_backoff_s(base) + self.KILL_GRACE_S)
            elapsed = now - max(running["placed_at"],
                                self._delivered_at[index])
            if elapsed <= budget:
                return
            self.hang_kills += 1
        client.mark_lost(
            f"worker {client.address} overstayed job "
            f"{spec.label or spec.run_seed}: {elapsed:.1f} s against a "
            f"{budget:.1f} s budget")

    def _on_lost(self, client: WorkerClient, reason: str) -> None:
        with self._fleet_lock:
            index = self._index_of(client)
            if index is None:
                return  # a replaced connection's late death
            self.worker_losses += 1
            victims = [(token, entry)
                       for token, entry in self._inflight.items()
                       if entry["worker"] == index]
            for token, _ in victims:
                del self._inflight[token]
            self._loads[index] = 0
            if self.reconnect_lost and not self._closing:
                try:
                    self._clients[index] = self._new_client(index)
                    self.reconnects += 1
                except Exception:
                    self._clients[index] = None
            loss = WorkerLost(
                f"fleet worker {client.address} lost: {reason}",
                worker=client.address)
            for _, entry in victims:
                if entry["future"].cancelled():
                    continue
                policy = (entry["spec"].retry
                          if entry["spec"].retry is not None else NO_RETRY)
                if (not self._closing
                        and policy.should_retry(loss, entry["base_attempt"])):
                    self.resubmissions += 1
                    self._place(entry["spec"], entry["future"],
                                entry["base_attempt"] + 1)
                else:
                    self._resolve_lost(entry["spec"], entry["future"],
                                       entry["base_attempt"], loss)

    def _resolve_lost(self, spec: JobSpec, future: JobFuture,
                      lost_attempt: int, loss: WorkerLost) -> None:
        policy = spec.retry if spec.retry is not None else NO_RETRY
        try:
            future.set_exception(wrap_job_failure(
                loss, attempts=lost_attempt + 1, label=spec.label,
                seed=spec.run_seed,
                quarantined=(policy.is_retryable(loss)
                             and policy.max_attempts > 1)))
        except RuntimeError:
            pass

    # -- cache sharing -------------------------------------------------------

    def sync_compile_caches(self) -> dict:
        """Union the fleet's content-addressed compile-cache entries.

        Every worker ends up holding every entry any worker (or the
        local ``cache_dir``) holds; the union is mirrored locally when
        ``cache_dir`` is set.  Content-addressed names make the pushes
        idempotent — concurrent syncs race to identical bytes.  Workers
        without a ``--cache-dir`` advertise ``cache_share: False`` and
        are skipped.
        """
        with self._fleet_lock:
            members = [(i, self._clients[i]) for i in self._live_indices()
                       if self._clients[i].welcome.get("cache_share")]
        holdings: dict[int, set] = {}
        union: dict[str, int] = {}  # name -> an owner index
        for index, client in members:
            names = client.cache_names()
            holdings[index] = set(names)
            for name in names:
                union.setdefault(name, index)
        local: dict[str, bytes] = {}
        local_dir = None
        if self.cache_dir is not None:
            from repro.service.fleet.worker import _CACHE_NAME
            from pathlib import Path
            local_dir = Path(self.cache_dir)
            local_dir.mkdir(parents=True, exist_ok=True)
            for path in local_dir.iterdir():
                if _CACHE_NAME.match(path.name):
                    local[path.name] = path.read_bytes()
            for name in local:
                union.setdefault(name, -1)
        clients = dict(members)
        fetched: dict[str, bytes] = {}

        def content(name: str) -> bytes | None:
            if name in local:
                return local[name]
            if name in fetched:
                return fetched[name]
            data = clients[union[name]].cache_get(name)
            if data is not None:
                fetched[name] = data
            return data

        pushed = pulled = 0
        for index, client in members:
            for name in sorted(set(union) - holdings[index]):
                data = content(name)
                if data is not None and client.cache_put(name, data):
                    pushed += 1
        if local_dir is not None:
            for name in sorted(set(union) - set(local)):
                data = content(name)
                if data is None:
                    continue
                tmp = local_dir / f".{name}.{os.getpid()}.pull.tmp"
                tmp.write_bytes(data)
                os.replace(tmp, local_dir / name)
                pulled += 1
        summary = {"workers": len(members), "entries": len(union),
                   "pushed": pushed, "pulled": pulled}
        self.last_cache_sync = summary
        return summary

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Disconnect (daemons keep running for other clients)."""
        with self._fleet_lock:
            if self._closing:
                return
            self._closing = True
            started = self._started
        if started:
            try:
                self.sync_compile_caches()
            except Exception:
                pass  # best-effort: a half-dead fleet still closes cleanly
        for client in self._clients:
            if client is not None:
                client.close()
        super().close()

    # -- inspection ----------------------------------------------------------

    def stats(self) -> dict:
        stats = super().stats()
        with self._fleet_lock:
            workers = []
            for index, address in enumerate(self.addresses):
                client = self._clients[index]
                workers.append({
                    "index": index,
                    "address": address,
                    "client": client,
                    "alive": client is not None and client.alive,
                    "outstanding": self._loads[index],
                    "shipped": self._shipped[index],
                })
        # The remote round-trips happen outside the fleet lock: the reader
        # thread that delivers the stats reply takes that lock to deliver
        # job results, so holding it here would stall both.
        for entry in workers:
            client = entry.pop("client")
            if client is not None and client.alive:
                try:
                    entry["remote"] = client.stats(timeout=5.0)
                except Exception:
                    entry["alive"] = client.alive
        stats["workers"] = workers
        stats["worker_losses"] = self.worker_losses
        stats["resubmissions"] = self.resubmissions
        stats["reconnects"] = self.reconnects
        stats["hang_kills"] = self.hang_kills
        if self.last_cache_sync is not None:
            stats["cache_sync"] = self.last_cache_sync
        return stats


class RemoteBackend(FleetBackend):
    """One remote worker behind the executor contract.

    The fleet machinery with a single address and ``reconnect_lost``
    on by default: a dropped connection or silent worker becomes
    :class:`WorkerLost`, the client re-dials the same daemon, and
    retry-eligible jobs are resubmitted there — a restarted worker
    resumes the sweep.  With the daemon really gone, jobs resolve
    terminally through the normal quarantine path.
    """

    name = "remote"

    def __init__(self, address: str, **kwargs):
        kwargs.setdefault("reconnect_lost", True)
        super().__init__([address], **kwargs)

    @property
    def address(self) -> str:
        return self.addresses[0]


#: Both ends of every local daemon's pipe still open in this process.  A
#: forked daemon closes all of them but its own end, so only the owner
#: can reach a daemon, and each daemon sees EOF once its owner closes the
#: connection or dies.
_LOCAL_PIPES: weakref.WeakSet = weakref.WeakSet()


def _serve_local(pipe, cache_dir: str | None) -> None:
    """Body of a fork-started local daemon: serve ``pipe``, then exit."""
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # ^C is the owner's
        for other in list(_LOCAL_PIPES):
            if other is not pipe:
                other.close()
        WorkerServer(port=None, cache_dir=cache_dir,
                     allow_crash=True).serve_connection(pipe)
    finally:
        # No interpreter shutdown: it would join a hung job's thread.
        os._exit(0)


class LocalFleetBackend(FleetBackend):
    """``backend="process"``: the fleet over ``workers`` forked daemons.

    Each daemon is a listener-less, crash-allowing :class:`WorkerServer`
    forked from the default ``multiprocessing`` context onto one end of
    a duplex ``multiprocessing`` pipe (a socketpair on POSIX, framed by
    the pipe itself); it exits when that connection closes.  Every loss
    SIGKILLs the old daemon if it still runs and forks a fresh one in
    its slot (DESIGN.md "The fleet").
    """

    name = "process"

    def __init__(self, workers: int | None = None,
                 cache_dir: str | None = None,
                 faults: FaultPlan | None = None,
                 max_quarantine: int | None = None):
        self.workers = max(1, workers or 1)
        self._children: list = [None] * self.workers
        super().__init__([f"local:{i}" for i in range(self.workers)],
                         cache_dir=cache_dir, faults=faults,
                         max_quarantine=max_quarantine, reconnect_lost=True)

    def _new_client(self, index: int) -> WorkerClient:
        self._reap(index)
        ours, theirs = multiprocessing.Pipe()
        _LOCAL_PIPES.update((ours, theirs))
        child = multiprocessing.get_context().Process(
            target=_serve_local, args=(theirs, self.cache_dir),
            name=f"repro-local-worker-{index}", daemon=True)
        try:
            child.start()
        except BaseException:
            ours.close()
            raise
        finally:
            theirs.close()
        self._children[index] = child
        return self._client(f"pid:{child.pid}").connect(ours)

    def _reap(self, index: int, timeout: float = 0.0) -> None:
        """Give slot ``index``'s daemon ``timeout`` s to exit, then SIGKILL it."""
        child, self._children[index] = self._children[index], None
        if child is None:
            return
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join()

    def close(self) -> None:
        """Disconnect (each daemon then exits on EOF) and reap the daemons."""
        super().close()
        for index in range(self.workers):
            self._reap(index, timeout=5.0)
