"""Pluggable executor backends for the experiment service.

The scheduler's old if/else backend dispatch, refactored into a package:
every backend implements the :class:`ExecutorBackend` contract
(``submit(spec) -> JobFuture``, ``drain()``, ``close()``, ``stats()``)
and the service composes them through a
:class:`~repro.service.dispatch.Dispatcher`.

* :class:`SerialBackend` — in-process reference implementation;
* :class:`FleetBackend` / :class:`RemoteBackend` — worker daemons over
  the fleet socket protocol (``repro worker``), with least-outstanding
  sharding and cross-host ``WorkerLost`` recovery;
* :class:`LocalFleetBackend` — ``backend="process"``: the fleet over
  fork-started local daemons on private pipes;
* :class:`BaselineBackend` — the APS2 cost model as a heterogeneous
  dispatch route.
"""

from __future__ import annotations

from repro.service.backends.base import (
    ExecutorBackend,
    execute_job,
    execute_with_retry,
    retry_call,
)
from repro.service.backends.baseline import BaselineBackend
from repro.service.backends.serial import SerialBackend
from repro.service.fleet.backend import (
    FleetBackend,
    LocalFleetBackend,
    RemoteBackend,
)
from repro.utils.errors import ConfigurationError

#: Selectable QuMA execution backends, by ``ExperimentService(backend=...)``
#: name.  (The baseline route is not selectable here — the dispatcher adds
#: it to every service.  RemoteBackend is constructed directly: it wants
#: one address, not a registry-shaped kwargs set.)
QUMA_BACKENDS = {
    SerialBackend.name: SerialBackend,
    LocalFleetBackend.name: LocalFleetBackend,
    FleetBackend.name: FleetBackend,
}


def create_backend(name: str, **kwargs) -> ExecutorBackend:
    """Instantiate a QuMA executor backend by registry name."""
    try:
        backend_cls = QUMA_BACKENDS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown backend {name!r}; choose from "
            f"{tuple(QUMA_BACKENDS)}") from None
    return backend_cls(**kwargs)


__all__ = [
    "BaselineBackend",
    "ExecutorBackend",
    "FleetBackend",
    "LocalFleetBackend",
    "QUMA_BACKENDS",
    "RemoteBackend",
    "SerialBackend",
    "create_backend",
    "execute_job",
    "execute_with_retry",
    "retry_call",
]
