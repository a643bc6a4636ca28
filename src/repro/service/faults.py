"""Deterministic fault injection: chaos you can replay bit-for-bit.

A :class:`FaultPlan` decides — as a pure function of ``(plan seed, site,
job seed, attempt)`` — whether a named lifecycle site of a job attempt
fails, and how: a transient exception, a worker crash (SIGKILL of the
executing process), or a hang.  Because the decision is stateless and
seeded, the same plan injects the same faults into the same jobs on
every backend and every run: CI can assert that a sweep under ≥10%
injected failures retries back to *bit-identical* averages, and a
SIGKILL test kills the same worker job every time.

Sites mirror the job lifecycle spans (``repro.obs.spans``): ``compile``,
``acquire``, ``execute``, ``collect``.  Attempt-dependence is the key to
recovery semantics: a fault that fires on attempt 0 is re-decided on
attempt 1, and ``max_faults_per_site`` caps how many attempts in a row a
site may fail (recomputed statelessly, so the cap needs no shared
state).

Enable explicitly (``Session(faults=FaultPlan(seed=7))``,
``ExperimentService(faults=...)``) or ambiently via the environment
(inherited by worker processes)::

    REPRO_FAULT_SEED=1234 REPRO_FAULT_RATE=0.2 repro exp rabi --retries 3
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field

import numpy as np

from repro.utils.errors import ConfigurationError, FaultInjected

#: Named injection sites, in job-lifecycle order.
FAULT_SITES = ("compile", "acquire", "execute", "collect")

#: Supported fault kinds.  ``transient`` raises a retryable
#: :class:`FaultInjected`; ``crash`` SIGKILLs the executing worker
#: process (downgraded to ``transient`` in-process, where a crash would
#: take the caller down with it); ``hang`` sleeps ``hang_s`` at the site
#: and then continues (surfacing as a :class:`JobTimeout` when the spec
#: carries a deadline, or as a hung worker for the fleet's hang ceiling to reap).
FAULT_KINDS = ("transient", "crash", "hang")

#: Environment switch: presence of a seed enables ambient injection.
ENV_SEED = "REPRO_FAULT_SEED"
ENV_RATE = "REPRO_FAULT_RATE"
ENV_SITES = "REPRO_FAULT_SITES"
ENV_KINDS = "REPRO_FAULT_KINDS"
ENV_HANG_S = "REPRO_FAULT_HANG_S"
ENV_MAX_PER_SITE = "REPRO_FAULT_MAX_PER_SITE"


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, picklable chaos schedule over job-lifecycle sites."""

    seed: int
    rate: float = 0.1
    sites: tuple[str, ...] = FAULT_SITES
    kinds: tuple[str, ...] = ("transient",)
    #: Sleep length for ``hang`` faults (seconds).
    hang_s: float = 0.05
    #: Cap on injected faults per (job, site) across attempts; None means
    #: unbounded (a rate-1.0 site then fails every attempt).
    max_faults_per_site: int | None = 1
    #: Injection counters by ``(site, kind)``; local to each executing
    #: context (worker counters additionally land in its metrics
    #: registry).  Excluded from equality/pickle determinism concerns —
    #: it is bookkeeping, not schedule state.
    injected: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigurationError("fault rate must be in [0, 1]")
        for site in self.sites:
            if site not in FAULT_SITES:
                raise ConfigurationError(
                    f"unknown fault site {site!r}; choose from {FAULT_SITES}")
        for kind in self.kinds:
            if kind not in FAULT_KINDS:
                raise ConfigurationError(
                    f"unknown fault kind {kind!r}; choose from {FAULT_KINDS}")
        if not self.kinds:
            raise ConfigurationError("fault plan needs at least one kind")

    # -- deterministic schedule ----------------------------------------------

    def _uniforms(self, site: str, job_seed: int, attempt: int) -> np.ndarray:
        """Two U[0,1) draws for (fire?, which kind?), stable everywhere."""
        entropy = [int(self.seed) & 0xFFFFFFFF, FAULT_SITES.index(site),
                   int(job_seed) & 0xFFFFFFFF, int(attempt)]
        return (np.random.SeedSequence(entropy).generate_state(2, np.uint32)
                / 2**32)

    def fault_for(self, site: str, job_seed: int, attempt: int) -> str | None:
        """The fault kind this site/attempt suffers, or None.

        Pure and stateless: the per-site cap is honored by re-deciding
        all earlier attempts, so every executing context — parent,
        worker, a respawned worker resuming at a later base attempt —
        agrees on the schedule without sharing state.
        """
        if site not in self.sites or self.rate <= 0.0:
            return None
        fire, pick = self._uniforms(site, job_seed, attempt)
        if fire >= self.rate:
            return None
        if self.max_faults_per_site is not None:
            earlier = sum(
                1 for a in range(attempt)
                if self._uniforms(site, job_seed, a)[0] < self.rate)
            if earlier >= self.max_faults_per_site:
                return None
        return self.kinds[int(pick * len(self.kinds)) % len(self.kinds)]

    # -- injection -----------------------------------------------------------

    def check(self, site: str, job_seed: int, attempt: int = 0, *,
              allow_crash: bool = False, metrics=None,
              label: str = "") -> None:
        """Fire this site's scheduled fault for the attempt, if any.

        ``allow_crash`` is set only in expendable worker processes;
        elsewhere crash faults degrade to transient exceptions so chaos
        never kills the submitting process.  ``metrics`` (a
        :class:`~repro.obs.metrics.MetricsRegistry`) receives
        ``faults.<site>.<kind>`` counters.
        """
        kind = self.fault_for(site, job_seed, attempt)
        if kind is None:
            return
        if kind == "crash" and not allow_crash:
            kind = "transient"
        self.injected[(site, kind)] = self.injected.get((site, kind), 0) + 1
        if metrics is not None:
            metrics.counter(f"faults.{site}.{kind}").inc()
        if kind == "hang":
            time.sleep(self.hang_s)
            return
        if kind == "crash":
            os.kill(os.getpid(), signal.SIGKILL)
        raise FaultInjected(
            f"injected {kind} fault at {site} "
            f"(plan seed {self.seed}, job {label or job_seed}, "
            f"attempt {attempt})",
            site=site, attempt=attempt)

    # -- environment ---------------------------------------------------------

    @classmethod
    def from_env(cls, environ=None) -> "FaultPlan | None":
        """The ambient plan configured via ``REPRO_FAULT_*``, if any.

        Returns None unless ``REPRO_FAULT_SEED`` is set — chaos is
        strictly opt-in.  Worker processes inherit the environment, so
        one exported seed arms every executing context identically.
        """
        environ = os.environ if environ is None else environ
        seed = environ.get(ENV_SEED)
        if seed is None or seed == "":
            return None
        max_per_site = environ.get(ENV_MAX_PER_SITE)
        return cls(
            seed=int(seed),
            rate=float(environ.get(ENV_RATE, 0.1)),
            sites=_csv(environ.get(ENV_SITES)) or FAULT_SITES,
            kinds=_csv(environ.get(ENV_KINDS)) or ("transient",),
            hang_s=float(environ.get(ENV_HANG_S, 0.05)),
            max_faults_per_site=(None if max_per_site in (None, "", "none")
                                 else int(max_per_site)),
        )

    def stats(self) -> dict:
        """Injection counters observed by this context, JSON-ready."""
        return {f"{site}.{kind}": count
                for (site, kind), count in sorted(self.injected.items())}


def _csv(text: str | None) -> tuple[str, ...]:
    if not text:
        return ()
    return tuple(part.strip() for part in text.split(",") if part.strip())
