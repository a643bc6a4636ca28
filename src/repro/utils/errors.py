"""Exception hierarchy for the QuMA reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.

All exception types here survive a pickle round-trip with their message
and extra attributes intact — job errors cross the process boundary from
worker daemons back to the submitting process, and a worker traceback that
arrives as ``<unpicklable>`` is useless.  The round-trip is pinned down
by ``tests/test_utils_errors.py`` for every class in this module.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library.

    ``__reduce__`` carries the instance ``__dict__`` through pickling, so
    subclasses that stash extra attributes (line numbers, remote
    tracebacks, attempt counts) keep them across the process boundary.
    """

    def __reduce__(self):
        return (_rebuild_error, (type(self), self.args, self.__dict__))


def _rebuild_error(cls, args, state):
    """Unpickle an error without re-running subclass ``__init__`` logic.

    Subclass constructors mutate their message (``AssemblyError`` prefixes
    the line number), so replaying ``cls(*args)`` would double-apply it.
    """
    exc = cls.__new__(cls)
    Exception.__init__(exc, *args)
    exc.__dict__.update(state)
    return exc


class AssemblyError(ReproError):
    """Raised when assembly source cannot be parsed or resolved.

    Carries the offending line number when available.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class EncodingError(ReproError):
    """Raised when an instruction cannot be encoded to / decoded from binary."""


class MicrocodeError(ReproError):
    """Raised for malformed microprograms or unknown Q-control-store entries."""


class TimingViolation(ReproError):
    """Raised (or recorded) when the deterministic timing domain is violated.

    A violation occurs when the timing queue underruns: an interval entry
    arrives after T_D has already passed the point at which the associated
    events should have fired (Section 5.2 decoupling requirement).
    """


class QueueOverflow(ReproError):
    """Raised when an event queue exceeds its configured capacity without
    back-pressure enabled."""


class CalibrationError(ReproError):
    """Raised when a calibration routine cannot produce usable parameters."""


class ConfigurationError(ReproError):
    """Raised for inconsistent machine or device configuration."""


class ProtocolError(ReproError):
    """Raised when the fleet wire protocol is violated.

    Covers handshake failures (version mismatch, rejected hello),
    malformed frames (bad magic, truncated payload, oversized length),
    and unexpected frame kinds.  Not a :class:`TransientJobError`:
    a protocol violation means the two endpoints disagree about the
    conversation, and retrying the same bytes cannot fix that.
    """


# -- job-failure semantics ----------------------------------------------------
#
# The service layer's failure taxonomy (see DESIGN.md "Failure semantics"):
# transient errors are retryable under a RetryPolicy; terminal failures are
# wrapped in a JobError that carries the remote traceback across the
# process boundary.


class TransientJobError(ReproError):
    """Base class for failures worth retrying.

    A :class:`~repro.service.policy.RetryPolicy` classifies exceptions of
    this family (plus any user-listed types) as retryable; job execution
    is a pure function of the spec, so a retry re-derives the identical
    job seed and a recovered job is bit-for-bit identical to a clean run.
    """


class FaultInjected(TransientJobError):
    """A deterministic fault from a :class:`~repro.service.faults.FaultPlan`.

    Carries the injection site and the attempt it fired on, so chaos runs
    can assert exactly which lifecycle stage failed.
    """

    def __init__(self, message: str, site: str = "", attempt: int = 0):
        self.site = site
        self.attempt = attempt
        super().__init__(message)


class WorkerLost(TransientJobError):
    """A worker process died (crash, SIGKILL, OOM) with this job in flight.

    Raised by the fleet backends on the *submitting* side; retryable
    because the loss says nothing about the job itself.
    """

    def __init__(self, message: str, worker: str = ""):
        self.worker = worker
        super().__init__(message)


class JobTimeout(TransientJobError):
    """A job attempt exceeded its ``JobSpec.timeout`` wall-clock budget.

    Retryable by default: deterministic hangs burn their bounded attempt
    budget and quarantine, while injected/transient hangs recover.
    """

    def __init__(self, message: str, stage: str = "", elapsed_s: float = 0.0):
        self.stage = stage
        self.elapsed_s = elapsed_s
        super().__init__(message)


class JobCancelled(ReproError):
    """The job's future was cancelled before a result arrived."""


class JobError(ReproError):
    """Terminal job failure: the uniform wrapper every backend raises.

    Produced once a job has exhausted its retry attempts (or failed
    non-retryably): the message is ``"<OriginalType>: <original message>"``
    on every backend, so serial, process, and fleet executions of the same
    faulty spec surface the *same* exception type and message — the
    failing-job parity contract.  ``remote_traceback`` preserves the full
    worker-side traceback that a bare pickled exception would lose.
    """

    def __init__(self, message: str, *, exc_type: str = "",
                 remote_traceback: str = "", attempts: int = 1,
                 label: str = "", seed: int | None = None,
                 quarantined: bool = False):
        self.exc_type = exc_type
        self.remote_traceback = remote_traceback
        self.attempts = attempts
        self.label = label
        self.seed = seed
        self.quarantined = quarantined
        super().__init__(message)

    def __str__(self) -> str:
        base = super().__str__()
        if self.attempts > 1:
            return f"{base} (after {self.attempts} attempts)"
        return base
