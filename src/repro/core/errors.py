"""Typed error hierarchy for the health cloud platform.

Every failure surfaced by the platform is an instance of
:class:`HealthCloudError`.  Subsystems raise the narrowest subclass that
describes the fault so callers can catch exactly what they can handle.

The API gateway maps exceptions to HTTP statuses through one table,
:data:`HTTP_STATUS_BY_ERROR` (resolved along the exception's MRO by
:func:`http_status_for`), instead of per-branch response construction —
new error classes get a wire status by adding one row here.
"""

from __future__ import annotations

from typing import Dict


class HealthCloudError(Exception):
    """Base class for all platform errors."""


class ConfigurationError(HealthCloudError):
    """A component was constructed or configured with invalid parameters."""


class AuthenticationError(HealthCloudError):
    """The caller's identity could not be established."""


class AuthorizationError(HealthCloudError):
    """The caller's identity is known but lacks the required permission."""


class NotFoundError(HealthCloudError):
    """A referenced entity (tenant, user, record, key, ...) does not exist."""


class AlreadyExistsError(HealthCloudError):
    """An entity with the same identifier already exists."""


class ValidationError(HealthCloudError):
    """Submitted data failed schema or semantic validation."""


class IntegrityError(HealthCloudError):
    """A cryptographic integrity or authenticity check failed."""


class AttestationError(HealthCloudError):
    """A platform component failed trust appraisal against golden values."""


class ConsentError(HealthCloudError):
    """An operation would use patient data without a covering consent."""


class AnonymizationError(HealthCloudError):
    """Data claimed to be anonymized does not meet the required degree."""


class KeyManagementError(HealthCloudError):
    """A key could not be created, fetched, or has been destroyed."""


class LedgerError(HealthCloudError):
    """A blockchain transaction was rejected or the ledger is inconsistent."""


class EndorsementError(LedgerError):
    """A transaction failed to gather the endorsements its policy requires."""


class ExportError(HealthCloudError):
    """A data export request could not be satisfied."""


class ComplianceError(HealthCloudError):
    """An operation would violate a regulatory control (HIPAA/GDPR/GxP)."""


class ChangeManagementError(ComplianceError):
    """A deployment change was attempted without an approved change record."""


class GatewayError(HealthCloudError):
    """Intercloud workload transfer failed."""


class ServiceUnavailableError(HealthCloudError):
    """An external (simulated) web service is down or timed out."""


class CacheConsistencyError(HealthCloudError):
    """A cache consistency protocol invariant was violated."""


class ModelLifecycleError(HealthCloudError):
    """An analytics model was used in a stage that its lifecycle forbids."""


class DisconnectedError(HealthCloudError):
    """A client operation required connectivity while offline."""


class ComputeError(HealthCloudError):
    """A distributed compute job could not be scheduled or executed."""


class TaskFailedError(ComputeError):
    """A task function raised; the owning job is failed."""


class TaskCancelledError(ComputeError):
    """The job was cancelled before this operation could complete."""


class NonIdempotentReplayError(ComputeError):
    """Recovery would re-execute a task declared non-idempotent."""


class WorkerExhaustedError(ComputeError):
    """Every worker is down and no replacement can be provisioned."""


class StudyError(HealthCloudError):
    """A federated study operation violated its lifecycle or approval policy."""


class RateLimitError(HealthCloudError):
    """The caller exceeded its request rate limit."""


class DeadlineExceededError(HealthCloudError):
    """A request's deadline passed before the work completed."""


# -- exception -> HTTP status mapping (API gateway) ---------------------------

HTTP_STATUS_BY_ERROR: Dict[type, int] = {
    AuthenticationError: 401,
    AuthorizationError: 403,
    ConsentError: 403,
    NotFoundError: 404,
    AlreadyExistsError: 409,
    ValidationError: 422,
    AnonymizationError: 422,
    RateLimitError: 429,
    StudyError: 409,
    TaskCancelledError: 409,
    ComputeError: 500,
    WorkerExhaustedError: 503,
    ConfigurationError: 500,
    IntegrityError: 500,
    ServiceUnavailableError: 503,
    DisconnectedError: 503,
    DeadlineExceededError: 504,
    HealthCloudError: 500,
}


def http_status_for(exc: BaseException) -> int:
    """HTTP status for an exception, resolved along its MRO (default 500)."""
    for cls in type(exc).__mro__:
        status = HTTP_STATUS_BY_ERROR.get(cls)
        if status is not None:
            return status
    return 500
