"""The one service error surface, shared by server and client.

Every failure the service can hand a caller is an instance of exactly
one class below, each pinning the pair the base
:class:`~repro.exceptions.ServiceError` declares: a stable ``code``
string (carried on the wire) and a ``retryable`` flag.  The server
serializes errors with :func:`error_payload`; the client rehydrates the
matching subclass with :func:`error_from_payload` — so a test (or a
caller) matches on the exception type or its ``code``, never on message
substrings.

Only :class:`RejectedError` carries extra state: ``retry_after``, the
seconds a shedding server suggests waiting, carried in the reply
payload.
"""

from __future__ import annotations

from repro.exceptions import ExperimentError, ReproError, ServiceError

__all__ = [
    "ArtifactNotReadyError",
    "AuthError",
    "InvalidJobError",
    "ProtocolError",
    "RejectedError",
    "UnknownJobError",
    "as_service_error",
    "error_from_payload",
    "error_payload",
]

#: Default ``Retry-After`` seconds suggested by load-shed rejections.
DEFAULT_RETRY_AFTER = 5


class ProtocolError(ServiceError):
    """The request itself is unreadable: bad JSON, bad framing, bad op."""

    code = "protocol"
    retryable = False


class InvalidJobError(ServiceError):
    """The submitted job object failed validation; nothing was created."""

    code = "invalid_job"
    retryable = False


class UnknownJobError(ServiceError):
    """No job with that id is visible to this tenant."""

    code = "unknown_job"
    retryable = False


class ArtifactNotReadyError(ServiceError):
    """The job exists but has not produced an artifact (yet, or ever)."""

    code = "artifact_not_ready"
    retryable = True


class AuthError(ServiceError):
    """Missing or unrecognized bearer token on an authenticated server."""

    code = "unauthorized"
    retryable = False


class RejectedError(ServiceError):
    """Admission control shed this submission; retry after a backoff."""

    code = "rejected"
    retryable = True

    def __init__(self, message: str, *, retry_after: int = DEFAULT_RETRY_AFTER):
        super().__init__(message)
        self.retry_after = int(retry_after)


#: code → class, the wire-format contract ``error_from_payload`` decodes by.
ERROR_CODES = {
    cls.code: cls
    for cls in (
        ServiceError,
        ProtocolError,
        InvalidJobError,
        UnknownJobError,
        ArtifactNotReadyError,
        AuthError,
        RejectedError,
    )
}


def as_service_error(error: Exception) -> ServiceError:
    """Coerce any library error into the service hierarchy.

    Job-validation failures (:class:`ExperimentError` out of
    ``normalize_job``) become :class:`InvalidJobError`; other library
    errors keep their message under the base ``service_error`` code.
    """
    if isinstance(error, ServiceError):
        return error
    if isinstance(error, ExperimentError):
        return InvalidJobError(str(error))
    if isinstance(error, ReproError):
        return ServiceError(str(error))
    raise TypeError(f"not a library error: {error!r}")


def error_payload(error: ServiceError) -> dict:
    """The wire fields of one error.

    The JSON-line reply is ``{"ok": false, **error_payload(...)}``.
    """
    payload = {
        "error": str(error),
        "code": error.code,
        "retryable": bool(error.retryable),
    }
    retry_after = getattr(error, "retry_after", None)
    if retry_after is not None:
        payload["retry_after"] = int(retry_after)
    return payload


def error_from_payload(payload: dict) -> ServiceError:
    """Rehydrate the typed error a reply payload describes.

    Unknown codes (a newer server) degrade to the base
    :class:`ServiceError`, never to a crash.
    """
    message = str(payload.get("error", "unspecified server error"))
    cls = ERROR_CODES.get(payload.get("code"), ServiceError)
    if cls is RejectedError:
        return RejectedError(
            message, retry_after=payload.get("retry_after", DEFAULT_RETRY_AFTER)
        )
    return cls(message)
