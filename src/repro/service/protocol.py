"""The wire format of the clustering-as-a-service job server: JSON lines.

Every message is one JSON object per ``\\n``-terminated line, and every
connection is a session of such lines.  Requests carry an ``op`` field
(``ping``, ``hello``, ``submit``, ``status``, ``jobs``, ``artifact``,
``cancel``, ``events``) and, on an authenticated server, a ``token``
field; responses carry ``ok: true`` plus op-specific fields, or
``ok: false`` with an ``error`` string plus the typed ``code`` /
``retryable`` fields of :mod:`repro.service.errors`.  ``ping`` and
``hello`` echo the protocol version
(:data:`repro.service.routes.PROTOCOL_VERSION`).  The ``events`` op
streams one event object per line (recognizable by its ``event`` field)
followed by a terminal ``{"ok": true, "done": true, ...}`` line.

Everything here is framing only — no job semantics.  Both sides are
stdlib-only by design (``json`` + sockets), so any client that can open
a TCP connection can drive the service.
"""

from __future__ import annotations

import json

from repro.service.errors import ProtocolError

#: Maximum bytes of one protocol line (guards ``readline`` buffering).
MAX_LINE_BYTES = 1 << 20


def encode_line(message: dict) -> bytes:
    """Serialize one protocol message as a JSON line."""
    return json.dumps(message, sort_keys=True).encode("utf-8") + b"\n"


def decode_line(raw: bytes) -> dict:
    """Parse one protocol line into a message object.

    Raises :class:`~repro.service.errors.ProtocolError` on anything that
    is not a single JSON object — the server answers those with an
    ``ok: false`` reply instead of dying.
    """
    try:
        message = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as error:
        # RecursionError: nesting deeper than the parser's stack
        raise ProtocolError(f"malformed protocol line: {error}") from error
    if not isinstance(message, dict):
        raise ProtocolError(
            f"protocol line must be a JSON object, got {type(message).__name__}"
        )
    return message

