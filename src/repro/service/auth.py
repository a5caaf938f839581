"""Bearer-token authentication and tenant identity.

A server started with ``--auth-token-file`` reads one ``tenant:token``
pair per line (blank lines and ``#`` comments ignored) and requires
every job-touching request to present a known token in the ``token``
field of its JSON-line message.
The tenant id is *derived from the token*, never client-asserted, and
scopes everything: listing, status, cancel, events, artifact.

Without a token file the server runs open and every caller acts as the
single :data:`DEFAULT_TENANT` — the PR 8 behaviour, unchanged.
"""

from __future__ import annotations

import hmac

from repro.service.errors import AuthError

#: The tenant every request maps to when authentication is disabled.
DEFAULT_TENANT = "public"


class TokenAuthenticator:
    """Map bearer tokens to tenant ids (or wave everyone through).

    ``tokens`` is ``{token: tenant}``; an empty/None mapping disables
    authentication entirely (:attr:`enabled` is False).
    """

    def __init__(self, tokens: dict[str, str] | None = None):
        self._tokens = dict(tokens or {})
        for token, tenant in self._tokens.items():
            if not token or not tenant:
                raise AuthError("auth tokens and tenant ids must be non-empty")

    @classmethod
    def from_file(cls, path) -> "TokenAuthenticator":
        """Parse a ``tenant:token``-per-line credentials file."""
        tokens: dict[str, str] = {}
        with open(path, encoding="utf-8") as handle:
            for number, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                tenant, sep, token = line.partition(":")
                tenant, token = tenant.strip(), token.strip()
                if not sep or not tenant or not token:
                    raise AuthError(
                        f"{path}:{number}: expected 'tenant:token', got {line!r}"
                    )
                if token in tokens:
                    raise AuthError(f"{path}:{number}: duplicate token")
                tokens[token] = tenant
        if not tokens:
            raise AuthError(f"{path}: no credentials found")
        return cls(tokens)

    @property
    def enabled(self) -> bool:
        return bool(self._tokens)

    def authenticate(self, token: str | None) -> str:
        """The tenant id a token proves; raises :class:`AuthError`.

        With authentication disabled every caller (token or not) is the
        :data:`DEFAULT_TENANT`.  Comparison is constant-time per stored
        token so the lookup leaks nothing about near-miss tokens.
        """
        if not self.enabled:
            return DEFAULT_TENANT
        if not token:
            raise AuthError("authentication required: missing bearer token")
        for known, tenant in self._tokens.items():
            if hmac.compare_digest(known, str(token)):
                return tenant
        raise AuthError("authentication failed: unknown bearer token")
