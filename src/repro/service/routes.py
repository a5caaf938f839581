"""The service surface, declared as data.

``PROTOCOL_VERSION`` is the JSON-line protocol's integer version,
carried in every ``ping``/``hello`` reply so clients can refuse a
server they do not understand, and stamped into each served artifact's
provenance.

The op table below is the single source of truth for the wire surface:
the server dispatches on these ops, ``docs/api.md`` embeds the markdown
:func:`render_api_reference` produces (checked generated, see
``tools/lint_api_surface.py``), and the tests assert the two never
drift.  Adding an op means editing exactly one tuple here.
"""

from __future__ import annotations

from repro.service.errors import ERROR_CODES

#: JSON-line protocol version, echoed by ``ping`` and ``hello``.
PROTOCOL_VERSION = 1

#: Every JSON-line op the server answers.
OPS = (
    ("ping", "liveness; replies `pong` + `protocol_version`"),
    ("hello", "server identity, job-state counts and load-shed counters"),
    ("submit", "submit a job object (`spec` field)"),
    ("status", "one job's status (`job` field)"),
    ("jobs", "list this tenant's job statuses"),
    ("artifact", "the finished artifact (`job` field)"),
    ("cancel", "cancel, idempotent (`cancelled` reports the transition)"),
    ("events", "stream the transcript, then live events, then a done marker"),
)


def render_api_reference() -> str:
    """The generated section of ``docs/api.md`` (markdown).

    Regenerated and diffed by ``tools/lint_api_surface.py`` and pinned
    by the test suite, so the published reference cannot drift from the
    tables the server actually dispatches on.
    """
    lines = [
        f"Protocol version: **{PROTOCOL_VERSION}**.",
        "",
        "### JSON-line ops",
        "",
        "| Op | Meaning |",
        "|---|---|",
    ]
    for op, description in OPS:
        lines.append(f"| `{op}` | {description} |")
    lines += [
        "",
        "### Error codes",
        "",
        "| Code | Retryable |",
        "|---|---|",
    ]
    for code in sorted(ERROR_CODES):
        retryable = "yes" if ERROR_CODES[code].retryable else "no"
        lines.append(f"| `{code}` | {retryable} |")
    return "\n".join(lines) + "\n"
