"""Wire-protocol line handling shared by ``serve`` and the front end.

The estimation service speaks newline-delimited JSON — one request
object per line, one response object per line (``docs/SERVICE.md``).
This module is the single place that turns a raw line into either an
:class:`~repro.service.requests.EstimateRequest` or a **structured
per-line error object**, and a parsed line into its answer object
(:func:`answer_request`), so the stdin ``serve`` loop and the network
front end's in-process shards answer and fail identically:

* malformed JSON            → ``code="bad_json"``
* not a JSON object         → ``code="bad_json"``
* unknown ``"v"`` envelope  → ``code="unsupported_version"``
* oversized line            → ``code="line_too_large"``
* schema/spec violations    → ``code="bad_request"``

Error objects follow the request's protocol generation.  v1 keeps the
historical shape (``error`` is the message string, so existing
``"error" in obj`` checks keep working) with the machine-readable
``code`` beside it; v2 nests both under ``error``::

    {"error": "unknown graph kind 'donut'", "code": "bad_request", "line": 3}
    {"v": 2, "error": {"code": "bad_request", "message": "..."}, "line": 3}

The front end adds two more codes with the same shapes:
``rate_limited`` and ``overloaded`` (see :mod:`repro.frontend.server`);
an estimation that raises answers ``internal``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

from ..service.requests import PROTOCOL_VERSIONS, EstimateRequest

__all__ = [
    "DEFAULT_MAX_LINE_BYTES",
    "ERROR_CODES",
    "ParsedLine",
    "answer_request",
    "error_payload",
    "parse_request_line",
]

#: Default cap on one request line.  A request is a spec string plus a
#: few scalars — far under 1 KiB — so 1 MiB is pure headroom against a
#: client streaming garbage into the event loop.
DEFAULT_MAX_LINE_BYTES = 1 << 20

#: Machine-readable error codes emitted by the service planes.
ERROR_CODES: tuple[str, ...] = (
    "bad_json",
    "unsupported_version",
    "line_too_large",
    "bad_request",
    "internal",
    "rate_limited",
    "overloaded",
)


def error_payload(
    code: str,
    message: str,
    *,
    version: int = 1,
    line: int | None = None,
    request_id: str | None = None,
    **extra: Any,
) -> dict[str, Any]:
    """One structured per-line error object in the caller's shape.

    ``version >= 2`` nests ``{"code", "message"}`` (plus any *extra*
    fields, e.g. ``retry_after_ms``) under ``error`` and stamps the v2
    envelope; v1 keeps ``error`` as the bare message string with
    ``code`` and extras as siblings.
    """
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}")
    out: dict[str, Any]
    if version >= 2:
        out = {"v": 2, "error": {"code": code, "message": message, **extra}}
    else:
        out = {"error": message, "code": code, **extra}
    if line is not None:
        out["line"] = line
    if request_id is not None:
        out["id"] = request_id
    return out


@dataclass(frozen=True)
class ParsedLine:
    """Outcome of parsing one request line.

    Exactly one of :attr:`request` / :attr:`error` is set.  ``version``
    is the protocol generation the line claimed (1 when it could not be
    decoded at all), so callers shape follow-up errors — execution
    failures, shedding — consistently with the request.
    """

    version: int = 1
    request: EstimateRequest | None = None
    obj: Mapping[str, Any] | None = None
    error: dict[str, Any] | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _request_id(obj: Any) -> str | None:
    """The line's ``id`` field when it is a usable scalar."""
    if isinstance(obj, Mapping):
        rid = obj.get("id")
        if isinstance(rid, (str, int)):
            return str(rid)
    return None


def parse_request_line(
    raw: str,
    *,
    lineno: int | None = None,
    max_bytes: int = DEFAULT_MAX_LINE_BYTES,
    default_mode: str | None = None,
) -> ParsedLine:
    """Parse one raw request line into a :class:`ParsedLine`.

    Never raises on bad input — every failure mode comes back as a
    structured :attr:`ParsedLine.error` payload ready to write to the
    client.  ``default_mode`` fills the request's executor mode when the
    line does not name one (the ``serve --mode`` override).
    """
    if max_bytes and len(raw) > max_bytes:
        # len() counts characters; JSON requests are ASCII in practice
        # and a multi-byte line is strictly longer in bytes, so this
        # never under-counts enough to matter at a 1 MiB default.
        return ParsedLine(
            error=error_payload(
                "line_too_large",
                f"request line of {len(raw)} bytes exceeds the "
                f"{max_bytes}-byte limit",
                line=lineno,
                max_bytes=max_bytes,
            )
        )
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        return ParsedLine(
            error=error_payload("bad_json", f"malformed JSON: {exc}", line=lineno)
        )
    if not isinstance(obj, dict):
        return ParsedLine(
            error=error_payload(
                "bad_json",
                f"request must be a JSON object, got {type(obj).__name__}",
                line=lineno,
            )
        )
    rid = _request_id(obj)
    try:
        version = int(obj.get("v", 1))
    except (TypeError, ValueError):
        version = -1
    if version not in PROTOCOL_VERSIONS:
        # The sender speaks a versioned envelope we do not — answer in
        # the v2 shape so the code is machine-readable either way.
        return ParsedLine(
            version=2,
            obj=obj,
            error=error_payload(
                "unsupported_version",
                f"unsupported request protocol v={obj.get('v')!r} "
                f"(supported: {list(PROTOCOL_VERSIONS)})",
                version=2,
                line=lineno,
                request_id=rid,
                supported=list(PROTOCOL_VERSIONS),
            ),
        )
    if default_mode and default_mode != "auto" and "mode" not in obj:
        obj = {**obj, "mode": default_mode}
    try:
        request = EstimateRequest.from_json(obj)
    except (ValueError, TypeError) as exc:
        return ParsedLine(
            version=version,
            obj=obj,
            error=error_payload(
                "bad_request",
                str(exc),
                version=version,
                line=lineno,
                request_id=rid,
            ),
        )
    return ParsedLine(version=version, request=request, obj=obj)


def answer_request(
    service: Any,
    parsed: ParsedLine,
    *,
    include_counts: bool = True,
    lineno: int | None = None,
) -> dict[str, Any]:
    """The answer object for one parsed line, run on *service*.

    *service* is an :class:`~repro.service.Estimator`.  A line that
    failed to parse answers its own error; a request answers its
    result's JSON, or a structured ``internal`` error in the request's
    shape when estimation raises.  Blocks until the result is ready.
    """
    if parsed.error is not None:
        return parsed.error
    assert parsed.request is not None
    try:
        result = service.estimate(parsed.request)
        return result.to_json(include_counts=include_counts)
    except Exception as exc:  # noqa: BLE001 - reported per request
        return error_payload(
            "internal",
            str(exc),
            version=parsed.version,
            line=lineno,
            request_id=parsed.request.id,
        )
