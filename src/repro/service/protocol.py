"""Minimal HTTP/1.1 framing over :mod:`asyncio` streams.

The citation service speaks just enough HTTP for JSON request/response
traffic — no external web framework, in keeping with the repository's
standard-library-only rule.  The subset:

- request line + headers + ``Content-Length``-framed bodies;
- keep-alive connections (``Connection: close`` honoured both ways);
- no chunked transfer encoding, no multipart, no TLS.

Framing errors are *typed* so the server can map them onto the right
status code: :class:`ProtocolError` → 400, :class:`PayloadTooLarge` →
413.  Body size is enforced **before** the body is read, so an oversized
upload never buffers past the configured limit.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any

#: Upper bound on header count; beyond this the request is hostile.
MAX_HEADERS = 100

#: Upper bound on a single header/request line, in bytes.
MAX_LINE_BYTES = 16 * 1024

STATUS_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class ProtocolError(Exception):
    """The peer sent something that is not the HTTP subset we speak."""

    status = 400


class PayloadTooLarge(ProtocolError):
    """Declared ``Content-Length`` exceeds the configured body limit."""

    status = 413


@dataclass
class HttpRequest:
    """One parsed request: method, path, lower-cased headers, raw body."""

    method: str
    target: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def path(self) -> str:
        """The request target without any query string."""
        return self.target.split("?", 1)[0]

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"

    def json(self) -> Any:
        """The body decoded as JSON; :class:`ProtocolError` when invalid."""
        try:
            return json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ProtocolError(f"request body is not valid JSON: {exc}") \
                from None


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        line = await reader.readline()
    except (asyncio.LimitOverrunError, ValueError) as exc:
        raise ProtocolError(f"header line too long: {exc}") from None
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError("header line too long")
    return line


async def read_request(
    reader: asyncio.StreamReader, max_body_bytes: int
) -> HttpRequest | None:
    """Read one request off the stream; None on clean connection close.

    Raises :class:`ProtocolError` (→ 400) on malformed framing and
    :class:`PayloadTooLarge` (→ 413) when the declared body length
    exceeds ``max_body_bytes`` — checked before reading the body, so the
    limit also bounds memory.
    """
    request_line = await _read_line(reader)
    if not request_line or request_line in (b"\r\n", b"\n"):
        return None
    try:
        method, target, version = (
            request_line.decode("ascii").strip().split(" ", 2)
        )
    except (UnicodeDecodeError, ValueError):
        raise ProtocolError("malformed request line") from None
    if not version.startswith("HTTP/1."):
        raise ProtocolError(f"unsupported protocol version {version!r}")

    headers: dict[str, str] = {}
    for __ in range(MAX_HEADERS + 1):
        line = await _read_line(reader)
        if line in (b"\r\n", b"\n", b""):
            break
        try:
            name, __sep, value = line.decode("latin-1").partition(":")
        except UnicodeDecodeError:  # pragma: no cover - latin-1 total
            raise ProtocolError("undecodable header") from None
        if not __sep:
            raise ProtocolError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    else:
        raise ProtocolError("too many headers")

    if headers.get("transfer-encoding"):
        raise ProtocolError("chunked transfer encoding is not supported")
    body = b""
    declared = headers.get("content-length")
    if declared is not None:
        try:
            length = int(declared)
        except ValueError:
            raise ProtocolError(
                f"bad Content-Length {declared!r}"
            ) from None
        if length < 0:
            raise ProtocolError(f"bad Content-Length {declared!r}")
        if length > max_body_bytes:
            # Drain a bounded amount so a well-meaning client finishes
            # its send and can read the 413; truly huge declarations
            # are abandoned and the connection dropped instead.
            drain_cap = max(4 * max_body_bytes, 8 * 1024 * 1024)
            remaining = min(length, drain_cap)
            while remaining > 0:
                chunk = await reader.read(min(remaining, 64 * 1024))
                if not chunk:
                    break
                remaining -= len(chunk)
            raise PayloadTooLarge(
                f"request body of {length} bytes exceeds the "
                f"{max_body_bytes}-byte limit"
            )
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise ProtocolError("connection closed mid-body") from None
    return HttpRequest(method=method, target=target, headers=headers,
                       body=body)


def render_response(
    status: int,
    payload: Any = None,
    *,
    body: bytes | None = None,
    content_type: str = "application/json",
    extra_headers: dict[str, str] | None = None,
    keep_alive: bool = True,
) -> bytes:
    """Serialize one response.  ``payload`` is JSON-encoded unless a raw
    ``body`` is given; the default JSON rendering is deterministic
    (insertion order, compact separators), which the warm ≡ cold
    byte-identity tests rely on."""
    if body is None:
        body = b"" if payload is None else (
            json.dumps(payload, default=str).encode("utf-8") + b"\n"
        )
    reason = STATUS_REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")
    return head + body
