"""Thin blocking HTTP client for the LIGHTOR gateway.

:class:`LightorClient` has one method per verb of
:mod:`repro.platform.surface`, bound from that table with the same names
and signatures as :class:`~repro.platform.sharding.ShardedLightorService`,
so callers written against the in-process front door — the load-generation
driver above all — can be pointed at a network gateway by swapping the
object, nothing else.  The table encodes each call's arguments into the
round-trip-exact codec forms of :mod:`repro.platform.codecs` and decodes
the answer back into the same value objects (``RedDot``, ``StreamEvent``,
…) the in-process service returns, byte-identical through the wire.

Error mapping inverts the gateway's: a ``400`` becomes the
:class:`~repro.utils.validation.ValidationError` the service raised on the
far side (same message, same type — callers keep their ``except`` clauses),
a ``503`` becomes :class:`GatewayOverloadedError` (retry later; the gateway
is applying backpressure or draining), anything else
:class:`GatewayError`.

Each client keeps one ``TCP_NODELAY`` connection alive, sends every
request as one write of head plus body and reads the gateway's
``Content-Length``-framed answers itself.  Instances are **not**
thread-safe — give each worker thread its own client, exactly like each
worker owns its own latency recorder in the load harness.
"""

from __future__ import annotations

import json
import socket
import struct

from repro.platform import surface, wire
from repro.platform.placement import WrongShardError
from repro.platform.surface import VERBS, Verb
from repro.utils.validation import ValidationError

__all__ = [
    "GatewayError",
    "GatewayOverloadedError",
    "GatewayTimeoutError",
    "LightorClient",
]


class GatewayError(RuntimeError):
    """The gateway answered with an unexpected error status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"gateway returned {status}: {message}")
        self.status = status


class GatewayOverloadedError(GatewayError):
    """The gateway refused admission (overloaded or draining) — retry later."""


class GatewayTimeoutError(GatewayError):
    """The gateway did not answer within the client's timeout.

    A hung or half-dead shard must surface as a typed, catchable error, not
    block the caller forever (the pre-timeout behaviour) and not masquerade
    as a retryable connection hiccup: the request may have been *received*
    and be executing slowly, so the client never replays it — the caller
    decides, exactly like the non-idempotent-retry rule in
    :meth:`LightorClient._request`.
    """

    def __init__(self, host: str, port: int, timeout: float) -> None:
        super().__init__(504, f"no response from {host}:{port} within {timeout:g}s")
        self.host = host
        self.port = port
        self.timeout = timeout


class LightorClient:
    """Call a :class:`~repro.platform.server.LightorGateway` over HTTP.

    ``wire_codec`` picks the request/response encoding: ``"json"`` (the
    default — interoperates with any gateway version) or ``"binary"`` (the
    framed codec of :mod:`repro.platform.wire`, negotiated via
    ``Content-Type``/``Accept``; decodes to identical value trees, so
    callers see no difference beyond bytes on the wire).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        timeout: float = 60.0,
        *,
        wire_codec: str = "json",
    ) -> None:
        if wire_codec not in wire.WIRE_CODECS:
            raise ValidationError(
                f"unknown wire codec {wire_codec!r} (expected one of {wire.WIRE_CODECS})"
            )
        self.host = host
        self.port = port
        self.timeout = timeout
        self.wire_codec = wire_codec
        self._connection: socket.socket | None = None

    # -------------------------------------------------------------- transport
    def _connect(self) -> socket.socket:
        if self._connection is None:
            self._connection = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
            # A blocking socket whose timeout the kernel enforces: a socket
            # timeout set in Python polls before every send and receive, one
            # more interpreter-lock handoff each.  Expiry raises EAGAIN.
            self._connection.settimeout(None)
            seconds, fraction = divmod(self.timeout, 1)
            timeval = struct.pack("ll", int(seconds), int(fraction * 1_000_000))
            for option in (socket.SO_RCVTIMEO, socket.SO_SNDTIMEO):
                self._connection.setsockopt(socket.SOL_SOCKET, option, timeval)
            self._connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return self._connection

    def _drop_connection(self) -> None:
        # Detach before closing: if close() itself raises (a socket already
        # reset under us), the stale connection must not stay cached — that
        # is exactly the fd leak the retry path used to hit.
        connection, self._connection = self._connection, None
        if connection is not None:
            try:
                connection.close()
            except OSError:
                pass

    def _read_response(self, connection: socket.socket) -> tuple[int, str, bytes]:
        """``(status, content type, body)`` of the answer to the request just sent."""
        data = bytearray()

        def receive() -> None:
            chunk = connection.recv(65536)
            if not chunk:
                raise ConnectionError("the gateway closed the connection")
            data.extend(chunk)

        while (end := data.find(b"\r\n\r\n")) < 0:
            if len(data) > 65536:
                raise ConnectionError("response head over 64 KiB")
            receive()
        try:
            status_line, *lines = data[:end].decode("latin-1").split("\r\n")
            status = int(status_line.split(None, 2)[1])
            headers = {
                name.strip().lower(): value.strip()
                for name, _, value in (line.partition(":") for line in lines)
            }
            length = int(headers.get("content-length", 0))
        except (IndexError, ValueError):
            raise ConnectionError(f"malformed response head: {bytes(data[:80])!r}") from None
        while len(data) < end + 4 + length:
            receive()
        if headers.get("connection", "").lower() == "close":
            self._drop_connection()
        body = bytes(data[end + 4 : end + 4 + length])
        return status, headers.get("content-type", "").lower(), body

    @staticmethod
    def _decode_response(data: bytes, content_type: str) -> dict | str:
        """The one chokepoint where raw response bytes become objects.

        Binary frames go through :func:`wire.decode_frame`, which rejects
        bad magic, unknown versions and unknown flags; JSON bodies decode
        here and are validated by the caller against the status code.
        """
        if wire.WIRE_CONTENT_TYPE in content_type:
            return wire.decode_frame(data)
        if "json" in content_type:
            return wire.decode_json(data)
        return data.decode("utf-8")

    def _request(self, method: str, path: str, payload: dict | None = None):
        if self.wire_codec == "binary":
            media = wire.WIRE_CONTENT_TYPE
            body = b"" if payload is None else wire.encode_frame(payload)
        else:
            media = "application/json"
            body = b"" if payload is None else json.dumps(payload, allow_nan=False).encode("utf-8")
        head = f"{method} {path} HTTP/1.1\r\nHost: {self.host}:{self.port}\r\nAccept: {media}\r\n"
        if payload is not None:
            head += f"Content-Type: {media}\r\n"
        request = f"{head}Content-Length: {len(body)}\r\n\r\n".encode("latin-1") + body
        # One retry on a stale kept-alive connection (the server side may
        # have closed it between calls) — but only for GETs: a POST whose
        # response was lost may already have *executed* on the far side
        # (an ingest batch, an end_live), and blindly replaying it would
        # double-apply the call and silently diverge the persisted state.
        # Non-idempotent failures propagate for the caller to decide.
        retries = (0, 1) if method == "GET" else (1,)
        for attempt in retries:
            try:
                connection = self._connect()
                connection.sendall(request)
                status, content_type, data = self._read_response(connection)
                break
            except (TimeoutError, BlockingIOError) as error:
                # Both are OSError subclasses — catch them first.  A
                # timed-out request may be executing slowly on the far side,
                # so it is never retried (even a GET: the point is to bound
                # the caller's wait, not to double it).
                self._drop_connection()
                raise GatewayTimeoutError(self.host, self.port, self.timeout) from error
            except OSError:
                self._drop_connection()
                if attempt:
                    raise
        decoded = self._decode_response(data, content_type)
        if status == 200:
            return decoded
        message = decoded.get("error", "") if isinstance(decoded, dict) else str(decoded)
        if status == 400:
            raise ValidationError(message)
        if status == 409 and isinstance(decoded, dict) and "video_id" in decoded:
            # The shard refused a channel it does not own (or one that is
            # mid-migration): surface the typed redirect so routing layers
            # can refresh their placement map and retry transparently.
            raise WrongShardError(
                decoded["video_id"],
                owner=decoded.get("owner"),
                epoch=int(decoded.get("epoch", 0)),
                in_flight=bool(decoded.get("in_flight", False)),
            )
        if status == 503:
            raise GatewayOverloadedError(status, message)
        raise GatewayError(status, message)

    def _send(self, verb: Verb, values: tuple):
        """One surface call: encode the arguments, send, decode the answer."""
        path, payload = verb.request(values)
        return verb.answer(self._request(verb.method, path, payload))

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Release the kept-alive connection (the client can be reused)."""
        self._drop_connection()

    def __enter__(self) -> "LightorClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


surface.bind(LightorClient, VERBS, "return self._send(VERB, {values})")
