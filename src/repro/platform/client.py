"""Thin blocking HTTP client for the LIGHTOR gateway.

:class:`LightorClient` mirrors the call surface of
:class:`~repro.platform.sharding.ShardedLightorService` method for method,
so callers written against the in-process front door — the load-generation
driver above all — can be pointed at a network gateway by swapping the
object, nothing else.  Payloads are the round-trip-exact codec forms from
:mod:`repro.platform.codecs`; what comes back out of a client is the same
value objects (``RedDot``, ``StreamEvent``, …) the in-process service
returns, byte-identical through the wire.

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
from typing import Sequence
from urllib.parse import quote

from repro.core.types import ChatMessage, Highlight, Interaction, RedDot, Video
from repro.platform import codecs, wire
from repro.platform.backends.base import HighlightRecord
from repro.platform.placement import WrongShardError
from repro.streaming.events import StreamEvent
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
            return json.loads(data.decode("utf-8"))
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

    @staticmethod
    def _video_path(video_id: str, leaf: str) -> str:
        return f"/videos/{quote(video_id, safe='')}/{leaf}"

    @staticmethod
    def _live_path(video_id: str, leaf: str) -> str:
        return f"/live/{quote(video_id, safe='')}/{leaf}"

    @staticmethod
    def _decode_events(payload: dict) -> list[StreamEvent]:
        return [codecs.stream_event_from_dict(item) for item in payload["events"]]

    @staticmethod
    def _decode_dots(payload: dict) -> list[RedDot]:
        return [codecs.red_dot_from_dict(item) for item in payload["red_dots"]]

    # ---------------------------------------------------------- batch surface
    def register_video(self, video: Video) -> None:
        """Store video metadata on its home shard (no live session opened)."""
        self._request("POST", "/videos", codecs.video_to_dict(video))

    def request_red_dots(self, video_id: str, k: int | None = None) -> list[RedDot]:
        """Red dots for a recorded video, served by its home shard."""
        path = self._video_path(video_id, "red-dots")
        if k is not None:
            path += f"?k={int(k)}"
        return self._decode_dots(self._request("GET", path))

    def log_interactions(self, video_id: str, interactions: Sequence[Interaction]) -> int:
        """Persist viewer interactions on the video's home shard."""
        payload = {"interactions": [codecs.interaction_to_dict(i) for i in interactions]}
        return self._request("POST", self._video_path(video_id, "interactions"), payload)["total"]

    def refine_video(self, video_id: str) -> int:
        """Run one Extractor refinement pass on the video's home shard."""
        return self._request("POST", self._video_path(video_id, "refine"), {})["updated"]

    # --------------------------------------------------- stored-state surface
    # Read-only views of what the home shard has *persisted* — the raw store
    # rows, not the model-ranked answers ``request_red_dots`` serves.  These
    # power the cluster front door's remote ``store_for`` view, so parity
    # fingerprints read cross-process state over the same wire as traffic.
    def get_red_dots(self, video_id: str) -> list[RedDot]:
        """The persisted red dots for a video, in stored order."""
        return self._decode_dots(
            self._request("GET", self._video_path(video_id, "stored-dots"))
        )

    def latest_highlights(self, video_id: str) -> list[Highlight]:
        """The newest persisted highlight version for a video."""
        payload = self._request("GET", self._video_path(video_id, "latest-highlights"))
        return [codecs.highlight_from_dict(item) for item in payload["highlights"]]

    def highlight_history(self, video_id: str) -> list[HighlightRecord]:
        """Every persisted highlight version for a video, oldest first."""
        payload = self._request("GET", self._video_path(video_id, "highlights"))
        return [codecs.highlight_record_from_dict(item) for item in payload["highlights"]]

    def get_interactions(self, video_id: str) -> list[Interaction]:
        """The persisted viewer interactions for a video, in stored order."""
        payload = self._request("GET", self._video_path(video_id, "interactions"))
        return [codecs.interaction_from_dict(item) for item in payload["interactions"]]

    # ----------------------------------------------------------- live surface
    def start_live(self, video: Video) -> None:
        """Register a live channel and open its session on its home shard."""
        self._request(
            "POST", self._live_path(video.video_id, "start"), codecs.video_to_dict(video)
        )

    def ingest_chat_batch(
        self, video_id: str, messages: Sequence[ChatMessage], persist: bool = False
    ) -> list[StreamEvent]:
        """Push a timestamp-ordered chat batch for a live channel."""
        payload = {
            "messages": [codecs.chat_message_to_dict(m) for m in messages],
            "persist": persist,
        }
        return self._decode_events(
            self._request("POST", self._live_path(video_id, "chat"), payload)
        )

    def ingest_live_chat(
        self, video_id: str, messages: Sequence[ChatMessage]
    ) -> list[StreamEvent]:
        """Per-event twin of :meth:`ingest_chat_batch` (a batch of any size)."""
        return self.ingest_chat_batch(video_id, messages)

    def ingest_plays_batch(
        self, video_id: str, interactions: Sequence[Interaction]
    ) -> list[StreamEvent]:
        """Push a batch of viewer interactions for a live channel."""
        payload = {"interactions": [codecs.interaction_to_dict(i) for i in interactions]}
        return self._decode_events(
            self._request("POST", self._live_path(video_id, "plays"), payload)
        )

    def ingest_live_interactions(
        self, video_id: str, interactions: Sequence[Interaction]
    ) -> list[StreamEvent]:
        """Alias of :meth:`ingest_plays_batch`, matching the service surface."""
        return self.ingest_plays_batch(video_id, interactions)

    def live_red_dots(self, video_id: str) -> list[RedDot]:
        """The dots to render right now for a channel (live or persisted)."""
        return self._decode_dots(self._request("GET", self._live_path(video_id, "dots")))

    def end_live(self, video_id: str, duration: float | None = None) -> list[RedDot]:
        """Close a live channel on its home shard; final dots are persisted."""
        return self._decode_dots(
            self._request("POST", self._live_path(video_id, "end"), {"duration": duration})
        )

    # ------------------------------------------------- placement control plane
    # Admin-plane calls used by the cluster supervisor (push placement, move
    # channels between shards) and by the front door (pull placement after a
    # 409 redirect).  Payloads stay as plain codec dicts: the caller decides
    # whether to materialize a PlacementMap from them.
    def get_placement(self) -> dict:
        """The gateway's current placement payload (map + worker addresses)."""
        return self._request("GET", "/placement")

    def put_placement(
        self, placement: dict, addresses: Sequence[Sequence] = ()
    ) -> dict:
        """Install a placement map (and optionally worker addresses) on the gateway."""
        payload = {"placement": placement, "addresses": [list(a) for a in addresses]}
        return self._request("POST", "/placement", payload)

    def list_channels(self) -> list[str]:
        """Every channel id persisted on this gateway's shard, sorted."""
        return list(self._request("GET", "/admin/channels")["channels"])

    def migrate_out(self, video_id: str) -> dict:
        """Detach and export one channel: ``{"bundle": ..., "was_live": bool}``."""
        return self._request("POST", "/admin/migrate-out", {"video_id": video_id})

    def migrate_in(self, bundle: dict, was_live: bool = False) -> str:
        """Import an exported channel bundle; resume its session when live."""
        payload = {"bundle": bundle, "was_live": was_live}
        return self._request("POST", "/admin/migrate-in", payload)["imported"]

    def forget_channel(self, video_id: str) -> bool:
        """Drop a migrated-out channel's residual state from this shard."""
        return self._request("POST", "/admin/forget-channel", {"video_id": video_id})["forgotten"]

    def fence(self) -> bool:
        """Block until every request already admitted by the gateway finished.

        The reshard census barrier: push a frozen placement, fence, then
        :meth:`list_channels` — the listing is then provably complete.
        """
        return bool(self._request("POST", "/admin/fence")["drained"])

    # ----------------------------------------------------------- observability
    def healthz(self) -> dict:
        """The gateway's health payload."""
        return self._request("GET", "/healthz")

    def metrics(self) -> str:
        """The gateway's Prometheus-style metrics text."""
        return self._request("GET", "/metrics")

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Release the kept-alive connection (the client can be reused)."""
        self._drop_connection()

    def __enter__(self) -> "LightorClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
