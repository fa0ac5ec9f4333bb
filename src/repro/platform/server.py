"""Thread-per-connection HTTP/1.1 JSON gateway in front of the sharded service tier.

Until this module the LIGHTOR service tier could only be called in-process;
:class:`LightorGateway` puts a real network boundary in front of a
:class:`~repro.platform.sharding.ShardedLightorService` using nothing but
the standard library: blocking sockets speak enough HTTP/1.1 (keep-alive,
``Content-Length`` bodies) to serve JSON requests.  An accept thread hands
each connection to a thread of its own, which reads a request, admits it,
runs the service call inline and writes the response — so a call costs
two thread handoffs (client → connection thread → client), not a round
trip through an event loop and a worker pool.  The shards serialize
per-channel work under their own locks.

Design points:

* **Full service surface.**  Every verb of :mod:`repro.platform.surface`
  — the recorded-video and live calls, placement, migration, health and
  metrics — has an endpoint, resolved and decoded from that one table;
  payloads are the round-trip-exact codec forms from
  :mod:`repro.platform.codecs`, so a workload driven over the wire
  persists byte-identical state to the same workload driven in-process
  (``tests/test_loadgen.py`` holds the gateway to that).
* **Validation is a 400, overload is a 503.**  Malformed JSON, codec
  failures and every :class:`~repro.utils.validation.ValidationError` the
  service raises map to ``400 {"error": ...}``.  Admission control is a
  bounded in-flight budget (``max_pending``): past it the gateway answers
  ``503`` immediately instead of queueing unboundedly — backpressure the
  caller can see.  ``/healthz`` and ``/metrics`` bypass admission so the
  gateway stays observable while saturated.  Admitted calls run at most
  ``worker_threads`` at a time, and open connections are capped at
  ``max_pending + worker_threads``: a connection past the cap is answered
  ``503`` and closed, so connection threads stay bounded too.
* **Bounded request heads, ``Content-Length`` bodies.**  The request line
  and headers together may take 64 KiB; a longer head is answered ``431``
  and the connection closed.  A request with any ``Transfer-Encoding`` is
  answered ``501`` and the connection closed: its body is never read.
* **Negotiated wire codec.**  Request bodies are decoded by their
  ``Content-Type`` and responses encoded by the request's ``Accept``:
  ``application/json`` (the default — old clients keep working unchanged)
  or the framed binary codec of :mod:`repro.platform.wire`
  (``application/x-repro-binary``), which cuts bytes/event on batch-heavy
  routes.  Both codecs decode to identical value trees, so request
  decoding is codec-blind, and both refuse ``NaN`` and infinities.  The
  payload cap is enforced on the *decoded entity* for both: the
  Content-Length check bounds what is read, and a binary frame's declared
  uncompressed size is checked against the same cap before decompression
  (``413``) — a compressed frame cannot smuggle an over-cap entity.
* **Graceful drain.**  :meth:`LightorGateway.drain` stops accepting, lets
  the in-flight requests finish and refuses late requests with ``503``;
  the ``repro serve`` command then calls
  :meth:`~repro.platform.sharding.ShardedLightorService.suspend`, which
  checkpoints every open live session — so a SIGTERM'd server resumes
  byte-exactly via ``repro recover`` (see
  :mod:`repro.platform.recovery` and ``docs/serving.md``).

:class:`GatewayThread` serves a gateway from background threads of the
calling process — what the wire-mode load harness (``repro load
--transport http``) and the test suite use to serve and drive from one
process.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from collections import Counter
from http import HTTPStatus
from typing import BinaryIO
from urllib.parse import parse_qs, unquote, urlsplit

from repro.platform import codecs, wire
from repro.platform.placement import PlacementMap, WrongShardError
from repro.platform.surface import VERBS, Verb
from repro.utils.logging import get_logger
from repro.utils.validation import ValidationError, require_positive

__all__ = ["LightorGateway", "GatewayThread"]

_LOGGER = get_logger("platform.server")

# One chat batch of a few hundred codec-encoded messages is ~100 KiB; cap
# request bodies far above that so only a runaway client is refused.
_MAX_BODY_BYTES = 16 * 1024 * 1024
# The request line plus every header line; past it the answer is a 431.
_MAX_HEAD_BYTES = 64 * 1024
# Channels named on lightor_gateway_channel_rejected_total; refusals of any
# further channel count under channel="other", so the series stay bounded.
_NAMED_REJECTED_CHANNELS = 16
# How long an error close keeps reading what the client still sends.
_LINGER_SECONDS = 1.0


# Path shape -> method -> verb; "{id}" stands for the channel in the path.
# The first verb on a shape names its 405s.
_SHAPES: dict[tuple[str, ...], dict[str, Verb]] = {}
for _verb in VERBS:
    _SHAPES.setdefault(tuple(_verb.path.strip("/").split("/")), {})[_verb.method] = _verb


class _ProtocolError(Exception):
    """A request the HTTP layer itself must refuse (before any routing)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class LightorGateway:
    """Serve a sharded LIGHTOR tier over HTTP/1.1 JSON.

    Parameters
    ----------
    service:
        The front door to serve — a
        :class:`~repro.platform.sharding.ShardedLightorService` (anything
        with its call surface works; the gateway adds no state of its own).
    host / port:
        Bind address.  ``port=0`` binds an ephemeral port; :meth:`start`
        rewrites :attr:`port` with the bound one.
    max_pending:
        Admission budget: requests in flight (admitted but not yet
        executed) beyond this are refused with ``503`` instead of queued.
    max_pending_per_channel:
        Optional per-channel admission budget.  The global budget alone
        lets one hot channel occupy every slot and starve the tail; with
        this set, a channel-addressed request (any ``/videos/{id}/…`` or
        ``/live/{id}/…`` route) is refused with ``503`` once that channel
        alone has this many requests in flight — the rest of the global
        budget stays available to other channels.  ``None`` (the default)
        keeps the previous single-budget behaviour.
    worker_threads:
        Admitted service calls that may run at once; an admitted request
        past it waits for a slot on its connection thread.
    wire_codec:
        Response codec for requests that express **no** preference (no
        ``Accept`` header, or ``*/*``).  An explicit ``Accept`` always
        wins, so JSON clients keep getting JSON whatever this is set to —
        the knob only moves the default (``repro serve --wire-codec``).
    shard_index:
        This gateway's identity in a *cluster placement* (``repro serve
        --shard-index``).  Once set **and** a placement map has been
        installed over ``POST /placement``, every channel-addressed request
        for a channel this shard does not own (or that is mid-migration) is
        answered with ``409 Conflict`` carrying the owner and epoch — the
        signal a stale front door uses to refresh its map and retry (see
        ``docs/resharding.md``).  ``None`` (the default) disables the check:
        a standalone gateway owns every channel it serves.
    """

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 8765,
        *,
        max_pending: int = 64,
        worker_threads: int = 8,
        wire_codec: str = "json",
        max_pending_per_channel: int | None = None,
        shard_index: int | None = None,
    ) -> None:
        require_positive(max_pending, "max_pending")
        require_positive(worker_threads, "worker_threads")
        if max_pending_per_channel is not None:
            require_positive(max_pending_per_channel, "max_pending_per_channel")
        if wire_codec not in wire.WIRE_CODECS:
            raise ValidationError(
                f"unknown wire codec {wire_codec!r} (expected one of {wire.WIRE_CODECS})"
            )
        if shard_index is not None and shard_index < 0:
            raise ValidationError(f"shard_index must be >= 0, got {shard_index!r}")
        self.wire_codec = wire_codec
        self.service = service
        self.host = host
        self.port = port
        self.max_pending = max_pending
        self.max_pending_per_channel = max_pending_per_channel
        self.worker_threads = worker_threads
        self.shard_index = shard_index
        # The cluster placement pushed over POST /placement, plus the worker
        # addresses that came with it (what GET /placement hands to a front
        # door rebuilding its client list).  The PlacementMap itself is
        # internally locked, so holding _placement_lock only covers the
        # reference swap and the address list.
        self._placement_lock = threading.Lock()
        self._placement: PlacementMap | None = None  # guarded-by: _placement_lock
        self._placement_addresses: list[tuple[str, int]] = []  # guarded-by: _placement_lock
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._started_at: float | None = None
        self._slots = threading.BoundedSemaphore(worker_threads)
        # Connection threads share everything below: admission's
        # check-then-increment and every counter run under this one
        # condition, which drain() and the fence also wait on.
        self._cond = threading.Condition()
        self._connections: dict[socket.socket, threading.Thread] = {}  # guarded-by: _cond
        # Admission tickets: _admitted is the next one handed out, _running
        # holds those whose service call has not returned yet.
        self._admitted = 0  # guarded-by: _cond
        self._running: set[int] = set()  # guarded-by: _cond
        self._draining = False  # guarded-by: _cond
        self._requests: Counter = Counter()  # guarded-by: _cond
        self._responses: Counter = Counter()  # guarded-by: _cond
        self._events_ingested: Counter = Counter()  # guarded-by: _cond
        self._content_types: Counter = Counter()  # guarded-by: _cond
        self._rejected = 0  # guarded-by: _cond
        self._wrong_shard = 0  # guarded-by: _cond
        self._channel_in_flight: Counter = Counter()  # guarded-by: _cond
        self._channel_rejected: Counter = Counter()  # guarded-by: _cond
        self._other_rejected = 0  # guarded-by: _cond
        self._bytes_in = 0  # guarded-by: _cond
        self._bytes_out = 0  # guarded-by: _cond

    # -------------------------------------------------------------- lifecycle
    @property
    def address(self) -> str:
        """The served base URL."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        """Bind and start accepting connections (resolves ``port=0``)."""
        self._listener = socket.create_server((self.host, self.port), backlog=128)
        self.port = self._listener.getsockname()[1]
        self._started_at = time.monotonic()
        self._accept_thread = threading.Thread(
            target=self._accept, args=(self._listener,), name="lightor-gateway-accept",
            daemon=True,
        )
        self._accept_thread.start()
        _LOGGER.info("gateway listening on %s", self.address)

    def drain(self) -> None:
        """Graceful drain: stop accepting, finish in-flight, close connections.

        After this returns, no request is executing and none will be
        admitted (late requests on kept-alive connections get ``503``).
        What happens to the *service* is the caller's decision —
        ``repro serve`` follows with
        :meth:`~repro.platform.sharding.ShardedLightorService.suspend`
        (checkpoint, recoverable), the load harness with ``close()``
        (finalize).
        """
        self._stop_accepting()
        with self._cond:
            self._cond.wait_for(lambda: not self._running)
        # Half-close for reading only: a thread still writing its answer
        # finishes it, then reads end-of-stream and exits.
        self._close_connections(socket.SHUT_RD)

    def abort(self) -> None:
        """Hard stop — the simulated ``kill -9``: cut every connection now.

        Nothing is checkpointed and nothing is closed; tests use this to
        model a crashed server whose durable state must carry recovery by
        itself.  A service call already running finishes, but its answer
        is never delivered.
        """
        self._stop_accepting()
        self._close_connections(socket.SHUT_RDWR)

    def _stop_accepting(self) -> None:
        with self._cond:
            self._draining = True
        listener, self._listener = self._listener, None
        if listener is None:
            return
        try:
            listener.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept()
        except OSError:
            pass  # a platform that refuses this wakes accept() on close
        listener.close()
        self._accept_thread.join(timeout=10)

    def _close_connections(self, how: int) -> None:
        with self._cond:
            connections = list(self._connections.items())
        for conn, thread in connections:
            try:
                conn.shutdown(how)
            except OSError:
                pass  # its thread closed it already
            thread.join(timeout=10)

    # ---------------------------------------------------------- HTTP plumbing
    def _accept(self, listener: socket.socket) -> None:
        """Hand each accepted connection to a thread of its own."""
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:
                with self._cond:
                    if self._draining:
                        return
                _LOGGER.exception("accept failed")
                continue
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            thread = threading.Thread(
                target=self._serve, args=(conn,), name="lightor-gateway-conn", daemon=True
            )
            with self._cond:
                refused = len(self._connections) >= self.max_pending + self.worker_threads
                if refused:
                    self._rejected += 1
                else:
                    self._connections[conn] = thread
            if refused:
                self._refuse(conn, 503, "gateway has too many open connections", linger=0.0)
            else:
                thread.start()

    def _refuse(self, conn: socket.socket, status: int, message: str, linger: float) -> None:
        """Answer an error and close the connection without losing the answer.

        Closing with unread input makes the kernel reset the connection,
        which can destroy the answer before the client reads it; so stop
        writing, drop what the client still sends for up to ``linger``
        seconds, then close.
        """
        deadline = time.monotonic() + linger
        try:
            self._reply(conn, "unknown", status, {"error": message}, "json", keep_alive=False)
            conn.shutdown(socket.SHUT_WR)
            while True:
                conn.settimeout(max(0.0, deadline - time.monotonic()))
                if not conn.recv(65536):
                    break
        except OSError:
            pass  # timed out, would block, or the client is gone: done either way
        finally:
            conn.close()

    def _serve(self, conn: socket.socket) -> None:
        """A connection's thread: read a request, answer it, repeat."""
        reader = conn.makefile("rb")
        try:
            while True:
                try:
                    request = self._read_request(reader)
                except _ProtocolError as error:
                    self._refuse(conn, error.status, str(error), _LINGER_SECONDS)
                    break
                if request is None or not self._respond(conn, *request):
                    break
        except OSError:
            pass  # the client went away, or drain()/abort() cut the connection
        finally:
            reader.close()
            conn.close()
            with self._cond:
                del self._connections[conn]

    @staticmethod
    def _read_request(reader: BinaryIO) -> tuple[str, str, dict[str, str], bytes] | None:
        """One parsed request, or ``None`` on a closed connection."""
        budget = _MAX_HEAD_BYTES
        line = reader.readline(budget + 1)
        if not line:
            return None
        budget -= len(line)
        if budget < 0:
            raise _ProtocolError(431, f"request head over {_MAX_HEAD_BYTES} bytes")
        try:
            method, target, _version = line.decode("latin-1").split()
        except ValueError:
            raise _ProtocolError(400, "malformed HTTP request line") from None
        headers: dict[str, str] = {}
        while True:
            header = reader.readline(budget + 1)
            budget -= len(header)
            if budget < 0:
                raise _ProtocolError(431, f"request head over {_MAX_HEAD_BYTES} bytes")
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        if "transfer-encoding" in headers:
            # Only Content-Length framing is read; serving the call with the
            # body unread would then parse the body as the next request.
            raise _ProtocolError(501, "Transfer-Encoding is not supported; send Content-Length")
        raw_length = headers.get("content-length", "0") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            raise _ProtocolError(400, f"invalid Content-Length {raw_length!r}") from None
        if length < 0:
            raise _ProtocolError(400, f"invalid Content-Length {raw_length!r}")
        if length > _MAX_BODY_BYTES:
            raise _ProtocolError(413, f"request body over {_MAX_BODY_BYTES} bytes")
        body = reader.read(length) if length else b""
        if len(body) < length:
            return None  # the client hung up mid-body
        return method.upper(), target, headers, body

    def _respond(
        self, conn: socket.socket, method: str, target: str, headers: dict, body: bytes
    ) -> bool:
        """Dispatch one request and write its response; returns keep-alive."""
        keep_alive = headers.get("connection", "").lower() != "close"
        split = urlsplit(target)
        route, verb, channel = self._resolve(method, unquote(split.path))
        content_type = (
            (headers.get("content-type") or "").split(";")[0].strip().lower() or "none"
        )
        with self._cond:
            self._requests[route] += 1
            self._content_types[content_type] += 1
            self._bytes_in += len(body)
        payload: dict | str
        if verb is None:
            status, payload = (
                (404, {"error": f"no such endpoint: {split.path}"})
                if route == "unknown"
                else (405, {"error": f"method {method} not allowed on {split.path}"})
            )
        elif not verb.admitted:
            status, payload = 200, verb.reply(getattr(self, verb.calls)(), ())
        else:
            status, payload, keep = self._call(
                verb, channel, parse_qs(split.query), body, content_type
            )
            keep_alive = keep_alive and keep
        self._reply(conn, route, status, payload, self._response_codec(headers), keep_alive)
        return keep_alive

    def _call(
        self, verb: Verb, channel: str | None, query: dict, body: bytes, content_type: str
    ) -> tuple[int, dict, bool]:
        """Admit one service call and run it on this thread.

        Returns ``(status, payload, keep_alive)``; only a draining gateway
        closes the connection.
        """
        budgeted = channel if self.max_pending_per_channel is not None else None
        conflict = self._wrong_shard_payload(channel)
        with self._cond:
            if self._draining:
                return 503, {"error": "gateway is draining"}, False
            if conflict is not None:
                # Answered before admission: a 409 is the redirect signal of
                # the placement protocol, and a front door must be able to
                # learn it even while this worker's budget is saturated.
                return 409, conflict, True
            if len(self._running) >= self.max_pending:
                self._rejected += 1
                return 503, {
                    "error": f"gateway overloaded ({len(self._running)} requests in flight)"
                }, True
            if (
                budgeted is not None
                and self._channel_in_flight[budgeted] >= self.max_pending_per_channel
            ):
                # Per-channel fairness: the hot channel is refused while the
                # rest of the global budget stays available to the tail.
                self._rejected += 1
                if (
                    budgeted in self._channel_rejected
                    or len(self._channel_rejected) < _NAMED_REJECTED_CHANNELS
                ):
                    self._channel_rejected[budgeted] += 1
                else:
                    self._other_rejected += 1
                return 503, {
                    "error": (
                        f"channel {budgeted} overloaded "
                        f"({self._channel_in_flight[budgeted]} requests in flight)"
                    )
                }, True
            ticket = self._admitted
            self._admitted += 1
            self._running.add(ticket)
            if budgeted is not None:
                self._channel_in_flight[budgeted] += 1
        try:
            with self._slots:
                status, payload = self._execute(verb, channel, body, content_type, query)
        finally:
            # Released before the answer is written, so a client that has
            # its answer never finds its own slot still taken.
            with self._cond:
                self._running.discard(ticket)
                if budgeted is not None:
                    self._channel_in_flight[budgeted] -= 1
                    if self._channel_in_flight[budgeted] <= 0:
                        # Keep the counter sparse: a long-running gateway
                        # must not accumulate a key per channel ever seen.
                        del self._channel_in_flight[budgeted]
                self._cond.notify_all()
        return status, payload, True

    def _response_codec(self, headers: dict) -> str:
        """The response codec the request's ``Accept`` header asks for.

        An explicit preference always wins; no preference (no ``Accept``,
        or ``*/*``) falls back to the gateway's configured default; an
        Accept naming neither codec falls back to JSON — the one answer
        every client can parse.
        """
        accept = (headers.get("accept") or "").strip().lower()
        if wire.WIRE_CONTENT_TYPE in accept:
            return "binary"
        if "json" in accept:
            return "json"
        if accept in ("", "*/*"):
            return self.wire_codec
        return "json"

    def _decode_body(self, body: bytes, content_type: str):
        """Decode a request body by its declared content type.

        Both codecs enforce the same decoded-entity cap: JSON bodies *are*
        their decoded entity (bounded by the Content-Length check), and a
        binary frame's declared uncompressed size is checked against the
        identical cap before any decompression.  Both refuse non-finite
        numbers, as their encoders do.
        """
        if not body:
            return {}
        if content_type == wire.WIRE_CONTENT_TYPE:
            return wire.decode_frame(body, max_raw_bytes=_MAX_BODY_BYTES)
        return wire.decode_json(body)

    def _execute(
        self, verb: Verb, channel: str | None, body: bytes, content_type: str, query: dict
    ) -> tuple[int, dict]:
        """Decode, check and run one service call, mapping errors to statuses."""
        try:
            decoded = self._decode_body(body, content_type)
        except wire.CodecTooLargeError as error:
            return 413, {"error": str(error)}
        except wire.CodecError as error:
            return 400, {"error": f"request body is not a valid binary frame: {error}"}
        except ValueError as error:  # undecodable UTF-8 or JSON
            return 400, {"error": f"request body is not valid JSON: {error}"}
        if not isinstance(decoded, dict):
            return 400, {"error": "request body must be a JSON object"}
        # Re-check placement at execution time, not just admission: a
        # placement push (migration begin/commit, reshard freeze) may have
        # been installed between the two.  This is what makes the freeze a
        # real barrier — a request admitted just before the frozen map
        # landed cannot create channel state after the supervisor's census.
        conflict = self._wrong_shard_payload(channel)
        if conflict is not None:
            return 409, conflict
        try:
            args = verb.arguments(channel, decoded, query)
            owner, _, name = verb.calls.rpartition(".")
            call = getattr(self.service if owner else self, name, None)
            if call is None:
                raise ValidationError(f"this tier does not serve {verb.name}")
            return 200, verb.reply(call(*args), args)
        except ValidationError as error:
            conflict = self._wrong_shard_payload(channel)
            if conflict is not None:
                # The request was admitted before a placement push and its
                # channel migrated away mid-flight: the placement install
                # happens-before the source detach, so by the time the
                # service call failed, the map already disowns the channel.
                # Answer the redirect, not the (misleading) service error.
                return 409, conflict
            return 400, {"error": str(error)}
        except (KeyError, TypeError, ValueError) as error:
            return 400, {"error": f"malformed request payload: {error!r}"}
        except Exception as error:  # noqa: BLE001 - the wire needs an answer
            _LOGGER.exception("request handler failed")
            return 500, {"error": f"internal error: {error}"}

    def _reply(
        self,
        conn: socket.socket,
        route: str,
        status: int,
        payload: dict | str,
        codec: str,
        keep_alive: bool,
    ) -> None:
        """Encode and count one response, then write head and body in one send."""
        if isinstance(payload, str):
            content_type, body = "text/plain; charset=utf-8", payload.encode("utf-8")
        elif codec == "binary":
            content_type, body = wire.WIRE_CONTENT_TYPE, wire.encode_frame(payload)
        else:
            content_type = "application/json"
            body = json.dumps(payload, allow_nan=False).encode("utf-8")
        ingested = payload.get("ingested") if status == 200 and isinstance(payload, dict) else None
        with self._cond:
            self._responses[str(status)] += 1
            self._bytes_out += len(body)
            if status == 409:
                # Admission and _execute both answer 409 only for a channel
                # this shard must not serve.
                self._wrong_shard += 1
            if isinstance(ingested, int):
                self._events_ingested[route] += ingested
        head = (
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        )
        conn.sendall(head.encode("latin-1") + body)

    # ----------------------------------------------------------------- routing
    def _resolve(self, method: str, path: str) -> tuple[str, Verb | None, str | None]:
        """Map (method, path) to ``(route label, verb, channel)``.

        Unknown paths resolve to ``("unknown", None, None)`` (404); known
        paths with the wrong method to a ``None`` verb under the path's
        first route label (405).
        """
        parts = [part for part in path.split("/") if part]
        channel = self._channel_of(path)
        shape = tuple(parts) if channel is None else (parts[0], "{id}", parts[2])
        verbs = _SHAPES.get(shape)
        if verbs is None:
            return "unknown", None, None
        verb = verbs.get(method)
        if verb is None:
            return next(iter(verbs.values())).route, None, channel
        return verb.route, verb, channel

    @staticmethod
    def _channel_of(path: str) -> str | None:
        """The channel a path addresses, or ``None`` for channel-less routes.

        Every channel-addressed route has the shape ``/videos/{id}/…`` or
        ``/live/{id}/…`` — the same shapes :meth:`_resolve` dispatches — so
        per-channel admission needs no route table of its own.
        """
        parts = [part for part in path.split("/") if part]
        if len(parts) == 3 and parts[0] in ("videos", "live"):
            return parts[1]
        return None

    def _fence(self) -> bool:
        """Wait until every request admitted so far has finished executing.

        ``POST /admin/fence``, a worker's fence in the migration
        choreography.  A supervisor that (1) pushes a placement that takes
        a channel away (in flight, or every channel when frozen) — 409ing
        any later request for it at admission, and at execution any request
        admitted just before — then (2) fences, then (3) exports or lists
        channels is therefore guaranteed to see every write admitted under
        the old map, and none can start afterwards.
        """
        with self._cond:
            fence = self._admitted
            self._cond.wait_for(lambda: all(ticket >= fence for ticket in self._running))
        return True

    # ----------------------------------------------------------- placement
    def _installed_placement(self) -> PlacementMap | None:
        """The pushed cluster placement, if any (reference read under lock)."""
        with self._placement_lock:
            return self._placement

    def _effective_placement(self) -> PlacementMap | None:
        """The placement this gateway can answer for: pushed, else the service's."""
        placement = self._installed_placement()
        if placement is None:
            placement = getattr(self.service, "placement", None)
        return placement

    def _placement_epoch(self) -> int:
        """The epoch exposed on ``/healthz`` and ``/metrics`` (0 when unplaced)."""
        placement = self._effective_placement()
        return placement.epoch if placement is not None else 0

    def _wrong_shard_payload(self, channel: str | None) -> dict | None:
        """The 409 body for a channel this shard must not serve, or ``None``.

        Only a gateway with a cluster identity (``shard_index``) *and* an
        installed placement rejects anything: the placement push is what
        arms the check, so a fleet booted by an older supervisor keeps
        working epoch-0 style.  Channel-less routes — ``/placement``, the
        ``/admin/*`` migration choreography, health — always pass.
        """
        if self.shard_index is None or channel is None:
            return None
        placement = self._installed_placement()
        if placement is None:
            return None
        epoch = placement.epoch
        owner = placement.shard_for(channel)
        # A frozen map is the reshard commit barrier: every channel is
        # treated as in flight so no channel can be created or mutated
        # anywhere between the supervisor's channel census and the ring
        # swap.  Callers retry exactly like a per-channel migration.
        in_flight = placement.is_in_flight(channel) or placement.frozen
        if not in_flight and owner == self.shard_index:
            return None
        error = WrongShardError(channel, owner=owner, epoch=epoch, in_flight=in_flight)
        return {
            "error": str(error),
            "video_id": channel,
            "owner": owner,
            "epoch": epoch,
            "in_flight": in_flight,
        }

    def _placement_payload(self) -> dict:
        placement = self._effective_placement()
        if placement is None:
            raise ValidationError(
                "this gateway serves a tier without a placement map and none "
                "has been installed over POST /placement"
            )
        with self._placement_lock:
            addresses = [list(address) for address in self._placement_addresses]
        return {
            "placement": codecs.placement_map_to_dict(placement),
            "addresses": addresses,
            "shard_index": self.shard_index,
        }

    def _install_placement(
        self, pushed: PlacementMap, addresses: list[tuple[str, int]]
    ) -> dict:
        with self._placement_lock:
            if self._placement is None:
                self._placement = pushed
                installed = True
            else:
                installed = self._placement.install(pushed)
            if installed and addresses:
                self._placement_addresses = addresses
            epoch = self._placement.epoch
        return {"installed": installed, "epoch": epoch}

    # ------------------------------------------------------------ observability
    def _health_payload(self) -> dict:
        epoch = self._placement_epoch()
        with self._cond:
            return {
                "status": "draining" if self._draining else "ok",
                "shards": getattr(self.service, "n_shards", 1),
                "in_flight": len(self._running),
                "max_pending": self.max_pending,
                "max_pending_per_channel": self.max_pending_per_channel,
                "channels_in_flight": len(self._channel_in_flight),
                "placement_epoch": epoch,
                "shard_index": self.shard_index,
            }

    def _metrics_text(self) -> str:
        """Prometheus-style exposition of the gateway counters."""
        uptime = 0.0 if self._started_at is None else time.monotonic() - self._started_at
        epoch = self._placement_epoch()
        with self._cond:
            lines = [
                f"lightor_gateway_uptime_seconds {uptime:.3f}",
                f"lightor_gateway_in_flight {len(self._running)}",
                f"lightor_gateway_draining {int(self._draining)}",
                f"lightor_gateway_rejected_total {self._rejected}",
                f"lightor_gateway_max_pending_per_channel "
                f"{self.max_pending_per_channel or 0}",
                f"lightor_gateway_shards {getattr(self.service, 'n_shards', 1)}",
                f"lightor_gateway_placement_epoch {epoch}",
                f"lightor_gateway_wrong_shard_total {self._wrong_shard}",
                f"lightor_gateway_bytes_in_total {self._bytes_in}",
                f"lightor_gateway_bytes_out_total {self._bytes_out}",
            ]
            for route, count in sorted(self._requests.items()):
                lines.append(f'lightor_gateway_requests_total{{route="{route}"}} {count}')
            for ctype, count in sorted(self._content_types.items()):
                lines.append(
                    "lightor_gateway_requests_by_content_type_total"
                    f'{{content_type="{ctype}"}} {count}'
                )
            for status, count in sorted(self._responses.items()):
                lines.append(f'lightor_gateway_responses_total{{status="{status}"}} {count}')
            for route, count in sorted(self._events_ingested.items()):
                lines.append(f'lightor_gateway_events_ingested_total{{route="{route}"}} {count}')
            rejected = sorted(self._channel_rejected.items())
            if self._other_rejected:
                rejected.append(("other", self._other_rejected))
        for channel, count in rejected:
            lines.append(
                f'lightor_gateway_channel_rejected_total{{channel="{channel}"}} {count}'
            )
        return "\n".join(lines) + "\n"


class GatewayThread:
    """Serve a :class:`LightorGateway` from background threads of this process.

    The wire-mode load harness and the tests need to serve and drive from a
    single process.  The served *service*'s storage lifecycle stays with the
    caller: ``stop()`` only drains the HTTP side — follow it with
    ``service.close()`` (finalize) or ``service.suspend()`` (checkpoint for
    recovery).
    """

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0, **gateway_kwargs) -> None:
        self.gateway = LightorGateway(service, host=host, port=port, **gateway_kwargs)

    def start(self) -> tuple[str, int]:
        """Bind the gateway and start serving; returns the bound (host, port)."""
        self.gateway.start()
        return self.gateway.host, self.gateway.port

    @property
    def host(self) -> str:
        """The gateway's bind host."""
        return self.gateway.host

    @property
    def port(self) -> int:
        """The gateway's port — the *bound* one once :meth:`start` returned."""
        return self.gateway.port

    def stop(self, drain: bool = True) -> None:
        """Stop serving.  ``drain=True`` finishes in-flight work first;
        ``drain=False`` is the hard kill (:meth:`LightorGateway.abort`)."""
        if drain:
            self.gateway.drain()
        else:
            self.gateway.abort()

    def __enter__(self) -> "GatewayThread":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
