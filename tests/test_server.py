"""Tests for the threaded HTTP gateway and its client.

Four properties matter:

* **wire parity** — a workload driven through the gateway persists (and
  returns) byte-identical state to the same workload driven in-process;
  the JSON wire format must be round-trip exact end to end;
* **validation** — malformed requests and service-level
  ``ValidationError``\\ s map to ``400`` with the service's message intact
  (the client re-raises the same exception type callers already handle);
* **backpressure** — past the ``max_pending`` admission budget the gateway
  answers ``503`` immediately while ``/healthz`` stays reachable;
* **recoverability** — a killed server's durable state alone must carry
  ``repro recover`` to the byte-identical end state of an uninterrupted
  run.
"""

from __future__ import annotations

import http.client
import socket
import struct
import sys
import threading
import time
import zlib

import pytest

from repro.cli import main
from repro.core.types import ChatMessage
from repro.platform import codecs, wire
from repro.platform.backends import SQLiteStore
from repro.platform.client import (
    GatewayError,
    GatewayOverloadedError,
    GatewayTimeoutError,
    LightorClient,
)
from repro.platform.server import (
    _MAX_HEAD_BYTES,
    _NAMED_REJECTED_CHANNELS,
    GatewayThread,
    LightorGateway,
)
from repro.platform.sharding import ShardedLightorService, shard_db_path
from repro.utils.validation import ValidationError

K = 4
CHUNK = 64


@pytest.fixture()
def tier(fitted_initializer):
    """A 2-shard in-memory service tier (closed by the ``served`` fixture)."""
    return ShardedLightorService.create(
        2, fitted_initializer, live_k=K, max_live_sessions=8
    )


@pytest.fixture()
def served(tier):
    """The tier behind a loopback gateway, with a connected client."""
    gateway = GatewayThread(tier)
    host, port = gateway.start()
    client = LightorClient(host, port)
    yield client, tier
    client.close()
    gateway.stop()
    tier.close()


def _chunks(items, size=CHUNK):
    return [items[i : i + size] for i in range(0, len(items), size)]


class TestWireParity:
    def test_live_run_matches_inproc_byte_for_byte(
        self, served, fitted_initializer, dota2_dataset, crowd
    ):
        client, tier = served
        oracle = ShardedLightorService.create(1, fitted_initializer, live_k=K)
        try:
            for target in dota2_dataset[2:4]:
                video_id = target.video.video_id
                client.start_live(target.video)
                oracle.start_live(target.video)
                wire_events, oracle_events = [], []
                for chunk in _chunks(list(target.chat_log.messages[:400])):
                    wire_events.extend(client.ingest_chat_batch(video_id, chunk))
                    oracle_events.extend(oracle.ingest_chat_batch(video_id, chunk))
                plays = crowd.collect_round(
                    target.video, codecs.red_dot_from_dict(
                        {"position": target.video.duration / 2}
                    ), 0,
                )
                wire_events.extend(client.ingest_plays_batch(video_id, plays))
                oracle_events.extend(oracle.ingest_plays_batch(video_id, plays))
                # The decoded wire events are the orchestrator's own value
                # objects, float-for-float.
                assert wire_events == oracle_events
                assert client.live_red_dots(video_id) == oracle.live_red_dots(video_id)
                wire_dots = client.end_live(video_id, target.video.duration)
                oracle_dots = oracle.end_live(video_id, target.video.duration)
                assert [codecs.red_dot_to_dict(d) for d in wire_dots] == [
                    codecs.red_dot_to_dict(d) for d in oracle_dots
                ]
                assert tier.get_red_dots(video_id) == oracle.get_red_dots(video_id)
        finally:
            oracle.close()

    def test_batch_surface_round_trips(self, served, dota2_dataset, crowd):
        client, tier = served
        target = dota2_dataset[4]
        video_id = target.video.video_id
        client.register_video(target.video)
        # The crawler serves this id only for live channels; store the chat
        # directly so request_red_dots finds it, as a pre-crawled video would.
        tier.store_for(video_id).put_chat(video_id, list(target.chat_log.messages))
        dots = client.request_red_dots(video_id, k=3)
        assert dots == tier.request_red_dots(video_id, k=3)
        if dots:
            plays = []
            for round_index in range(3):
                plays.extend(crowd.collect_round(target.video, dots[0], round_index))
            total = client.log_interactions(video_id, plays)
            assert total == len(plays)
            assert tier.store_for(video_id).get_interactions(video_id) == plays
            updated = client.refine_video(video_id)
            assert updated == 0 or tier.latest_highlights(video_id)

    def test_healthz_and_metrics(self, served):
        client, tier = served
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["shards"] == tier.n_shards
        text = client.metrics()
        assert "lightor_gateway_uptime_seconds" in text
        assert 'lightor_gateway_requests_total{route="healthz"}' in text


class TestValidation:
    def test_unknown_live_session_is_a_400(self, served, dota2_dataset):
        client, _ = served
        messages = list(dota2_dataset[2].chat_log.messages[:3])
        with pytest.raises(ValidationError, match="no live session"):
            client.ingest_chat_batch("ghost", messages)

    def test_interactions_for_unknown_video_is_a_400(self, served):
        client, _ = served
        with pytest.raises(ValidationError, match="unknown video"):
            client.log_interactions("ghost", [])

    def test_body_path_video_mismatch_is_a_400(self, served, dota2_dataset):
        client, _ = served
        video = dota2_dataset[2].video
        with pytest.raises(ValidationError, match="path names channel"):
            client._request(
                "POST", "/live/other/start", codecs.video_to_dict(video)
            )

    def test_non_list_messages_is_a_400(self, served, dota2_dataset):
        client, _ = served
        target = dota2_dataset[2]
        client.start_live(target.video)
        with pytest.raises(ValidationError, match="'messages' as a JSON list"):
            client._request(
                "POST", f"/live/{target.video.video_id}/chat", {"messages": "hello"}
            )
        client.end_live(target.video.video_id, target.video.duration)

    def test_non_integer_k_is_a_400(self, served):
        client, _ = served
        with pytest.raises(ValidationError, match="not an integer"):
            client._request("GET", "/videos/v/red-dots?k=abc")

    def test_malformed_json_body_is_a_400(self, served):
        client, _ = served
        connection = http.client.HTTPConnection(client.host, client.port, timeout=10)
        try:
            connection.request("POST", "/videos", body=b"{not json")
            response = connection.getresponse()
            assert response.status == 400
            assert b"not valid JSON" in response.read()
        finally:
            connection.close()

    def test_unknown_route_is_a_404(self, served):
        client, _ = served
        with pytest.raises(GatewayError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_wrong_method_is_a_405(self, served):
        client, _ = served
        with pytest.raises(GatewayError) as excinfo:
            client._request("GET", "/videos/v/refine")
        assert excinfo.value.status == 405


class _BlockingService:
    """A stub front door whose one endpoint blocks until released."""

    n_shards = 1

    def __init__(self) -> None:
        self.release = threading.Event()
        self.entered = threading.Event()

    def live_red_dots(self, video_id):
        self.entered.set()
        assert self.release.wait(timeout=30)
        return []


class TestOverload:
    def test_admission_budget_returns_503(self):
        service = _BlockingService()
        gateway = GatewayThread(service, max_pending=1, worker_threads=2)
        host, port = gateway.start()
        blocked = LightorClient(host, port)
        probe = LightorClient(host, port)
        try:
            worker = threading.Thread(
                target=blocked.live_red_dots, args=("v",), daemon=True
            )
            worker.start()
            assert service.entered.wait(timeout=30)
            # The budget is exhausted: admission is refused immediately …
            with pytest.raises(GatewayOverloadedError) as excinfo:
                probe.live_red_dots("v")
            assert excinfo.value.status == 503
            # … while health stays reachable and reports the saturation.
            assert probe.healthz()["in_flight"] == 1
            service.release.set()
            worker.join(timeout=30)
            assert not worker.is_alive()
            # With the slot free again the same request is served.
            assert probe.live_red_dots("v") == []
        finally:
            service.release.set()
            blocked.close()
            probe.close()
            gateway.stop()

    def test_invalid_gateway_knobs_rejected(self):
        with pytest.raises(ValidationError):
            LightorGateway(_BlockingService(), max_pending=0)
        with pytest.raises(ValidationError):
            LightorGateway(_BlockingService(), worker_threads=0)
        with pytest.raises(ValidationError):
            LightorGateway(_BlockingService(), max_pending_per_channel=0)


class _ChannelBlockingService:
    """A stub front door that blocks only the ``hot`` channel's requests."""

    n_shards = 1

    def __init__(self) -> None:
        self.release = threading.Event()
        self.entered = threading.Event()

    def live_red_dots(self, video_id):
        if video_id == "hot":
            self.entered.set()
            assert self.release.wait(timeout=30)
        return []


class TestPerChannelAdmission:
    def test_hot_channel_refused_while_tail_is_served(self):
        """The fairness property: one saturated channel exhausts only its
        *own* budget — the global budget stays available for the tail."""
        service = _ChannelBlockingService()
        gateway = GatewayThread(
            service, max_pending=8, max_pending_per_channel=1, worker_threads=4
        )
        host, port = gateway.start()
        blocked = LightorClient(host, port)
        probe = LightorClient(host, port)
        try:
            worker = threading.Thread(
                target=blocked.live_red_dots, args=("hot",), daemon=True
            )
            worker.start()
            assert service.entered.wait(timeout=30)
            # The hot channel's budget is spent: its next request is refused …
            with pytest.raises(GatewayOverloadedError) as excinfo:
                probe.live_red_dots("hot")
            assert excinfo.value.status == 503
            # … while a tail channel sails through on the same gateway —
            # the whale consumed none of the global budget the tail needs.
            assert probe.live_red_dots("cold") == []
            health = probe.healthz()
            assert health["max_pending_per_channel"] == 1
            assert health["channels_in_flight"] == 1
            assert 'lightor_gateway_channel_rejected_total{channel="hot"} 1' in (
                probe.metrics()
            )
            service.release.set()
            worker.join(timeout=30)
            assert not worker.is_alive()
            # The slot frees once the in-flight request drains.
            assert probe.live_red_dots("hot") == []
            assert probe.healthz()["channels_in_flight"] == 0
        finally:
            service.release.set()
            blocked.close()
            probe.close()
            gateway.stop()

    def test_channel_extraction_covers_both_route_families(self):
        assert LightorGateway._channel_of("/live/abc/chat") == "abc"
        assert LightorGateway._channel_of("/videos/v-1/red-dots") == "v-1"
        assert LightorGateway._channel_of("/healthz") is None
        assert LightorGateway._channel_of("/videos") is None
        assert LightorGateway._channel_of("/live/abc/chat/extra") is None

    def test_budget_disabled_by_default(self):
        """Without the knob the gateway must not track channels at all."""
        service = _ChannelBlockingService()
        gateway = GatewayThread(service, worker_threads=2)
        host, port = gateway.start()
        client = LightorClient(host, port)
        try:
            assert client.live_red_dots("cold") == []
            health = client.healthz()
            assert health["max_pending_per_channel"] is None
            assert health["channels_in_flight"] == 0
        finally:
            client.close()
            gateway.stop()


class TestConcurrentIngest:
    def test_multi_channel_wire_smoke(self, served, dota2_dataset):
        """Several clients hammer different channels concurrently; the final
        state must match a sequential wire-driven run of the same batches."""
        client, tier = served
        targets = list(dota2_dataset[2:5])
        for target in targets:
            client.start_live(target.video)

        def drive(target):
            own = LightorClient(client.host, client.port)
            try:
                for chunk in _chunks(list(target.chat_log.messages[:300])):
                    own.ingest_chat_batch(target.video.video_id, chunk)
            finally:
                own.close()

        threads = [
            threading.Thread(target=drive, args=(target,), daemon=True)
            for target in targets
        ]
        errors: list[BaseException] = []
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        finals = {
            t.video.video_id: client.end_live(t.video.video_id, t.video.duration)
            for t in targets
        }
        # Sequential oracle over the same per-channel batch sequences.
        oracle = ShardedLightorService.create(
            1, tier.shards[0].initializer, live_k=K
        )
        try:
            for target in targets:
                oracle.start_live(target.video)
                for chunk in _chunks(list(target.chat_log.messages[:300])):
                    oracle.ingest_chat_batch(target.video.video_id, chunk)
            for target in targets:
                expected = oracle.end_live(target.video.video_id, target.video.duration)
                assert finals[target.video.video_id] == expected
        finally:
            oracle.close()


class TestKillRecover:
    def test_killed_server_recovers_byte_exactly(
        self, fitted_initializer, dota2_dataset, tmp_path
    ):
        """Hard-kill the gateway mid-stream; ``repro recover --end`` must land
        on the byte-identical dots of an uninterrupted run."""
        db = tmp_path / "gateway.db"
        target = dota2_dataset[2]
        video_id = target.video.video_id
        messages = list(target.chat_log.messages)
        prefix = messages[: (len(messages) // 2)]

        service = ShardedLightorService.create(
            1, fitted_initializer, backend="sqlite", db_path=db,
            live_k=K, checkpoint_every=100,
        )
        gateway = GatewayThread(service)
        host, port = gateway.start()
        client = LightorClient(host, port)
        client.start_live(target.video)
        for chunk in _chunks(prefix):
            client.ingest_chat_batch(video_id, chunk, persist=True)
        client.close()
        gateway.stop(drain=False)  # the kill: no drain, no checkpoint sweep
        for shard in service.shards:
            shard.store.close()  # release the file handles, finalize nothing

        # `repro recover` rebuilds and `--end` finalizes at the stored
        # duration (the CLI retrains the same seed-2020 model).
        assert main(["recover", "--db-path", str(db)]) == 0
        assert main(["recover", "--db-path", str(db), "--end"]) == 0

        # The uninterrupted oracle: same prefix, ended at the same duration.
        oracle = ShardedLightorService.create(1, fitted_initializer, live_k=K)
        oracle.start_live(target.video)
        for chunk in _chunks(prefix):
            oracle.ingest_chat_batch(video_id, chunk)
        expected = oracle.end_live(video_id, target.video.duration)
        oracle.close()

        reopened = SQLiteStore(shard_db_path(db, 0))
        try:
            recovered = reopened.get_red_dots(video_id)
            assert [codecs.red_dot_to_dict(d) for d in recovered] == [
                codecs.red_dot_to_dict(d) for d in expected
            ]
            assert reopened.get_session_snapshots() == {}
        finally:
            reopened.close()

    def test_drained_server_suspends_open_sessions(
        self, fitted_initializer, dota2_dataset, tmp_path
    ):
        """The SIGTERM path: drain + suspend leaves every open session
        checkpointed, and a fresh tier resumes it byte-exactly."""
        db = tmp_path / "drained.db"
        target = dota2_dataset[3]
        video_id = target.video.video_id
        messages = list(target.chat_log.messages)

        service = ShardedLightorService.create(
            2, fitted_initializer, backend="sqlite", db_path=db,
            live_k=K, checkpoint_every=100,
        )
        gateway = GatewayThread(service)
        host, port = gateway.start()
        with LightorClient(host, port) as client:
            client.start_live(target.video)
            for chunk in _chunks(messages[:300]):
                client.ingest_chat_batch(video_id, chunk, persist=True)
        gateway.stop()  # graceful drain …
        assert service.suspend() == 1  # … then checkpoint-and-release

        resumed = ShardedLightorService.create(
            2, fitted_initializer, backend="sqlite", db_path=db,
            live_k=K, checkpoint_every=100,
        )
        reports = resumed.recover_live_sessions()
        assert [r.video_id for r in reports] == [video_id]
        assert reports[0].messages_ingested == 300
        resumed.ingest_chat_batch(video_id, messages[300:], persist=True)
        final = resumed.end_live(video_id, target.video.duration)
        resumed.close()

        oracle = ShardedLightorService.create(1, fitted_initializer, live_k=K)
        oracle.start_live(target.video)
        oracle.ingest_chat_batch(video_id, messages)
        expected = oracle.end_live(video_id, target.video.duration)
        oracle.close()
        assert [codecs.red_dot_to_dict(d) for d in final] == [
            codecs.red_dot_to_dict(d) for d in expected
        ]


class TestStoredStateReads:
    def test_stored_state_reads_round_trip(self, served, dota2_dataset):
        """The GET read surface (stored dots, highlight history, latest
        highlights, interactions) must decode to the exact objects the
        shard's backend holds — it is what cluster parity checks read."""
        client, tier = served
        target = dota2_dataset[5]
        video_id = target.video.video_id
        client.start_live(target.video)
        for chunk in _chunks(list(target.chat_log.messages[:300])):
            client.ingest_chat_batch(video_id, chunk)
        client.end_live(video_id, target.video.duration)
        store = tier.store_for(video_id)
        assert client.get_red_dots(video_id) == store.get_red_dots(video_id)
        assert client.highlight_history(video_id) == store.highlight_history(video_id)
        assert client.latest_highlights(video_id) == store.latest_highlights(video_id)
        assert client.get_interactions(video_id) == store.get_interactions(video_id)
        assert client.get_interactions(video_id) == tier.get_interactions(video_id)


class TestClientTimeout:
    def test_unresponsive_server_raises_typed_timeout(self):
        """A server that accepts but never answers must surface as
        :class:`GatewayTimeoutError` (a 504 ``GatewayError``), not a bare
        socket timeout — and must NOT be retried: the request may have
        reached the service and be executing."""
        listener = socket.create_server(("127.0.0.1", 0))
        host, port = listener.getsockname()
        client = LightorClient(host, port, timeout=0.3)
        try:
            started = time.monotonic()
            with pytest.raises(GatewayTimeoutError) as excinfo:
                client.healthz()
            elapsed = time.monotonic() - started
            # One timeout's worth of waiting, not a retry loop's.
            assert 0.2 <= elapsed < 2.0
            error = excinfo.value
            assert isinstance(error, GatewayError) and error.status == 504
            assert f"{host}:{port}" in str(error) and "0.3" in str(error)
            # The wedged connection was dropped: a later call redials
            # rather than reusing a socket with a half-sent request on it.
            assert client._connection is None
        finally:
            client.close()
            listener.close()


def _exchange(host, port, request: bytes) -> bytes:
    """Send all of ``request``, then read the answer until the server closes.

    This is how curl and most clients behave: they read nothing until the
    request is sent, so a server that stops reading and resets the
    connection makes the send fail before the answer is seen.
    """
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


class TestRequestHeadCap:
    """A request head past 64 KiB gets a 431 and a closed connection."""

    def test_one_oversized_header_line_is_a_431(self, served):
        client, _ = served
        request = (
            b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * (_MAX_HEAD_BYTES + 10) + b"\r\n\r\n"
        )
        answer = _exchange(client.host, client.port, request)
        assert answer.startswith(b"HTTP/1.1 431 Request Header Fields Too Large\r\n")
        assert b"Connection: close" in answer
        assert client.healthz()["status"] == "ok"  # the gateway is unharmed

    def test_a_flood_of_short_header_lines_is_a_431(self, served):
        client, _ = served
        request = b"GET /healthz HTTP/1.1\r\n" + b"X-A: b\r\n" * 200_000 + b"\r\n"
        answer = _exchange(client.host, client.port, request)
        assert answer.startswith(b"HTTP/1.1 431 ")
        assert 'lightor_gateway_responses_total{status="431"} 1' in client.metrics()

    def test_a_head_just_under_the_cap_is_served(self, served):
        client, _ = served
        start = b"GET /healthz HTTP/1.1\r\nX-Big: "
        end = b"\r\nConnection: close\r\n\r\n"
        filler = b"a" * (_MAX_HEAD_BYTES - len(start) - len(end))
        answer = _exchange(client.host, client.port, start + filler + end)
        assert answer.startswith(b"HTTP/1.1 200 ")


class _OneShotStub:
    """A raw-socket server that answers one request per connection, then
    closes it, whatever its ``Connection`` header promised."""

    def __init__(self, connection_header: str = "keep-alive") -> None:
        self.connection_header = connection_header
        self.requests = 0
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.host, self.port = self.listener.getsockname()
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self.listener.accept()
            except OSError:
                return
            with conn, conn.makefile("rb") as reader:
                length = 0
                while (line := reader.readline()) not in (b"\r\n", b""):
                    if line.lower().startswith(b"content-length:"):
                        length = int(line.split(b":")[1])
                reader.read(length)
                self.requests += 1
                body = b'{"status": "ok"}'
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                    + f"Content-Length: {len(body)}\r\n".encode()
                    + f"Connection: {self.connection_header}\r\n\r\n".encode()
                    + body
                )

    def close(self) -> None:
        try:
            self.listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.listener.close()
        self.thread.join(timeout=10)
        assert not self.thread.is_alive()


class _RecordingService:
    """A stub front door that records every ``end_live`` it is asked for."""

    n_shards = 1

    def __init__(self) -> None:
        self.calls: list[tuple] = []

    def end_live(self, video_id, duration=None):
        self.calls.append((video_id, duration))
        return []


class TestTransferEncoding:
    def test_a_chunked_request_is_a_501_and_never_served(self):
        service = _RecordingService()
        gateway = GatewayThread(service)
        host, port = gateway.start()
        try:
            answer = _exchange(
                host, port,
                b"POST /live/chan/end HTTP/1.1\r\nHost: x\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                b'11\r\n{"duration": 5.0}\r\n0\r\n\r\n',
            )
        finally:
            gateway.stop()
        assert answer.startswith(b"HTTP/1.1 501 ")
        assert b"Connection: close" in answer
        assert answer.count(b"HTTP/1.1 ") == 1  # the chunks were not read as a request
        assert service.calls == []


def _reframe(blob: bytes, old: bytes, new: bytes) -> bytes:
    """A valid frame whose (uncompressed) payload has ``old`` swapped for ``new``."""
    header, payload = blob[: wire.HEADER_SIZE], blob[wire.HEADER_SIZE :]
    assert payload.count(old) == 1
    payload = payload.replace(old, new)
    crc = zlib.crc32(payload, zlib.crc32(header[: wire.HEADER_SIZE - 4])) & 0xFFFFFFFF
    return header[: wire.HEADER_SIZE - 4] + struct.pack("!I", crc) + payload


class TestNonFiniteNumbers:
    """NaN and infinities are not JSON; both codecs refuse them at decode."""

    def _post(self, client, path, body, content_type):
        connection = http.client.HTTPConnection(client.host, client.port, timeout=10)
        try:
            connection.request("POST", path, body=body, headers={"Content-Type": content_type})
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_json_constants_are_a_400(self, served, dota2_dataset, constant):
        client, _ = served
        video = dota2_dataset[2].video
        client.start_live(video)
        status, body = self._post(
            client, f"/live/{video.video_id}/end",
            f'{{"duration": {constant}}}'.encode(), "application/json",
        )
        assert status == 400
        assert b"not a JSON number" in body
        # Nothing wedged: the channel still closes normally.
        assert isinstance(client.end_live(video.video_id, video.duration), list)

    @pytest.mark.parametrize("leaf", ["end", "chat"])
    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_binary_floats_are_a_400(self, served, dota2_dataset, leaf, bad):
        client, _ = served
        video = dota2_dataset[2].video
        client.start_live(video)
        if leaf == "end":
            payload = {"duration": 1.5}
        else:  # two records: the timestamps travel as one float column
            messages = [ChatMessage(1.5, "a", "gg"), ChatMessage(2.0, "b", "wp")]
            payload = {"messages": [codecs.chat_message_to_dict(m) for m in messages]}
        blob = _reframe(
            wire.encode_frame(payload, compress_threshold=None),
            struct.pack("!d", 1.5), struct.pack("!d", bad),
        )
        status, body = self._post(
            client, f"/live/{video.video_id}/{leaf}", blob, wire.WIRE_CONTENT_TYPE
        )
        assert status == 400
        assert b"non-finite float" in body
        assert isinstance(client.end_live(video.video_id, video.duration), list)


class TestClientReplayRules:
    """What the client does when a kept-alive connection went stale."""

    def test_a_get_is_retried_once_on_a_fresh_connection(self):
        stub = _OneShotStub()
        client = LightorClient(stub.host, stub.port, timeout=5)
        try:
            assert client.healthz() == {"status": "ok"}
            # The stub closed that connection: the GET fails on it, then
            # succeeds on a new one.
            assert client.healthz() == {"status": "ok"}
            assert stub.requests == 2
        finally:
            client.close()
            stub.close()

    def test_a_post_on_a_stale_connection_is_never_resent(self):
        stub = _OneShotStub()
        client = LightorClient(stub.host, stub.port, timeout=5)
        try:
            assert client.healthz() == {"status": "ok"}
            with pytest.raises(ConnectionError):
                client.refine_video("v")
            assert client._connection is None  # dropped, not reused
            time.sleep(0.2)  # room for a resend to arrive, were there one
            assert stub.requests == 1
        finally:
            client.close()
            stub.close()

    def test_a_connection_close_answer_drops_the_connection(self):
        stub = _OneShotStub(connection_header="close")
        client = LightorClient(stub.host, stub.port, timeout=5)
        try:
            assert client.healthz() == {"status": "ok"}
            assert client._connection is None
            assert client.healthz() == {"status": "ok"}
            assert stub.requests == 2
        finally:
            client.close()
            stub.close()


def _gateway_threads() -> set[threading.Thread]:
    return {t for t in threading.enumerate() if t.name.startswith("lightor-gateway")}


class TestThreadedLifecycle:
    @pytest.mark.parametrize("drain", [True, False], ids=["drain", "abort"])
    def test_stop_leaves_no_thread_and_closes_the_port(self, drain):
        before = _gateway_threads()
        gateway = GatewayThread(_BlockingService())
        host, port = gateway.start()
        idle = [LightorClient(host, port) for _ in range(3)]
        for client in idle:
            assert client.healthz()["status"] == "ok"  # kept alive, now idle
        assert len(_gateway_threads() - before) == 4  # accept + one per connection
        gateway.stop(drain=drain)
        assert not (_gateway_threads() - before)
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection((host, port), timeout=5).close()
        for client in idle:
            client.close()

    def test_a_connection_past_the_ceiling_gets_a_503(self):
        gateway = GatewayThread(_BlockingService(), max_pending=1, worker_threads=1)
        host, port = gateway.start()
        held = [LightorClient(host, port) for _ in range(2)]
        extra = LightorClient(host, port)
        try:
            for client in held:  # max_pending + worker_threads connections
                assert client.healthz()["status"] == "ok"
            with pytest.raises(GatewayOverloadedError) as excinfo:
                extra.healthz()
            assert excinfo.value.status == 503
            assert "too many open connections" in str(excinfo.value)
            assert extra._connection is None
            assert held[0].healthz()["status"] == "ok"
        finally:
            for client in held + [extra]:
                client.close()
            gateway.stop()

    def test_fence_waits_for_an_admitted_request(self):
        service = _BlockingService()
        gateway = GatewayThread(service, worker_threads=2)
        host, port = gateway.start()
        blocked = LightorClient(host, port)
        fencer = LightorClient(host, port)
        fenced = threading.Event()
        try:
            worker = threading.Thread(
                target=blocked.live_red_dots, args=("v",), daemon=True
            )
            worker.start()
            assert service.entered.wait(timeout=30)
            fence = threading.Thread(
                target=lambda: fencer.fence() and fenced.set(), daemon=True
            )
            fence.start()
            # The admitted request is still executing: the fence must wait.
            assert not fenced.wait(timeout=0.5)
            service.release.set()
            fence.join(timeout=30)
            assert not fence.is_alive() and fenced.is_set()
            worker.join(timeout=30)
            assert not worker.is_alive()
        finally:
            service.release.set()
            blocked.close()
            fencer.close()
            gateway.stop()


class TestConcurrentCounting:
    def test_no_count_is_lost_under_contention(self):
        """Eight clients on two CPUs, switching threads as often as the
        interpreter allows: every request and answer is counted, and every
        admission slot is given back."""
        gateway = GatewayThread(
            _ChannelBlockingService(), worker_threads=4, max_pending_per_channel=64
        )
        host, port = gateway.start()
        clients, calls = 8, 50

        def drive(index):
            with LightorClient(host, port) as client:
                for _ in range(calls):
                    assert client.live_red_dots(f"ch{index % 3}") == []

        workers = [threading.Thread(target=drive, args=(i,), daemon=True) for i in range(clients)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(previous)
        try:
            with LightorClient(host, port) as probe:
                health, text = probe.healthz(), probe.metrics()
        finally:
            gateway.stop()
        assert (health["in_flight"], health["channels_in_flight"]) == (0, 0)
        total = clients * calls
        assert f'lightor_gateway_requests_total{{route="live_dots"}} {total}' in text
        # The healthz answer is the one more 200; /metrics counts after itself.
        assert f'lightor_gateway_responses_total{{status="200"}} {total + 1}' in text


class TestBoundedRejectionLabel:
    def test_channels_past_the_named_ones_share_the_other_series(self):
        gateway = LightorGateway(_ChannelBlockingService(), max_pending_per_channel=1)
        channels = [f"ch{i}" for i in range(_NAMED_REJECTED_CHANNELS + 5)]
        _, verb, _ = gateway._resolve("GET", "/live/x/dots")
        refusals = 0
        for channel in channels:
            gateway._channel_in_flight[channel] = 1  # its budget is spent
            for _ in range(2):
                status, _, _ = gateway._call(verb, channel, {}, b"", "none")
                assert status == 503
                refusals += 1
        series = [
            line
            for line in gateway._metrics_text().splitlines()
            if line.startswith("lightor_gateway_channel_rejected_total{")
        ]
        assert len(series) == _NAMED_REJECTED_CHANNELS + 1
        assert series[-1] == 'lightor_gateway_channel_rejected_total{channel="other"} 10'
        assert sum(int(line.rsplit(" ", 1)[1]) for line in series) == refusals


class TestGatewayThreadAddress:
    def test_host_and_port_properties_expose_bound_address(self, tier):
        gateway = GatewayThread(tier)
        try:
            host, port = gateway.start()
            assert (gateway.host, gateway.port) == (host, port)
            assert port > 0
        finally:
            gateway.stop()
            tier.close()


class TestBinaryWire:
    """The negotiated binary codec: parity, negotiation, caps, observability."""

    def test_binary_client_matches_json_client(self, served, dota2_dataset):
        client, _tier = served
        binary = LightorClient(client.host, client.port, wire_codec="binary")
        target = dota2_dataset[2]
        video_id = target.video.video_id
        messages = list(target.chat_log.messages)
        try:
            binary.start_live(target.video)
            events = []
            for start in range(0, len(messages), CHUNK):
                events.extend(
                    binary.ingest_chat_batch(video_id, messages[start : start + CHUNK])
                )
            # Both codecs read the same live state back identically.
            assert binary.live_red_dots(video_id) == client.live_red_dots(video_id)
            final_binary = binary.end_live(video_id, target.video.duration)
            # Replay through JSON: byte-identical event stream and dots.
            oracle = dota2_dataset[2]
            client.start_live(oracle.video.__class__(
                video_id=video_id + "-oracle",
                duration=oracle.video.duration,
                game=oracle.video.game,
                channel=oracle.video.channel,
                viewer_count=oracle.video.viewer_count,
                highlights=oracle.video.highlights,
            ))
            oracle_events = []
            remapped = [
                m.__class__(timestamp=m.timestamp, user=m.user, text=m.text)
                for m in messages
            ]
            for start in range(0, len(remapped), CHUNK):
                oracle_events.extend(
                    client.ingest_chat_batch(
                        video_id + "-oracle", remapped[start : start + CHUNK]
                    )
                )
            final_json = client.end_live(video_id + "-oracle", target.video.duration)
            assert [e.__class__.__name__ for e in events] == [
                e.__class__.__name__ for e in oracle_events
            ]
            assert [d.position for d in final_binary] == [d.position for d in final_json]
            assert [d.score for d in final_binary] == [d.score for d in final_json]
        finally:
            binary.close()

    def test_accept_negotiation(self, served):
        client, _ = served
        connection = http.client.HTTPConnection(client.host, client.port, timeout=10)
        try:
            # Binary Accept → binary response.
            connection.request("GET", "/healthz", headers={"Accept": wire.WIRE_CONTENT_TYPE})
            response = connection.getresponse()
            body = response.read()
            assert wire.WIRE_CONTENT_TYPE in response.getheader("Content-Type")
            assert wire.decode_frame(body)["status"] == "ok"
            # No Accept → the gateway default (json here): old clients work.
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            body = response.read()
            assert "json" in response.getheader("Content-Type")
            # Unrelated Accept → json, the answer anyone can parse.
            connection.request("GET", "/healthz", headers={"Accept": "text/html"})
            response = connection.getresponse()
            assert "json" in response.getheader("Content-Type")
            response.read()
        finally:
            connection.close()

    def test_binary_default_gateway_honours_json_accept(self, fitted_initializer):
        # A gateway defaulted to binary must still serve JSON to an explicit
        # Accept — a PR-6-era client (which now sends Accept: application/json)
        # and even header-less probes keep working against it.
        tier = ShardedLightorService.create(1, fitted_initializer, live_k=K)
        gateway = GatewayThread(tier, wire_codec="binary")
        try:
            host, port = gateway.start()
            connection = http.client.HTTPConnection(host, port, timeout=10)
            try:
                connection.request("GET", "/healthz", headers={"Accept": "application/json"})
                response = connection.getresponse()
                assert "json" in response.getheader("Content-Type")
                assert b'"status"' in response.read()
                # No preference → the configured default: binary.
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert wire.WIRE_CONTENT_TYPE in response.getheader("Content-Type")
                assert wire.decode_frame(response.read())["status"] == "ok"
            finally:
                connection.close()
            json_client = LightorClient(host, port)
            assert json_client.healthz()["status"] == "ok"
            json_client.close()
        finally:
            gateway.stop()
            tier.close()

    def test_corrupt_binary_body_is_a_400(self, served):
        client, _ = served
        blob = bytearray(wire.encode_frame({"video_id": "v", "duration": 10.0}))
        blob[-1] ^= 0xFF
        connection = http.client.HTTPConnection(client.host, client.port, timeout=10)
        try:
            connection.request(
                "POST", "/videos", body=bytes(blob),
                headers={"Content-Type": wire.WIRE_CONTENT_TYPE},
            )
            response = connection.getresponse()
            assert response.status == 400
            assert b"not a valid binary frame" in response.read()
        finally:
            connection.close()

    def test_decoded_entity_cap_is_a_413_for_both_codecs(self, served):
        client, _ = served
        cap = 16 * 1024 * 1024
        # Binary: a small *compressed* frame declaring an over-cap decoded
        # entity must be refused before decompression — the zip-bomb hole
        # the JSON-text-length cap left open.
        over = wire.encode_frame({"x": "a" * (cap + 1024)})
        assert len(over) < cap  # compresses tiny; only raw_len is huge
        connection = http.client.HTTPConnection(client.host, client.port, timeout=30)
        try:
            connection.request(
                "POST", "/videos", body=over,
                headers={"Content-Type": wire.WIRE_CONTENT_TYPE},
            )
            response = connection.getresponse()
            assert response.status == 413
            response.read()
            # Boundary: just under the cap decodes (and fails validation,
            # not admission — proof it got through the cap).
            under = wire.encode_frame({"x": "a" * (cap - 4096)})
            connection.request(
                "POST", "/videos", body=under,
                headers={"Content-Type": wire.WIRE_CONTENT_TYPE},
            )
            response = connection.getresponse()
            assert response.status == 400
            response.read()
        finally:
            connection.close()
        # JSON: the Content-Length check enforces the same cap — the refusal
        # comes straight off the headers (before the body is even sent), so
        # drive the socket by hand.
        sock = socket.create_connection((client.host, client.port), timeout=10)
        try:
            sock.sendall(
                b"POST /videos HTTP/1.1\r\nHost: t\r\n"
                b"Content-Type: application/json\r\n"
                + f"Content-Length: {cap + 2}\r\n\r\n".encode()
            )
            head = sock.recv(4096)
            assert b"413" in head.split(b"\r\n", 1)[0]
        finally:
            sock.close()

    def test_metrics_report_bytes_and_content_types(self, served, dota2_dataset):
        client, _ = served
        binary = LightorClient(client.host, client.port, wire_codec="binary")
        target = dota2_dataset[3]
        try:
            binary.start_live(target.video)
            binary.ingest_chat_batch(
                target.video.video_id, list(target.chat_log.messages[:32])
            )
            binary.end_live(target.video.video_id, target.video.duration)
            text = client.metrics()
        finally:
            binary.close()
        assert "lightor_gateway_bytes_in_total " in text
        assert "lightor_gateway_bytes_out_total " in text
        bytes_in = int(text.split("lightor_gateway_bytes_in_total ")[1].split("\n")[0])
        bytes_out = int(text.split("lightor_gateway_bytes_out_total ")[1].split("\n")[0])
        assert bytes_in > 0 and bytes_out > 0
        assert (
            'lightor_gateway_requests_by_content_type_total'
            f'{{content_type="{wire.WIRE_CONTENT_TYPE}"}}'
        ) in text
        # Body-less GETs are counted under "none".
        assert 'content_type="none"' in text

    def test_invalid_wire_codec_rejected(self, tier):
        with pytest.raises(ValidationError, match="unknown wire codec"):
            LightorGateway(tier, wire_codec="msgpack")
        with pytest.raises(ValidationError, match="unknown wire codec"):
            LightorClient("h", 1, wire_codec="msgpack")
        tier.close()
