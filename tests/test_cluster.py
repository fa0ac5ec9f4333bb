"""Tests for the multi-process shard cluster (supervisor + front door).

Four properties matter:

* **lifecycle** — boot is supervised (a child dying during boot tears the
  fleet down), SIGTERM stops every worker with exit code 0, and ``stop()``
  is idempotent;
* **routing parity** — the front door's ring places every id on exactly
  the shard the in-process front door would pick, and a concurrent
  multi-channel run over the cluster persists byte-identical state to the
  sequential single-shard oracle;
* **failure paths** — a SIGKILLed worker is reported by the supervisor,
  survivors stop cleanly, and ``repro recover`` on the dead shard's own
  database lands on the byte-identical end state of an uninterrupted run;
* **readiness protocol** — ``repro serve --port 0`` prints the
  machine-readable ``listening on host:port`` line the supervisor parses.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.loadgen import LoadWorkload, WorkloadSpec, run_load
from repro.platform import codecs
from repro.platform.backends import SQLiteStore
from repro.platform.client import LightorClient
from repro.platform.cluster import ClusterFrontDoor, ShardClusterSupervisor
from repro.platform.sharding import ShardedLightorService, shard_db_path
from repro.platform.tier import TierSpec
from repro.utils.validation import ValidationError

SMALL = WorkloadSpec(channels=3, viewers=45, duration=900.0, batch_size=32, seed=11)
CHUNK = 64


def _chunks(items, size=CHUNK):
    return [items[i : i + size] for i in range(0, len(items), size)]


class TestSupervisorLifecycle:
    def test_boot_healthz_and_graceful_stop(self):
        supervisor = ShardClusterSupervisor(2, boot_timeout=60)
        supervisor.start()
        try:
            assert len(supervisor.addresses) == 2
            assert all(port > 0 for _, port in supervisor.addresses)
            assert supervisor.dead_shards() == []
            front = supervisor.front_door()
            payloads = front.healthz()
            assert [p["status"] for p in payloads] == ["ok", "ok"]
            assert all(p["shards"] == 1 for p in payloads)
            front.close()
            front.close()  # closing a front door is idempotent
        finally:
            codes = supervisor.stop()
        # SIGTERM is the graceful path: every worker drains and exits 0.
        assert codes == [0, 0]
        # Idempotent: the second stop returns the cached result, no errors.
        assert supervisor.stop() == [0, 0]
        assert supervisor.dead_shards() == []

    def test_boot_failure_tears_down_the_fleet(self, tmp_path):
        """A child that dies during boot (here: a poisoned shard database)
        must abort the whole start and leave no survivor running."""
        base = tmp_path / "poisoned.db"
        # Worker 1 will open shard_db_path(base, 1) and its single-shard
        # service suffixes once more; pre-write a mismatched ring marker
        # there so that worker refuses to boot.
        poison = SQLiteStore(shard_db_path(shard_db_path(base, 1), 0))
        poison.set_meta("n_shards", "4")
        poison.close()
        supervisor = ShardClusterSupervisor(
            2, backend="sqlite", db_path=base, boot_timeout=60
        )
        with pytest.raises(RuntimeError, match="shard 1"):
            supervisor.start()
        for worker in supervisor.workers:
            assert not worker.alive

    def test_invalid_configurations_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            ShardClusterSupervisor(0)
        with pytest.raises(ValidationError, match="sqlite"):
            ShardClusterSupervisor(2, db_path=tmp_path / "x.db")
        with pytest.raises(ValidationError, match="memory"):
            ShardClusterSupervisor(2, backend="sqlite", db_path=":memory:")
        with pytest.raises(ValidationError, match="wire codec"):
            ShardClusterSupervisor(2, wire_codec="msgpack")
        supervisor = ShardClusterSupervisor(1)
        supervisor._started = True
        with pytest.raises(ValidationError, match="already started"):
            supervisor.start()


class TestFrontDoorRouting:
    def test_ring_matches_inproc_placement(self, fitted_initializer):
        """The wire front door and the in-process front door must place
        every id identically — that is what makes their runs comparable."""
        inproc = ShardedLightorService.create(4, fitted_initializer)
        try:
            # The addresses are never dialled: placement is pure hashing.
            front = ClusterFrontDoor([("127.0.0.1", 1)] * 4)
            ids = [f"channel-{1000 + i}" for i in range(200)]
            assert [front.shard_index(i) for i in ids] == [
                inproc.shard_index(i) for i in ids
            ]
            # Memoized lookups answer the same as fresh ones.
            assert [front.shard_index(i) for i in ids] == [
                inproc.shard_index(i) for i in ids
            ]
        finally:
            inproc.close()

    def test_empty_address_list_rejected(self):
        with pytest.raises(ValidationError):
            ClusterFrontDoor([])


class TestClusterParity:
    def test_concurrent_cluster_run_is_byte_identical_to_inproc(
        self, fitted_initializer
    ):
        """The tentpole acceptance bar: the same multi-channel workload
        driven concurrently through shard *processes* must persist
        byte-identical state to the in-process sharded run — and both to
        the sequential single-shard oracle."""
        workload = LoadWorkload.from_spec(SMALL)
        inproc = run_load(
            SMALL, fitted_initializer, tier=TierSpec(shards=2, workers=2),
            workload=workload,
        )
        cluster = run_load(
            SMALL, fitted_initializer,
            tier=TierSpec(shards=2, workers=2, transport="cluster"), workload=workload,
        )
        assert cluster.transport == "cluster" and cluster.shards == 2
        assert cluster.oracle_checked and cluster.divergences == []
        assert {v: o.fingerprint for v, o in cluster.outcomes.items()} == {
            v: o.fingerprint for v, o in inproc.outcomes.items()
        }
        assert "transport cluster" in cluster.describe()
        assert cluster.to_dict()["transport"] == "cluster"

    def test_binary_cluster_run_is_byte_identical_to_inproc(
        self, fitted_initializer
    ):
        """The binary codec across process boundaries must not change a
        persisted byte: worker gateways default to binary responses and
        the front door's clients speak binary frames both ways."""
        workload = LoadWorkload.from_spec(SMALL)
        inproc = run_load(
            SMALL, fitted_initializer, tier=TierSpec(shards=2, workers=2),
            workload=workload,
        )
        binary = run_load(
            SMALL, fitted_initializer,
            tier=TierSpec(shards=2, workers=2, transport="cluster", wire_codec="binary"),
            workload=workload,
        )
        assert binary.transport == "cluster" and binary.wire_codec == "binary"
        assert binary.oracle_checked and binary.divergences == []
        assert {v: o.fingerprint for v, o in binary.outcomes.items()} == {
            v: o.fingerprint for v, o in inproc.outcomes.items()
        }
        assert "codec binary" in binary.describe()


class TestClusterFailure:
    def test_sigkill_one_shard_reports_and_recovers_byte_exactly(
        self, fitted_initializer, dota2_dataset, tmp_path
    ):
        """SIGKILL a shard worker mid-stream: the supervisor must report
        the death, the survivors must still stop cleanly, and ``repro
        recover`` on the dead shard's own database must finalize to the
        byte-identical dots of an uninterrupted run."""
        base = tmp_path / "cluster.db"
        target = dota2_dataset[2]
        video_id = target.video.video_id
        prefix = list(target.chat_log.messages)[:300]

        supervisor = ShardClusterSupervisor(
            2, backend="sqlite", db_path=base, checkpoint_every=100, boot_timeout=60
        )
        supervisor.start()
        try:
            front = supervisor.front_door()
            victim = front.shard_index(video_id)
            front.start_live(target.video)
            for chunk in _chunks(prefix):
                # Persist the chat: recovery can only replay what the store
                # holds, exactly like the single-gateway kill test.
                front.ingest_chat_batch(video_id, chunk, persist=True)
            front.close()

            worker = supervisor.workers[victim]
            worker.process.send_signal(signal.SIGKILL)
            worker.process.wait()
            deadline = time.monotonic() + 10
            while supervisor.dead_shards() != [victim]:
                assert time.monotonic() < deadline
                time.sleep(0.02)
        finally:
            codes = supervisor.stop()
        # The SIGKILLed worker's code reflects the kill; the survivor
        # drained gracefully.
        assert codes[victim] != 0
        assert all(code == 0 for i, code in enumerate(codes) if i != victim)

        # Recover the dead shard's database exactly as the operator would:
        # the worker ran `serve --shards 1` over shard_db_path(base, victim).
        shard_base = shard_db_path(base, victim)
        assert main(["recover", "--db-path", shard_base, "--shards", "1"]) == 0
        assert main(["recover", "--db-path", shard_base, "--shards", "1", "--end"]) == 0

        oracle = ShardedLightorService.create(1, fitted_initializer)
        oracle.start_live(target.video)
        for chunk in _chunks(prefix):
            oracle.ingest_chat_batch(video_id, chunk)
        expected = oracle.end_live(video_id, target.video.duration)
        oracle.close()

        reopened = SQLiteStore(shard_db_path(shard_base, 0))
        try:
            recovered = reopened.get_red_dots(video_id)
            assert [codecs.red_dot_to_dict(d) for d in recovered] == [
                codecs.red_dot_to_dict(d) for d in expected
            ]
            assert reopened.get_session_snapshots() == {}
        finally:
            reopened.close()


class TestServeReadiness:
    def test_serve_port_zero_prints_listening_line_before_banner(self):
        """``repro serve --port 0`` must report the bound port on a
        machine-readable first line — supervised use depends on it."""
        src_dir = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src_dir if not existing else os.pathsep.join(
            [src_dir, existing]
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            line = process.stdout.readline().strip()
            assert line.startswith("listening on ")
            host, _, port_text = line.removeprefix("listening on ").partition(":")
            port = int(port_text)
            assert port > 0
            with LightorClient(host, port, timeout=10) as client:
                assert client.healthz()["status"] == "ok"
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            process.stdout.close()
