"""Tests for the tier spec and ``open_tier`` (``repro.platform.tier``)."""

from __future__ import annotations

from itertools import product

import pytest

from repro.platform.tier import SQLITE_CADENCE, TRANSPORTS, TierSpec, open_tier
from repro.utils.validation import ValidationError

FILE = "tier.db"  # relative to the test's tmp_path
WIRE = "applies to wire transports only"
CLUSTER_KILL = "transport='cluster'"

# ``(case, spec fields, outcome)``: the outcome is ``None`` when the spec
# opens, else the message it refuses with; a dict gives it per transport.
CASES = [
    ("defaults", {}, None),
    ("sqlite file", {"backend": "sqlite", "db_path": FILE}, None),
    ("db path on memory", {"db_path": FILE}, "--db-path requires --backend sqlite"),
    ("unknown backend", {"backend": "cassandra"}, "unknown backend"),
    ("no shards", {"shards": 0}, "--shards must be at least 1"),
    ("no workers", {"workers": 0}, "--workers must be at least 1"),
    ("zero cadence", {"checkpoint_every": 0}, "--checkpoint-every must be at least 1"),
    ("negative cadence", {"checkpoint_every": -5}, "--checkpoint-every must be at least 1"),
    ("zero k", {"k": 0}, "--k must be at least 1"),
    ("no live sessions", {"max_live_sessions": 0}, "--max-live-sessions must be at least 1"),
    ("no admission", {"max_pending": 0}, "--max-pending must be at least 1"),
    ("zero per-channel budget", {"max_pending_per_channel": 0}, "at least 1"),
    ("unknown codec", {"wire_codec": "msgpack"}, "unknown wire codec"),
    ("binary codec", {"wire_codec": "binary"}, {"inproc": WIRE}),
    ("per-channel budget", {"max_pending_per_channel": 2}, {"inproc": WIRE}),
    ("kill on memory", {"kill": True}, {"inproc": "--backend sqlite", "http": "--backend sqlite",
                                        "cluster": CLUSTER_KILL}),
    ("kill on a file", {"kill": True, "backend": "sqlite", "db_path": FILE},
     {"cluster": CLUSTER_KILL}),
]


@pytest.mark.parametrize(
    "transport, case, fields, outcome",
    [
        (transport, case, fields, outcome.get(transport) if isinstance(outcome, dict) else outcome)
        for transport, (case, fields, outcome) in product(TRANSPORTS, CASES)
    ],
)
def test_spec_opens_or_refuses(transport, case, fields, outcome, fitted_initializer, tmp_path):
    if fields.get("db_path") == FILE:
        fields = {**fields, "db_path": tmp_path / FILE}
    if outcome is not None:
        with pytest.raises(ValidationError, match=outcome):
            TierSpec(transport=transport, **fields)
        return
    spec = TierSpec(transport=transport, **fields)
    with open_tier(spec, fitted_initializer) as tier:
        fronts = tier.connect(2)
        assert len(fronts) == 2
        assert tier.service.n_shards == spec.shards
        assert tier.target is (tier.supervisor or tier.service)


def test_unknown_transport_is_refused():
    with pytest.raises(ValidationError, match="unknown transport 'telnet'"):
        TierSpec(transport="telnet")


@pytest.mark.parametrize(
    "fields, cadence",
    [
        ({}, None),
        ({"backend": "sqlite"}, SQLITE_CADENCE),
        ({"backend": "sqlite", "checkpoint_every": 64}, 64),
        ({"checkpoint_every": 7}, 7),
    ],
)
def test_checkpoint_cadence_rule(fields, cadence):
    assert TierSpec(**fields).cadence == cadence


def test_kill_needs_fresh_files(fitted_initializer, tmp_path):
    (tmp_path / "stale.shard1.db").write_bytes(b"")
    spec = TierSpec(backend="sqlite", db_path=tmp_path / "stale.db", shards=2, kill=True)
    with pytest.raises(ValidationError, match="stale.shard1.db"):
        open_tier(spec, fitted_initializer)


def test_reopen_recovers_over_the_same_files(fitted_initializer, labelled_video, tmp_path):
    spec = TierSpec(backend="sqlite", db_path=tmp_path / "crash.db", checkpoint_every=50)
    video = labelled_video.video
    with open_tier(spec, fitted_initializer) as tier:
        assert tier.reopenable
        tier.service.start_live(video)
        messages = list(labelled_video.chat_log.messages[:120])
        tier.service.ingest_chat_batch(video.video_id, messages, persist=True)
        fresh = tier.reopen(1)
        assert fresh is tier.service
        (recovered,) = fresh.recover_live_sessions()
        assert (recovered.video_id, recovered.messages_ingested) == (video.video_id, 120)


def test_release_leaves_sessions_recoverable(fitted_initializer, labelled_video, tmp_path):
    spec = TierSpec(backend="sqlite", db_path=tmp_path / "drain.db")
    video = labelled_video.video
    with open_tier(spec, fitted_initializer) as tier:
        tier.service.start_live(video)
        assert tier.release(checkpoint=True) == 1
        assert tier.service is None
    with open_tier(spec, fitted_initializer) as tier:
        assert [r.video_id for r in tier.service.recover_live_sessions()] == [video.video_id]
