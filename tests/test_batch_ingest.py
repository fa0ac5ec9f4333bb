"""Batch-vs-sequential ingest equivalence.

The service contract introduced with batched ingest: however a channel's
event stream is chunked into ``ingest_chat_batch`` / ``ingest_plays_batch``
calls — including the degenerate per-event chunking into batches of one —
the *persisted* outcome is byte-identical:
same interaction log, same final red dots, same refined-highlight records,
on every backend.  Hypothesis drives arbitrary event streams and arbitrary
call partitions at both the window-builder level (exact fold) and the full
service level (store fingerprints).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.initializer.windows import StreamingWindowBuilder
from repro.core.types import ChatMessage, Interaction, InteractionKind, Video
from repro.platform import codecs
from repro.platform.sharding import ShardedLightorService
from repro.streaming.initializer import EmitPolicy

# --------------------------------------------------------------- strategies

_TEXTS = ("gg", "PogChamp", "what a play", "lol", "KILL!!", "nice one", "???")
_USERS = ("ana", "bo", "cyx", "dee")


@st.composite
def chat_streams(draw, max_messages=80):
    """A timestamp-ordered chat stream with bursty gaps."""
    gaps = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=40.0, allow_nan=False),
            min_size=4,
            max_size=max_messages,
        )
    )
    timestamp = 0.0
    messages = []
    for index, gap in enumerate(gaps):
        timestamp += gap
        messages.append(
            ChatMessage(
                timestamp=timestamp,
                user=_USERS[index % len(_USERS)],
                text=_TEXTS[draw(st.integers(0, len(_TEXTS) - 1))],
            )
        )
    return messages


@st.composite
def partitions(draw, count):
    """Split ``count`` items into contiguous chunks of arbitrary sizes."""
    sizes = []
    remaining = count
    while remaining > 0:
        size = draw(st.integers(min_value=1, max_value=remaining))
        sizes.append(size)
        remaining -= size
    return sizes


@st.composite
def interaction_streams(draw, horizon, max_events=30):
    """Viewer interactions (play/stop/seek) over the chat horizon."""
    n_events = draw(st.integers(min_value=0, max_value=max_events))
    events = []
    for _ in range(n_events):
        timestamp = draw(st.floats(min_value=0.0, max_value=max(horizon, 1.0), allow_nan=False))
        kind = draw(st.sampled_from(list(InteractionKind)))
        target = None
        if kind in (InteractionKind.SEEK_BACKWARD, InteractionKind.SEEK_FORWARD):
            target = draw(st.floats(min_value=0.0, max_value=max(horizon, 1.0), allow_nan=False))
        events.append(
            Interaction(
                timestamp=timestamp,
                kind=kind,
                user=_USERS[draw(st.integers(0, len(_USERS) - 1))],
                target=target,
            )
        )
    return events


# ------------------------------------------------------------ window builder


class TestBuilderBatchFold:
    @given(stream=chat_streams(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_add_batch_equals_per_message_add(self, stream, data):
        """The batched fold seals the identical windows with identical members."""
        chunk_sizes = data.draw(partitions(len(stream)))
        for window_size, stride in ((25.0, 12.5), (25.0, 25.0), (30.0, 7.5)):
            single = StreamingWindowBuilder(window_size=window_size, stride=stride)
            batched = StreamingWindowBuilder(window_size=window_size, stride=stride)

            sealed_single = []
            for message in stream:
                sealed_single.extend(single.add(message))
            sealed_batched = []
            cursor = 0
            for size in chunk_sizes:
                sealed_batched.extend(batched.add_batch(stream[cursor : cursor + size]))
                cursor += size

            duration = stream[-1].timestamp + 1.0 if stream else 1.0
            sealed_single.extend(single.flush(duration))
            sealed_batched.extend(batched.add_batch([]))  # no-op
            sealed_batched.extend(batched.flush(duration))

            assert [(w.start, w.end, w.messages) for w in sealed_single] == [
                (w.start, w.end, w.messages) for w in sealed_batched
            ]
            assert single.messages_seen == batched.messages_seen
            assert single.windows_sealed == batched.windows_sealed

    def test_add_batch_rejects_unsorted_batches(self):
        builder = StreamingWindowBuilder(window_size=10.0, stride=10.0)
        from repro.utils.validation import ValidationError

        with pytest.raises(ValidationError):
            builder.add_batch([ChatMessage(5.0), ChatMessage(3.0)])
        # State untouched: the sorted batch still folds from scratch.
        assert builder.messages_seen == 0
        assert builder.add_batch([ChatMessage(3.0), ChatMessage(5.0)]) == []

    def test_add_batch_rejects_regression_against_history(self):
        builder = StreamingWindowBuilder(window_size=10.0, stride=10.0)
        builder.add(ChatMessage(50.0))
        from repro.utils.validation import ValidationError

        with pytest.raises(ValidationError):
            builder.add_batch([ChatMessage(10.0), ChatMessage(60.0)])


# --------------------------------------------------------------- full service
# (``fitted_initializer`` is the session-scoped fixture from tests/conftest.py)


def _service(initializer, backend):
    return ShardedLightorService.create(
        1,
        initializer,
        backend=backend,
        live_k=4,
        # A tight policy makes the per-event arm evaluate often, which is
        # exactly the cadence difference the equivalence must be robust to.
        live_policy=EmitPolicy(eval_every_messages=10, eval_every_seconds=15.0),
        min_interactions_for_refinement=4,
    )


def _store_fingerprint(service, video_id):
    store = service.store_for(video_id)
    return json.dumps(
        {
            "chat": [codecs.chat_message_to_dict(m) for m in store.get_chat(video_id)],
            "interactions": [
                codecs.interaction_to_dict(i) for i in store.get_interactions(video_id)
            ],
            "dots": [codecs.red_dot_to_dict(d) for d in store.get_red_dots(video_id)],
            "highlights": [
                codecs.highlight_record_to_dict(r)
                for r in store.highlight_history(video_id)
            ],
        },
        sort_keys=True,
    )


def _drive(service, video, chat, plays, chat_chunks, play_chunks, batched):
    """Feed the interleaved stream; chunked batch calls or per-event calls."""
    service.start_live(video)
    vid = video.video_id
    chat_cursor = play_cursor = 0
    chat_sizes = list(chat_chunks)
    play_sizes = list(play_chunks)
    # Interleave: one chat chunk, then one play chunk, until both drain.
    # The per-event arm receives the identical global event order.
    while chat_cursor < len(chat) or play_cursor < len(plays):
        if chat_cursor < len(chat):
            size = chat_sizes.pop(0)
            chunk = chat[chat_cursor : chat_cursor + size]
            chat_cursor += size
            if batched:
                service.ingest_chat_batch(vid, chunk)
            else:
                for message in chunk:
                    service.ingest_chat_batch(vid, [message])
        if play_cursor < len(plays):
            size = play_sizes.pop(0)
            chunk = plays[play_cursor : play_cursor + size]
            play_cursor += size
            if batched:
                service.ingest_plays_batch(vid, chunk)
            else:
                for event in chunk:
                    service.ingest_plays_batch(vid, [event])
    dots = service.end_live(vid, chat[-1].timestamp + 5.0 if chat else None)
    service.refine_video(vid)
    return dots


class TestServiceBatchEquivalence:
    def test_rejected_persisting_batch_leaves_no_store_rows(self, fitted_initializer):
        """persist=True must not commit chat the stream never folded in."""
        from repro.utils.validation import ValidationError

        service = _service(fitted_initializer, "memory")
        try:
            video = Video(video_id="eq-persist", duration=600.0)
            service.start_live(video)
            unsorted = [ChatMessage(50.0, "a", "later"), ChatMessage(10.0, "b", "earlier")]
            with pytest.raises(ValidationError):
                service.ingest_chat_batch("eq-persist", unsorted, persist=True)
            assert service.store_for("eq-persist").get_chat("eq-persist") == []
            # The sorted batch still works and persists exactly once.
            service.ingest_chat_batch(
                "eq-persist", sorted(unsorted, key=lambda m: m.timestamp), persist=True
            )
            assert len(service.store_for("eq-persist").get_chat("eq-persist")) == 2
        finally:
            service.close()

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    @given(stream=chat_streams(max_messages=60), data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_any_partition_yields_identical_store_state(
        self, backend, fitted_initializer, stream, data
    ):
        plays = data.draw(interaction_streams(stream[-1].timestamp if stream else 0.0))
        chat_chunks = data.draw(partitions(len(stream)))
        play_chunks = data.draw(partitions(len(plays))) if plays else []
        video = Video(video_id="eq-1", duration=(stream[-1].timestamp + 10.0) if stream else 60.0)

        batched_service = _service(fitted_initializer, backend)
        sequential_service = _service(fitted_initializer, backend)
        try:
            batched_dots = _drive(
                batched_service, video, stream, plays, chat_chunks, play_chunks, batched=True
            )
            sequential_dots = _drive(
                sequential_service, video, stream, plays, chat_chunks, play_chunks, batched=False
            )
            assert [codecs.red_dot_to_dict(d) for d in batched_dots] == [
                codecs.red_dot_to_dict(d) for d in sequential_dots
            ]
            assert _store_fingerprint(batched_service, "eq-1") == _store_fingerprint(
                sequential_service, "eq-1"
            )
        finally:
            batched_service.close()
            sequential_service.close()
