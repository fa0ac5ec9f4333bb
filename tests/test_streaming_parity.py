"""Batch/stream parity: the streaming engine's core contract.

Feeding a recorded ``VideoChatLog`` through the streaming engine
message-by-message and finalizing at the video duration must reproduce the
batch ``HighlightInitializer.propose`` / ``LightorPipeline.propose`` red
dots *exactly* — same positions, same scores, same top-k order.  The suite
parametrizes over dataset seeds, window geometries and feature sets, and
also pins the window/feature layers the contract rests on.
"""

from __future__ import annotations

import collections
import json
import re
import statistics
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import LightorConfig
from repro.core.initializer.features import RunningWindowFeatures, WindowFeatureExtractor
from repro.core.initializer.initializer import HighlightInitializer
from repro.core.initializer.predictor import FeatureSet
from repro.core.initializer.windows import (
    SlidingWindow,
    StreamingWindowBuilder,
    build_sliding_windows,
    resolve_overlapping_windows,
)
from repro.core.pipeline import LightorPipeline
from repro.core.types import ChatMessage, RedDot, Video, VideoChatLog
from repro.datasets.generate import DatasetSpec, build_dataset
from repro.datasets.loaders import training_pairs
from repro.eval.parity import compare_red_dots
from repro.loadgen.workload import LoadWorkload, WorkloadSpec
from repro.ml.kmeans import average_similarity_to_center
from repro.ml.text import BagOfWordsVectorizer, tokenize
from repro.streaming import EmitPolicy, StreamingInitializer
from repro.streaming import state as state_module
from repro.streaming.state import IncrementalWindowState
from repro.utils.validation import ValidationError

# Snapshot JSON of a fixed stream, recorded with the list-based scorer: the
# cached arrays are derived state and must leave the format byte-identical.
_SNAPSHOT_FIXTURE = Path(__file__).parent / "fixtures" / "streaming_initializer_snapshot.json"

# Five seeded end-to-end scenarios (the ISSUE's acceptance bar) plus
# geometry/feature variants.  Each tuple: dataset seed, window size, stride,
# feature set, k.
SCENARIOS = [
    pytest.param(2020, 25.0, 12.5, FeatureSet.ALL, 5, id="paper-defaults-2020"),
    pytest.param(7, 25.0, 12.5, FeatureSet.ALL, 10, id="paper-defaults-7-k10"),
    pytest.param(99, 20.0, 10.0, FeatureSet.ALL, 5, id="window20-stride10-99"),
    pytest.param(123, 40.0, 8.0, FeatureSet.MSG_NUM_LEN, 5, id="window40-stride8-123"),
    pytest.param(31337, 25.0, 25.0, FeatureSet.MSG_NUM, 5, id="non-overlapping-31337"),
    pytest.param(4242, 30.0, 15.0, FeatureSet.ALL, 3, id="window30-k3-4242"),
]


def _replay(initializer: HighlightInitializer, chat_log, k, policy=None):
    """Stream the recorded log message-by-message and finalize."""
    streaming = StreamingInitializer.from_initializer(
        initializer,
        k=k,
        video_id=chat_log.video.video_id,
        policy=policy or EmitPolicy(),
    )
    for message in chat_log.messages:
        streaming.ingest(message)
    return streaming, streaming.finalize(chat_log.video.duration)


class TestRedDotParity:
    @pytest.mark.parametrize("seed, window, stride, feature_set, k", SCENARIOS)
    def test_streaming_replay_matches_batch_propose(
        self, seed, window, stride, feature_set, k
    ):
        config = LightorConfig().with_overrides(window_size=window, window_stride=stride)
        dataset = build_dataset(DatasetSpec.dota2(size=3, seed=seed))
        initializer = HighlightInitializer(config=config, feature_set=feature_set)
        initializer.fit(training_pairs(dataset[:1]))

        for labelled in dataset[1:]:
            batch = initializer.propose(labelled.chat_log, k=k)
            _, streamed = _replay(initializer, labelled.chat_log, k)
            report = compare_red_dots(batch, streamed)
            assert report.ok, report.describe()
            # Dataclass equality doubles as the strictest possible check.
            assert batch == streamed

    def test_parity_matches_pipeline_propose(self, dota2_dataset, config):
        pipeline = LightorPipeline(config)
        pipeline.fit(training_pairs(dota2_dataset[:1]))
        labelled = dota2_dataset[2]
        batch = pipeline.propose(labelled.chat_log, k=5)
        _, streamed = _replay(pipeline.initializer, labelled.chat_log, 5)
        assert batch == streamed

    def test_parity_independent_of_emit_cadence(self, fitted_initializer, dota2_dataset):
        """The provisional evaluation cadence must not leak into the final set."""
        labelled = dota2_dataset[3]
        batch = fitted_initializer.propose(labelled.chat_log, k=5)
        for policy in (
            EmitPolicy(eval_every_messages=5, eval_every_seconds=5.0),
            EmitPolicy(eval_every_messages=10_000, eval_every_seconds=100_000.0),
        ):
            _, streamed = _replay(fitted_initializer, labelled.chat_log, 5, policy)
            assert batch == streamed

    def test_lol_dataset_parity(self, lol_dataset, config):
        initializer = HighlightInitializer(config=config)
        initializer.fit(training_pairs(lol_dataset[:1]))
        for labelled in lol_dataset[1:3]:
            batch = initializer.propose(labelled.chat_log, k=5)
            _, streamed = _replay(initializer, labelled.chat_log, 5)
            assert batch == streamed


class TestWindowParity:
    """build_sliding_windows is a replay of StreamingWindowBuilder."""

    @pytest.mark.parametrize("stride", [5.0, 12.5, 25.0])
    def test_manual_replay_equals_batch(self, dota2_dataset, stride):
        chat_log = dota2_dataset[1].chat_log
        batch = build_sliding_windows(chat_log, window_size=25.0, stride=stride)

        builder = StreamingWindowBuilder(window_size=25.0, stride=stride)
        streamed: list[SlidingWindow] = []
        for message in chat_log.messages:
            streamed.extend(builder.add(message))
        streamed.extend(builder.flush(chat_log.video.duration))
        if stride < 25.0:
            streamed = resolve_overlapping_windows(streamed)

        assert [(w.start, w.end) for w in batch] == [(w.start, w.end) for w in streamed]
        assert [w.message_count for w in batch] == [w.message_count for w in streamed]
        assert [w.peak_timestamp() for w in batch] == [
            w.peak_timestamp() for w in streamed
        ]

    def test_out_of_order_messages_rejected(self):
        builder = StreamingWindowBuilder(window_size=25.0, stride=12.5)
        builder.add(ChatMessage(timestamp=100.0, text="gg"))
        with pytest.raises(ValidationError):
            builder.add(ChatMessage(timestamp=50.0, text="gg"))

    def test_sealing_frees_active_windows(self):
        builder = StreamingWindowBuilder(window_size=25.0, stride=12.5)
        for second in range(0, 300, 5):
            builder.add(ChatMessage(timestamp=float(second), text="gg"))
        # Only the live edge stays open: ceil(window/stride) = 2 windows,
        # plus at most one freshly opened by the last message.
        assert builder.active_window_count <= 3
        assert builder.windows_sealed > 15

    def test_truncated_tail_window_matches_batch(self):
        """A video ending mid-window truncates the last window identically."""
        video = Video(video_id="tail", duration=40.0)
        messages = [ChatMessage(timestamp=float(t), text="gg") for t in (1, 26, 30, 39)]
        chat_log = VideoChatLog(video=video, messages=messages)
        batch = build_sliding_windows(chat_log, window_size=25.0)

        builder = StreamingWindowBuilder(window_size=25.0, stride=25.0)
        streamed = []
        for message in chat_log.messages:
            streamed.extend(builder.add(message))
        streamed.extend(builder.flush(video.duration))
        assert [(w.start, w.end) for w in batch] == [(w.start, w.end) for w in streamed]
        assert batch[-1].end == 40.0


class TestFeatureParity:
    """The seal's cached-token features equal WindowFeatureExtractor.raw_features."""

    def test_incremental_equals_batch_features(self, dota2_dataset):
        chat_log = dota2_dataset[1].chat_log
        windows = build_sliding_windows(chat_log, window_size=25.0, stride=12.5)
        extractor = WindowFeatureExtractor()
        state = IncrementalWindowState(window_size=25.0, stride=12.5)
        for window in windows[:40]:
            assert state._summarise(window).raw == extractor.raw_features(window)


# ---------------------------------------------------------------------------
# Vectorised seal-time featurizer vs. the per-row np.dot reference
# ---------------------------------------------------------------------------


def _reference_similarity(vectors, exclude_self):
    """The per-row cosine loop: one np.dot per message, np.linalg.norm norms."""
    data = np.asarray(vectors, dtype=float)
    n_messages = data.shape[0]
    if n_messages == 1:
        return 0.0 if exclude_self else 1.0
    total = data.sum(axis=0)
    similarities = []
    for row in data:
        center = (total - row) / (n_messages - 1) if exclude_self else data.mean(axis=0)
        norm_row = float(np.linalg.norm(row))
        norm_center = float(np.linalg.norm(center))
        if norm_row == 0.0 or norm_center == 0.0:
            similarities.append(0.0)
        else:
            similarities.append(float(np.dot(row, center) / (norm_row * norm_center)))
    return float(np.mean(similarities))


def _reference_features(texts):
    """Raw feature triple via BagOfWordsVectorizer and the per-row loop."""
    if not texts:
        return (0.0, 0.0, 0.0)
    length = float(np.mean([len(tokenize(text)) for text in texts]))
    non_blank = [text for text in texts if text.strip()]
    similarity = 0.0
    if len(non_blank) >= 2:
        vectors = BagOfWordsVectorizer(binary=True).fit_transform(non_blank)
        if vectors.shape[1]:
            similarity = _reference_similarity(vectors, exclude_self=True)
    return (float(len(texts)), length, similarity)


def _window_features(texts):
    return RunningWindowFeatures.from_tokens([tokenize(text) for text in texts]).raw()


def _hex(values):
    return [float(value).hex() for value in values]


_WORDS = tuple(f"w{index}" for index in range(400)) + ("gg", "PogChamp", "KILL", "!!", ":)")
_BLANKS = ("", " ", "   ", "\t\n")


@st.composite
def _window_texts(draw):
    """A window's messages; the word pool size sets how large the vocabulary gets."""
    word = st.sampled_from(_WORDS[: draw(st.integers(1, len(_WORDS)))])
    message = st.one_of(
        st.sampled_from(_BLANKS), st.lists(word, min_size=1, max_size=12).map(" ".join)
    )
    return draw(st.lists(message, min_size=1, max_size=60))


@st.composite
def _message_matrices(draw):
    """Binary or count-valued (n_messages, n_terms) matrices, zero rows and
    empty vocabularies included."""
    n_messages = draw(st.integers(1, 40))
    n_terms = draw(st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(1, draw(st.sampled_from([1, 3, 9])) + 1, (n_messages, n_terms))
    present = rng.random((n_messages, n_terms)) < draw(st.floats(0.0, 1.0))
    return np.where(present, values, 0).astype(float)


_REFERENCE_TOKEN = re.compile(r"[A-Za-z0-9_]+|[^\sA-Za-z0-9_]+")


def _reference_peak(window, bin_size=1.0, refine_radius=3.0):
    """The former NumPy formulation of SlidingWindow.peak_timestamp."""
    if not window.messages:
        return window.start
    n_bins = max(1, int(round(window.duration / bin_size)))
    timestamps = np.fromiter(
        (message.timestamp for message in window.messages),
        dtype=float,
        count=len(window.messages),
    )
    indices = np.minimum(n_bins - 1, ((timestamps - window.start) // bin_size).astype(np.int64))
    if int(indices.min()) < 0:
        counts = [0] * n_bins
        for index in indices:
            counts[int(index)] += 1
        best_bin = max(range(n_bins), key=lambda i: counts[i])
    else:
        best_bin = int(np.argmax(np.bincount(indices, minlength=n_bins)))
    coarse_peak = window.start + (best_bin + 0.5) * bin_size
    nearby = timestamps[np.abs(timestamps - coarse_peak) <= refine_radius]
    if nearby.size == 0:
        return coarse_peak
    return float(sum(nearby) / len(nearby))


def _outcome(peak, *args):
    """The peak as float.hex, or the exception type it raised."""
    try:
        return float(peak(*args)).hex()
    except IndexError as error:
        return type(error).__name__


@st.composite
def _peak_cases(draw):
    """Hand-built windows: off-grid and tied timestamps, some before the start."""
    start = draw(st.sampled_from([0.0, 5.0, 12.5, 100.0, 1234.5678]) | st.floats(0.0, 5e4))
    duration = draw(st.sampled_from([0.5, 1.0, 12.5, 25.0, 40.0]) | st.floats(0.01, 200.0))
    bin_size = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0, 7.0, 500.0]) | st.floats(0.01, 50.0))
    refine_radius = draw(st.sampled_from([0.0, 0.5, 3.0, 10.0]) | st.floats(0.0, 100.0))
    end = start + duration
    timestamp = st.floats(max(0.0, start - duration), end, exclude_max=True)
    if 0.5 * bin_size < duration:
        # Bin centres make counts and nearby sets tie.
        bins = st.integers(0, int(duration / bin_size))
        centre = bins.map(lambda k: start + (k + 0.5) * bin_size).filter(lambda t: t < end)
        timestamp = timestamp | centre
    timestamps = draw(st.lists(timestamp, max_size=40))
    window = SlidingWindow(start, end, [ChatMessage(timestamp=t) for t in timestamps])
    return window, bin_size, refine_radius


class TestFeaturizerExactness:
    """The np.vecdot featurizer is bitwise the per-row np.dot formulation."""

    @given(matrix=_message_matrices(), exclude_self=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_similarity_matches_per_row_dot(self, matrix, exclude_self):
        assert _hex([average_similarity_to_center(matrix, exclude_self=exclude_self)]) == _hex(
            [_reference_similarity(matrix, exclude_self)]
        )

    @given(texts=_window_texts())
    @settings(max_examples=200, deadline=None)
    def test_window_features_match_reference(self, texts):
        raw = _window_features(texts)
        assert _hex([raw.message_number, raw.message_length, raw.message_similarity]) == _hex(
            _reference_features(texts)
        )

    def test_tokenless_messages_give_empty_vocabulary(self):
        raw = RunningWindowFeatures.from_tokens([[], [], []]).raw()
        assert _hex([raw.message_number, raw.message_length, raw.message_similarity]) == _hex(
            [3.0, 0.0, 0.0]
        )

    # Vocabulary sizes either side of the BLAS 16/32-element unroll blocks.
    @pytest.mark.parametrize("n_terms", [1, 2, 15, 16, 17, 31, 32, 33, 64, 65, 129, 255, 300])
    def test_block_boundary_vocabularies(self, n_terms):
        rng = np.random.default_rng(n_terms)
        texts = [
            " ".join(_WORDS[column] for column in rng.permutation(n_terms)[: rng.integers(1, 9)])
            for _ in range(30)
        ]
        texts[0] = " ".join(_WORDS[:n_terms])
        raw = _window_features(texts)
        assert _hex([raw.message_number, raw.message_length, raw.message_similarity]) == _hex(
            _reference_features(texts)
        )

    # ---------------------------------------------------------------- peaks
    @given(case=_peak_cases())
    @settings(max_examples=400, deadline=None)
    def test_peak_matches_numpy_formulation(self, case):
        window, bin_size, refine_radius = case
        assert _outcome(window.peak_timestamp, bin_size, refine_radius) == _outcome(
            _reference_peak, window, bin_size, refine_radius
        )

    @pytest.mark.parametrize(
        "start, end, timestamps, bin_size, refine_radius",
        [
            # Messages before the start: negative bins count from the end.
            (10.0, 35.0, [4.0, 9.5, 9.5, 12.0], 1.0, 3.0),
            (10.0, 35.0, [0.0, 10.0], 1.0, 3.0),
            # Single-bin windows.
            (0.0, 1.0, [0.2, 0.9], 1.0, 3.0),
            (5.0, 30.0, [5.0, 29.9, 17.25], 40.0, 0.5),
            # Tied bins go to the earliest; a zero radius keeps exact hits only.
            (0.0, 25.0, [3.5, 3.5, 20.5, 20.5], 1.0, 3.0),
            (0.0, 25.0, [3.5, 20.5], 1.0, 0.0),
            (0.0, 25.0, [3.25, 20.75], 0.5, 0.25),
            # Integer timestamps.
            (0.0, 25.0, [3, 4, 4, 24], 2.0, 1.5),
        ],
    )
    def test_peak_edge_windows(self, start, end, timestamps, bin_size, refine_radius):
        window = SlidingWindow(
            start=start, end=end, messages=[ChatMessage(timestamp=t) for t in timestamps]
        )
        assert _outcome(window.peak_timestamp, bin_size, refine_radius) == _outcome(
            _reference_peak, window, bin_size, refine_radius
        )

    # ------------------------------------------------------------- tokenize
    @given(
        text=st.one_of(
            st.text(),
            st.text(alphabet=st.characters(max_codepoint=127)),
            st.text(alphabet=st.sampled_from("İẞ\u212akKsſ \t\x1c!:_9aAß")),
        )
    )
    @settings(max_examples=500, deadline=None)
    def test_tokenize_lowers_each_token(self, text):
        tokens = tokenize(text)
        assert tokens == [token.lower() for token in _REFERENCE_TOKEN.findall(text)]
        # The seal path reads "blank" off the tokens instead of the text.
        assert bool(tokens) == bool(text.strip())

    @pytest.mark.parametrize("text", ["İstanbul GG", "STRAẞE!!", "\u212aILL", "KILL!! PogChamp"])
    def test_tokenize_special_casings(self, text):
        assert tokenize(text) == [token.lower() for token in _REFERENCE_TOKEN.findall(text)]

    @pytest.mark.parametrize("stride", [25.0 / 3.0, 12.5, 25.0])
    def test_each_message_tokenized_once(self, monkeypatch, stride):
        calls: collections.Counter = collections.Counter()

        def counting_tokenize(text):
            calls[text] += 1
            return tokenize(text)

        monkeypatch.setattr(state_module, "tokenize", counting_tokenize)
        messages = [
            ChatMessage(timestamp=index * 0.7, text=f"m{index} gg {_WORDS[index % 40]}")
            for index in range(600)
        ]
        state = IncrementalWindowState(window_size=25.0, stride=stride)
        for start in range(0, 333, 37):
            state.add_batch(messages[start : start + 37])
        for message in messages[333:]:
            state.add(message)
        state.finalize(messages[-1].timestamp + 1.0)
        assert calls == collections.Counter(message.text for message in messages)


# ---------------------------------------------------------------------------
# Incremental provisional re-score vs. the list-based reference scorer
# ---------------------------------------------------------------------------

_TEXTS = ("gg", "PogChamp", "what a play", "lol", "KILL!! KILL!!", "", "nice one gg")


def _reference_top_k(records, k, min_spacing):
    """The record-based spaced top-k: ``(item, score, peak, start)`` tuples."""
    ranked = sorted(records, key=lambda record: (-(record[1] or 0.0), record[3]))
    selected = []
    for record in ranked:
        if len(selected) >= k:
            break
        if any(abs(record[2] - chosen[2]) <= min_spacing for chosen in selected):
            continue
        selected.append(record)
    return sorted(selected, key=lambda record: record[3])


def _reference_dots(engine, summaries):
    """The list-based provisional scorer: stack every accepted summary, score all."""
    if not summaries:
        return []
    predictor = engine.model.predictor
    raw = np.vstack([summary.raw.as_array() for summary in summaries])
    scaled = predictor.extractor.normalise(raw)
    probabilities = predictor.model.predict_proba(scaled[:, engine.feature_set.column_indices])
    records = [
        (summary, float(probability), summary.peak, summary.start)
        for summary, probability in zip(summaries, probabilities)
    ]
    selected = _reference_top_k(records, engine.k, engine.config.min_dot_spacing)
    dots = [
        RedDot(
            position=engine.model.adjuster.adjust(summary.peak),
            score=score,
            window=(summary.start, summary.end),
            video_id=engine.video_id,
        )
        for summary, score, _, _ in selected
    ]
    return sorted(dots, key=lambda dot: dot.position)


def _check_every_scoring(engine) -> list[int]:
    """Check each evaluation's (and finalize's) scoring against the reference.

    The accepted set must equal a from-scratch resolution of every retained
    summary, and the dots must equal the reference scorer's over that set.
    Returns a list that grows by one per checked scoring.
    """
    checked: list[int] = []
    score = engine._score_and_select

    def score_and_check(windows):
        expected = resolve_overlapping_windows(list(engine._state._summaries))
        assert list(zip(windows.start.tolist(), windows.end.tolist())) == [
            (summary.start, summary.end) for summary in expected
        ]
        assert windows.peak.tolist() == [summary.peak for summary in expected]
        assert windows.raw.tolist() == [summary.raw.as_array().tolist() for summary in expected]
        dots = score(windows)
        assert dots == _reference_dots(engine, expected)
        checked.append(len(expected))
        return dots

    engine._score_and_select = score_and_check
    return checked


@st.composite
def _live_channels(draw):
    """A chat stream, its batch split and the engine settings to replay it with.

    Timestamps sit on a half-second grid with a few dense bursts, so window
    message counts tie often and dense windows sit next to sparse ones.
    """
    horizon = draw(st.integers(min_value=20, max_value=900))
    points = draw(st.lists(st.integers(0, 2 * horizon), max_size=250))
    for centre in draw(st.lists(st.integers(0, 2 * horizon), max_size=4)):
        spread = draw(st.integers(1, 30))
        points += [centre + offset for offset in range(0, 2 * spread, 2)] * draw(
            st.integers(1, 3)
        )
    timestamps = sorted(point / 2.0 for point in points)
    messages = [
        ChatMessage(
            timestamp=timestamp,
            user=f"user_{index % 4}",
            text=_TEXTS[draw(st.integers(0, len(_TEXTS) - 1))],
        )
        for index, timestamp in enumerate(timestamps)
    ]
    sizes = []
    remaining = len(messages)
    while remaining > 0:
        sizes.append(draw(st.integers(min_value=1, max_value=min(512, remaining))))
        remaining -= sizes[-1]
    last = timestamps[-1] if timestamps else 0.0
    return {
        "messages": messages,
        "sizes": sizes,
        # l/2, l/3, l and beyond l for a 25 s window.
        "stride": draw(st.sampled_from([12.5, 25.0 / 3.0, 25.0, 40.0])),
        "min_dot_spacing": draw(st.sampled_from([0.0, 20.0, 120.0])),
        "k": draw(st.integers(1, 8)),
        "cap": draw(st.one_of(st.none(), st.integers(1, 40))),
        "policy": EmitPolicy(
            eval_every_messages=draw(st.integers(1, 60)),
            eval_every_seconds=float(draw(st.integers(1, 60))),
        ),
        # A duration past the last message truncates the flushed tail windows.
        "duration": last + draw(st.sampled_from([0.0, 0.5, 7.25, 19.0, 40.0])),
    }


def _chunks(messages, sizes):
    start = 0
    for size in sizes:
        yield messages[start : start + size]
        start += size


class TestIncrementalRescore:
    """The array-cached re-score is exact at every evaluation."""

    @given(channel=_live_channels())
    @settings(max_examples=80, deadline=None)
    def test_every_evaluation_matches_reference_scorer(self, channel, fitted_initializer):
        config = fitted_initializer.config.with_overrides(
            window_stride=channel["stride"], min_dot_spacing=channel["min_dot_spacing"]
        )
        engine = StreamingInitializer.from_initializer(
            fitted_initializer,
            config=config,
            k=channel["k"],
            policy=channel["policy"],
            max_window_summaries=channel["cap"],
            video_id="live",
        )
        checked = _check_every_scoring(engine)
        for chunk in _chunks(channel["messages"], channel["sizes"]):
            engine.ingest_batch(chunk)
        assert len(checked) == engine.evaluations_run
        if channel["duration"] > 0:
            engine.finalize(channel["duration"])
            assert len(checked) == engine.evaluations_run + 1
            state = engine._state
            assert state.finalize(channel["duration"]) == resolve_overlapping_windows(
                list(state._summaries)
            )

    def test_head_drops_and_ties_are_exercised(self, fitted_initializer):
        """A deterministic capped, tie-heavy channel: every drop re-resolves exactly."""
        messages = [
            ChatMessage(timestamp=float(second), text="gg")
            for second in range(0, 600, 3)
        ] + [ChatMessage(timestamp=600.0 + second / 4.0, text="KILL") for second in range(80)]
        engine = StreamingInitializer.from_initializer(
            fitted_initializer,
            policy=EmitPolicy(eval_every_messages=1, eval_every_seconds=1.0),
            max_window_summaries=12,
        )
        checked = _check_every_scoring(engine)
        for message in messages:
            engine.ingest(message)
        engine.finalize(650.0)
        assert engine._state.dropped_summaries > 0
        assert len(checked) == engine.evaluations_run + 1 > 40


def _fixed_channel():
    """A deterministic 400 s chat stream with two bursts."""
    rng = np.random.default_rng(7)
    timestamps = np.sort(
        np.concatenate(
            [
                rng.uniform(0.0, 400.0, 160),
                rng.normal(120.0, 4.0, 40).clip(0.0, 399.0),
                rng.normal(300.0, 6.0, 50).clip(0.0, 399.0),
            ]
        )
    )
    return [
        ChatMessage(
            timestamp=float(timestamp),
            user=f"user_{index % 6}",
            text=_TEXTS[int(rng.integers(len(_TEXTS)))],
        )
        for index, timestamp in enumerate(timestamps)
    ]


def _strict_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, allow_nan=False)


class TestSnapshotFormat:
    """The cached arrays are derived state: snapshots and restores are unchanged."""

    DURATION = 420.0
    CHUNK = 16

    def _engine(self, fitted_initializer):
        return StreamingInitializer.from_initializer(
            fitted_initializer,
            k=5,
            policy=EmitPolicy(eval_every_messages=20, eval_every_seconds=15.0),
            video_id="fixed",
        )

    def test_snapshot_json_matches_recorded_format(self, fitted_initializer):
        """Mid-stream and closed snapshots byte-equal the recorded fixture."""
        messages = _fixed_channel()
        engine = self._engine(fitted_initializer)
        engine.ingest_batch(messages[:130])
        mid = _strict_json(engine.snapshot())
        engine.ingest_batch(messages[130:])
        engine.finalize(self.DURATION)
        closed = _strict_json(engine.snapshot())
        recorded = json.loads(_SNAPSHOT_FIXTURE.read_text())
        assert mid == recorded["mid_stream"]
        assert closed == recorded["finalized"]

    def test_restore_at_every_evaluation_continues_identically(self, fitted_initializer):
        messages = _fixed_channel()
        chunks = [messages[i : i + self.CHUNK] for i in range(0, len(messages), self.CHUNK)]
        engine = self._engine(fitted_initializer)
        events, snapshots = [], {}
        for index, chunk in enumerate(chunks):
            before = engine.evaluations_run
            events.append(engine.ingest_batch(chunk))
            if engine.evaluations_run > before:
                snapshots[index] = _strict_json(engine.snapshot())
        final = engine.finalize(self.DURATION)
        assert len(snapshots) > 10

        for index, snapshot in snapshots.items():
            restored = StreamingInitializer.restore(
                json.loads(snapshot), model=fitted_initializer.model
            )
            assert _strict_json(restored.snapshot()) == snapshot
            resumed = [restored.ingest_batch(chunk) for chunk in chunks[index + 1 :]]
            assert resumed == events[index + 1 :]
            assert restored.finalize(self.DURATION) == final
            assert restored.final_events == engine.final_events


class TestBoundedRescoreWork:
    """Per-evaluation resolution work tracks new windows, not stream age."""

    def test_candidates_per_evaluation_do_not_grow_with_stream_age(
        self, fitted_initializer, monkeypatch
    ):
        import repro.streaming.state as state_module

        passed: list[int] = []
        resolve = state_module.resolve_overlapping_windows

        def counting_resolve(candidates, *args):
            passed.append(len(candidates))
            return resolve(candidates, *args)

        monkeypatch.setattr(state_module, "resolve_overlapping_windows", counting_resolve)
        spec = WorkloadSpec(channels=1, viewers=1, duration=6 * 3600.0, stretch=True)
        chat = LoadWorkload.from_spec(spec).plans[0].chat
        engine = StreamingInitializer.from_initializer(fitted_initializer)
        by_hour: dict[int, list[int]] = {}
        for message in chat:
            before, seen = engine.evaluations_run, len(passed)
            engine.ingest(message)
            if engine.evaluations_run > before:
                hour = int(message.timestamp // 3600)
                by_hour.setdefault(hour, []).append(sum(passed[seen:]))
        assert engine.window_summary_count > 1000
        first, sixth = statistics.median(by_hour[0]), statistics.median(by_hour[5])
        assert sixth <= 2 * first, (first, sixth)
