"""Online Highlight Initializer: Algorithm 1 over a live chat stream.

:class:`StreamingInitializer` wraps a *trained* batch model
(:class:`~repro.core.initializer.initializer.InitializerModel`) and runs its
prediction + adjustment stages incrementally:

* every arriving :class:`ChatMessage` updates the incremental window state
  (O(1) amortised — the message joins a constant number of open windows);
* at evaluation points (every ``eval_every_messages`` messages or
  ``eval_every_seconds`` of stream time, whichever comes first) the sealed
  windows are re-scored and the provisional top-k is diffed against the
  previously emitted set, producing :class:`DotEmitted` /
  :class:`DotRetracted` events;
* :meth:`finalize` closes the stream at the video duration and returns the
  final red dots, which are **exactly** the dots the batch
  ``HighlightInitializer.propose`` computes for the recorded log — same
  positions, same scores, same order.

The scoring pass mirrors the batch code path operation-for-operation
(min-max normalise over all windows, flip the length column, logistic
probabilities, greedy top-k under the δ spacing constraint, peak − c
adjustment) but runs over the window state's cached arrays — one vectorised
pass over the accepted windows — instead of re-processing O(#messages) chat.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.config import LightorConfig
from repro.core.initializer.initializer import HighlightInitializer, InitializerModel
from repro.core.initializer.predictor import FeatureSet, select_spaced_top_k
from repro.core.types import ChatMessage, RedDot
from repro.streaming.events import DotEmitted, DotRetracted, StreamEvent
from repro.streaming.state import IncrementalWindowState, ScorableWindows
from repro.utils.validation import ValidationError, require_positive

__all__ = ["EmitPolicy", "StreamingInitializer"]


@dataclass(frozen=True)
class EmitPolicy:
    """When the live engine re-evaluates and which dots it shows.

    Attributes
    ----------
    eval_every_messages:
        Re-score after this many new messages (count trigger).
    eval_every_seconds:
        Re-score when stream time advanced this far since the last
        evaluation (time trigger).  Either trigger suffices.
    min_score:
        Provisional dots need at least this predicted probability to be
        emitted; retraction still applies when a previously emitted dot
        falls below the bar.  The final :meth:`StreamingInitializer.finalize`
        set ignores this bar for batch parity.
    """

    eval_every_messages: int = 50
    eval_every_seconds: float = 30.0
    min_score: float = 0.0

    def __post_init__(self) -> None:
        require_positive(self.eval_every_messages, "eval_every_messages")
        require_positive(self.eval_every_seconds, "eval_every_seconds")
        if not 0.0 <= self.min_score <= 1.0:
            raise ValidationError(
                f"min_score must lie in [0, 1], got {self.min_score!r}"
            )


@dataclass
class StreamingInitializer:
    """Incremental chat → red dots engine for one live channel.

    Parameters
    ----------
    model:
        A trained :class:`InitializerModel` (predictor + adjuster).  Use
        :meth:`from_initializer` to borrow it from a fitted batch
        :class:`HighlightInitializer`.
    config:
        Workflow configuration; defaults to the predictor's own config so
        window geometry always matches the trained model.
    k:
        Size of the provisional top-k (defaults to ``config.top_k``).
    policy:
        Emit/retract policy (evaluation cadence and score bar).
    video_id:
        Stamped on every produced :class:`RedDot`.
    max_window_summaries:
        Optional memory bound forwarded to the window state; ``None`` keeps
        exact batch parity at the cost of O(video length) summaries.
    """

    model: InitializerModel
    config: LightorConfig | None = None
    feature_set: FeatureSet | None = None
    k: int | None = None
    policy: EmitPolicy = field(default_factory=EmitPolicy)
    video_id: str = ""
    max_window_summaries: int | None = None
    _state: IncrementalWindowState = field(init=False, repr=False)
    _live: dict[tuple[float, float], RedDot] = field(default_factory=dict, repr=False)
    _messages_since_eval: int = 0
    _sealed_since_eval: bool = False
    _last_eval_time: float = 0.0
    evaluations_run: int = 0
    final_dots: list[RedDot] | None = None
    final_events: list[StreamEvent] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if not self.model.predictor.is_fitted:
            raise ValidationError(
                "streaming initializer needs a fitted model; train the batch "
                "HighlightInitializer first"
            )
        if self.config is None:
            self.config = self.model.predictor.config
        if self.feature_set is None:
            self.feature_set = self.model.predictor.feature_set
        if self.k is None:
            self.k = self.config.top_k
        require_positive(self.k, "k")
        self._state = IncrementalWindowState(
            window_size=self.config.window_size,
            stride=self.config.window_stride,
            max_summaries=self.max_window_summaries,
        )

    @classmethod
    def from_initializer(
        cls, initializer: HighlightInitializer, **overrides
    ) -> "StreamingInitializer":
        """Build a streaming engine sharing a fitted batch Initializer's model."""
        if initializer.model is None:
            raise ValidationError("initializer is not fitted; call fit() first")
        overrides.setdefault("config", initializer.config)
        overrides.setdefault("feature_set", initializer.feature_set)
        return cls(model=initializer.model, **overrides)

    # ------------------------------------------------------------------ feed
    def ingest(self, message: ChatMessage) -> list[StreamEvent]:
        """Fold one chat message in; return any emit/retract events.

        Messages must arrive in timestamp order (live chat order).  The
        engine re-evaluates only at policy-defined checkpoints, so most
        calls return an empty list in O(1).
        """
        if self.final_dots is not None:
            raise ValidationError("stream already finalized; no further messages")
        sealed = self._state.add(message)
        self._messages_since_eval += 1
        if sealed:
            self._sealed_since_eval = True
        if not self._should_evaluate(message.timestamp):
            return []
        return self._reevaluate(message.timestamp)

    def ingest_batch(self, messages: Sequence[ChatMessage]) -> list[StreamEvent]:
        """Fold a timestamp-ordered batch in; return any emit/retract events.

        The window summaries after the call are bit-identical to feeding the
        messages one at a time through :meth:`ingest` (the fold is
        order-exact), so the **finalized** dots cannot depend on how the
        stream was chunked.  The *evaluation* checkpoints, however, coalesce
        to the batch boundary: the emit policy is checked once after the
        whole batch is folded, exactly as :meth:`ingest` checks it once per
        message.  Larger batches therefore mean fewer provisional re-scores —
        that is where batched ingest gets its throughput (see
        ``docs/performance.md``) — while :meth:`refresh` lets a caller force
        the provisional set current at any instant.
        """
        if not messages:
            return []
        if self.final_dots is not None:
            raise ValidationError("stream already finalized; no further messages")
        sealed = self._state.add_batch(messages)
        self._messages_since_eval += len(messages)
        if sealed:
            self._sealed_since_eval = True
        last_timestamp = messages[-1].timestamp
        if not self._should_evaluate(last_timestamp):
            return []
        return self._reevaluate(last_timestamp)

    def refresh(self) -> list[StreamEvent]:
        """Re-evaluate now if any window sealed since the last evaluation.

        Because the provisional top-k is a pure function of the sealed
        window summaries, a refreshed engine's dots depend only on the chat
        ingested so far — never on how it was chunked into calls.  Ingesting
        viewer interactions refreshes first for exactly that reason: plays
        are attributed against the dots for the chat seen so far, making
        batched and per-event ingest attribute identically (the
        batch-equivalence property suite holds the service to this).
        Returns the emit/retract events of the evaluation, if one ran.
        """
        if self.final_dots is not None or not self._sealed_since_eval:
            return []
        return self._reevaluate(self._state.last_timestamp)

    def finalize(self, duration: float | None = None) -> list[RedDot]:
        """Close the stream and return the final (batch-identical) red dots.

        ``duration`` should be the video duration; it defaults to the last
        message timestamp.  Emit/retract events reconciling the provisional
        set with the final set are recorded in :attr:`final_events`.
        """
        if self.final_dots is not None:
            return list(self.final_dots)
        self._state.finalize(duration)
        stream_time = duration if duration is not None else self._state.last_timestamp
        dots = self._score_and_select(self._state.scorable_summaries())
        self.final_events = self._diff_live(dots, stream_time, min_score=None)
        self.final_dots = dots
        return list(dots)

    # ------------------------------------------------------------- durability
    def snapshot(self) -> dict:
        """A JSON-safe dict of the whole engine state, round-trip exact.

        Includes the window state, the emitted provisional set (in emission
        order — retraction ordering at the next evaluation depends on it),
        every emit-policy counter and the policy itself, so a restored
        engine evaluates at exactly the checkpoints the original would have.
        The trained model is **not** serialized: it is shared, read-only
        serving state that :meth:`restore` receives from the orchestrator.

        ``final_events`` (the close-time reconciliation diff) is transient
        hand-off data and is not captured; a restored finalized engine
        reports its final dots with an empty reconciliation log.
        """
        from repro.platform import codecs

        return {
            "k": self.k,
            "video_id": self.video_id,
            "max_window_summaries": self.max_window_summaries,
            "policy": codecs.emit_policy_to_dict(self.policy),
            "state": self._state.snapshot(),
            "live": [codecs.red_dot_to_dict(dot) for dot in self._live.values()],
            "messages_since_eval": self._messages_since_eval,
            "sealed_since_eval": self._sealed_since_eval,
            "last_eval_time": self._last_eval_time,
            "evaluations_run": self.evaluations_run,
            "final_dots": (
                None
                if self.final_dots is None
                else [codecs.red_dot_to_dict(dot) for dot in self.final_dots]
            ),
        }

    @classmethod
    def restore(
        cls,
        payload: dict,
        *,
        model: InitializerModel,
        config: LightorConfig | None = None,
        feature_set: FeatureSet | None = None,
    ) -> "StreamingInitializer":
        """Rebuild an engine from :meth:`snapshot` around a fitted ``model``.

        ``model``/``config``/``feature_set`` are the shared serving state the
        snapshot deliberately omits; they must be the same trained objects
        the snapshotted engine used (deterministic retraining reproduces
        them — see ``docs/architecture.md``).
        """
        from repro.platform import codecs

        engine = cls(
            model=model,
            config=config,
            feature_set=feature_set,
            k=payload["k"],
            policy=codecs.emit_policy_from_dict(payload["policy"]),
            video_id=payload["video_id"],
            max_window_summaries=payload["max_window_summaries"],
        )
        engine._state = IncrementalWindowState.restore(payload["state"])
        live = [codecs.red_dot_from_dict(dot) for dot in payload["live"]]
        engine._live = {dot.window: dot for dot in live}
        engine._messages_since_eval = payload["messages_since_eval"]
        engine._sealed_since_eval = payload["sealed_since_eval"]
        engine._last_eval_time = payload["last_eval_time"]
        engine.evaluations_run = payload["evaluations_run"]
        if payload["final_dots"] is not None:
            engine.final_dots = [
                codecs.red_dot_from_dict(dot) for dot in payload["final_dots"]
            ]
        return engine

    # ------------------------------------------------------------------ views
    def current_dots(self) -> list[RedDot]:
        """The currently emitted provisional dots (final dots once closed)."""
        if self.final_dots is not None:
            return list(self.final_dots)
        return sorted(self._live.values(), key=lambda dot: dot.position)

    @property
    def messages_ingested(self) -> int:
        """Total messages folded into the engine."""
        return self._state.messages_seen

    @property
    def last_stream_time(self) -> float:
        """Timestamp of the newest chat message observed."""
        return self._state.last_timestamp

    @property
    def window_summary_count(self) -> int:
        """Sealed windows currently retained (memory gauge)."""
        return self._state.summary_count

    # -------------------------------------------------------------- internals
    def _should_evaluate(self, stream_time: float) -> bool:
        # Scores only depend on sealed windows, so until one seals a re-score
        # would reproduce the previous result — skip it regardless of cadence.
        if not self._sealed_since_eval:
            return False
        if self._messages_since_eval >= self.policy.eval_every_messages:
            return True
        return stream_time - self._last_eval_time >= self.policy.eval_every_seconds

    def _reevaluate(self, stream_time: float) -> list[StreamEvent]:
        self._messages_since_eval = 0
        self._sealed_since_eval = False
        self._last_eval_time = stream_time
        self.evaluations_run += 1
        dots = self._score_and_select(self._state.scorable_summaries())
        return self._diff_live(dots, stream_time, min_score=self.policy.min_score)

    def _score_and_select(self, windows: ScorableWindows) -> list[RedDot]:
        """The batch prediction + adjustment stages over the accepted windows.

        Normalisation (``WindowFeatureExtractor.normalise``), the logistic
        model, the top-k selection (``select_spaced_top_k``) and the peak
        adjustment (``PeakAdjuster.adjust``) are all the *same objects and
        functions* the batch path runs, applied to the same raw feature
        matrix — parity with ``HighlightInitializer.propose`` is structural.
        Dots are built only for the ``k`` picks.
        """
        if not len(windows):
            return []
        scaled = self.model.predictor.extractor.normalise(windows.raw)
        features = scaled[:, self.feature_set.column_indices]
        probabilities = self.model.predictor.model.predict_proba(features)
        picks = select_spaced_top_k(
            probabilities, windows.peak, windows.start, self.k, self.config.min_dot_spacing
        )
        dots = [
            RedDot(
                position=self.model.adjuster.adjust(float(windows.peak[pick])),
                score=float(probabilities[pick]),
                window=(float(windows.start[pick]), float(windows.end[pick])),
                video_id=self.video_id,
            )
            for pick in picks
        ]
        return sorted(dots, key=lambda dot: dot.position)

    def _diff_live(
        self, dots: list[RedDot], stream_time: float, min_score: float | None
    ) -> list[StreamEvent]:
        """Diff the new top-k against the emitted set → emit/retract events."""
        if min_score is not None:
            dots = [dot for dot in dots if dot.score >= min_score]
        new_live = {dot.window: dot for dot in dots}
        events: list[StreamEvent] = []
        for key, dot in self._live.items():
            if key not in new_live:
                events.append(DotRetracted(stream_time=stream_time, dot=dot))
        for key, dot in new_live.items():
            previous = self._live.get(key)
            if previous is None:
                events.append(DotEmitted(stream_time=stream_time, dot=dot))
            elif previous.position != dot.position:
                # Same window, new position: retract + re-emit keeps the
                # consumer protocol to two verbs.  Score-only wiggles (the
                # running re-normalisation moves every score a little at
                # each evaluation) are updated silently — re-rendering an
                # unmoved dot would be pure churn.
                events.append(DotRetracted(stream_time=stream_time, dot=previous))
                events.append(DotEmitted(stream_time=stream_time, dot=dot))
        self._live = new_live
        return events
