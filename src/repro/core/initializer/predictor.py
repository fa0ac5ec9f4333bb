"""Prediction stage of the Highlight Initializer.

A logistic-regression model scores each sliding window with the probability
that its messages are discussing a highlight, then the top-k windows are
selected subject to the minimum-spacing constraint δ ("it is not useful to
generate two red dots that are very close to each other").

The :class:`FeatureSet` enum supports the paper's feature ablation (Fig. 6a):
``MSG_NUM`` uses only the message-number feature (the naive signal),
``MSG_NUM_LEN`` adds message length, and ``ALL`` adds message similarity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import LightorConfig
from repro.core.initializer.features import WindowFeatureExtractor
from repro.core.initializer.windows import SlidingWindow
from repro.core.types import Highlight, VideoChatLog
from repro.ml.logistic import LogisticRegression
from repro.utils.validation import ValidationError

__all__ = ["FeatureSet", "WindowPredictor", "select_spaced_top_k"]


def select_spaced_top_k(
    scores: np.ndarray, peaks: np.ndarray, starts: np.ndarray, k: int, min_spacing: float
) -> list[int]:
    """Greedy top-k under the δ spacing constraint, shared batch/stream.

    ``scores``, ``peaks`` and ``starts`` describe one candidate window per
    position.  Candidates are considered in decreasing score order (ties
    broken by start, then by position); one is skipped when its peak lies
    within ``min_spacing`` of an already selected peak (the paper's ``Top``
    function "makes sure that H does not contain too close highlights"), and
    the scan stops after ``k`` picks.  Returns the selected positions sorted
    by start.

    Both :meth:`WindowPredictor.top_k_windows` and the streaming engine's
    scorer select through this one function, so the batch/stream parity
    contract cannot drift here.
    """
    selected: list[int] = []
    for index in np.lexsort((starts, -scores)):
        if len(selected) >= k:
            break
        peak = peaks[index]
        if any(abs(peak - peaks[chosen]) <= min_spacing for chosen in selected):
            continue
        selected.append(int(index))
    return sorted(selected, key=lambda index: starts[index])


class FeatureSet(enum.Enum):
    """Which general features the predictor uses (paper Fig. 6a ablation)."""

    MSG_NUM = ("message_number",)
    MSG_NUM_LEN = ("message_number", "message_length")
    ALL = ("message_number", "message_length", "message_similarity")

    @property
    def column_indices(self) -> list[int]:
        """Columns of the full feature matrix used by this feature set."""
        all_names = ("message_number", "message_length", "message_similarity")
        return [all_names.index(name) for name in self.value]


@dataclass
class WindowPredictor:
    """Scores chat windows and returns the top-k highlight windows.

    Parameters
    ----------
    config:
        Workflow configuration (window size, spacing δ, default k).
    feature_set:
        Which subset of the three general features to use.
    reaction_delay:
        Label windows as positive when they overlap
        ``[start, end + reaction_delay]`` of a ground-truth highlight (the
        chat discussion period); only used during training.
    """

    config: LightorConfig = field(default_factory=LightorConfig)
    feature_set: FeatureSet = FeatureSet.ALL
    reaction_delay: float = 30.0
    model: LogisticRegression = field(default_factory=LogisticRegression)
    extractor: WindowFeatureExtractor = field(default_factory=WindowFeatureExtractor)
    is_fitted: bool = False

    # ---------------------------------------------------------------- train
    def fit(self, training_logs: list[tuple[VideoChatLog, list[Highlight]]]) -> "WindowPredictor":
        """Train the window scorer on labelled videos.

        Parameters
        ----------
        training_logs:
            Pairs of (chat log, ground-truth highlights).  The paper shows a
            single labelled video already yields a good model (Fig. 6b).
        """
        if not training_logs:
            raise ValidationError("fit requires at least one labelled video")
        feature_blocks: list[np.ndarray] = []
        label_blocks: list[np.ndarray] = []
        for chat_log, highlights in training_logs:
            windows = self._windows_for(chat_log)
            if not windows:
                continue
            features = self.extractor.feature_matrix(windows)
            labels = self.extractor.label_windows(
                windows, highlights, reaction_delay=self.reaction_delay
            )
            feature_blocks.append(features)
            label_blocks.append(labels)
        if not feature_blocks:
            raise ValidationError("no usable windows found in the training videos")
        features = np.vstack(feature_blocks)[:, self.feature_set.column_indices]
        labels = np.concatenate(label_blocks)
        self.model.fit(features, labels)
        self.is_fitted = True
        return self

    # ---------------------------------------------------------------- score
    def score_windows(self, chat_log: VideoChatLog) -> list[SlidingWindow]:
        """Return the video's windows with predicted probabilities attached."""
        self._check_fitted()
        windows = self._windows_for(chat_log)
        if not windows:
            return []
        features = self.extractor.feature_matrix(windows)[:, self.feature_set.column_indices]
        probabilities = self.model.predict_proba(features)
        for window, probability in zip(windows, probabilities):
            window.score = float(probability)
        return windows

    def top_k_windows(
        self, chat_log: VideoChatLog, k: int | None = None
    ) -> list[SlidingWindow]:
        """Return the top-k scored windows respecting the spacing constraint δ.

        Windows are considered in decreasing score order; a window is skipped
        when its peak lies within ``min_dot_spacing`` of an already selected
        window's peak (the paper's ``Top`` function "makes sure that H does
        not contain too close highlights").
        """
        if k is None:
            k = self.config.top_k
        if k <= 0:
            raise ValidationError(f"k must be positive, got {k!r}")
        windows = self.score_windows(chat_log)
        selected = select_spaced_top_k(
            np.array([window.score for window in windows], dtype=float),
            np.array([window.peak_timestamp() for window in windows], dtype=float),
            np.array([window.start for window in windows], dtype=float),
            k,
            self.config.min_dot_spacing,
        )
        return [windows[index] for index in selected]

    # -------------------------------------------------------------- helpers
    def _windows_for(self, chat_log: VideoChatLog) -> list[SlidingWindow]:
        from repro.core.initializer.windows import build_sliding_windows

        return build_sliding_windows(
            chat_log,
            window_size=self.config.window_size,
            stride=self.config.window_stride,
            resolve_overlaps=True,
        )

    def _check_fitted(self) -> None:
        if not self.is_fitted:
            raise ValidationError("predictor is not fitted; call fit() first")
