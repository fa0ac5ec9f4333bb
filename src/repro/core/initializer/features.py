"""General chat features of the Highlight Initializer (Section IV-C).

For every sliding window the Initializer computes three *general* features —
features that do not depend on the game being streamed:

* **message number** — how many messages fall in the window; reaction bursts
  follow highlights.
* **message length** — the average number of words per message; reaction
  messages are short ("Kill!", emotes), off-topic chatter is longer.
* **message similarity** — the average cosine similarity of each message's
  binary bag-of-words vector to the window's one-cluster k-means centre;
  reactions repeat the same few tokens, random chatter does not.

Features are normalised to ``[0, 1]`` per video so the learned logistic
regression transfers across videos and games.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.initializer.windows import SlidingWindow
from repro.ml.kmeans import similarity_kernel
from repro.ml.scaler import MinMaxScaler
from repro.ml.text import tokenize
from repro.utils.validation import ValidationError

__all__ = [
    "WindowFeatures",
    "RunningWindowFeatures",
    "PendingWindowFeatures",
    "bag_similarity",
    "WindowFeatureExtractor",
    "FEATURE_NAMES",
]

FEATURE_NAMES = ("message_number", "message_length", "message_similarity")


@dataclass(frozen=True)
class WindowFeatures:
    """Raw (unnormalised) feature values for one sliding window."""

    message_number: float
    message_length: float
    message_similarity: float

    def as_array(self) -> np.ndarray:
        """Return the features as a ``(3,)`` numpy vector."""
        return np.array(
            [self.message_number, self.message_length, self.message_similarity],
            dtype=float,
        )


@dataclass
class RunningWindowFeatures:
    """One window's state for its raw general features.

    The streaming engine builds one from a sealed window's member messages
    (:meth:`from_tokens`, with each message tokenized once across the
    overlapping windows holding it); :meth:`raw` then produces the exact
    :class:`WindowFeatures` the batch extractor would compute for the same
    member messages.  The batch path
    (:meth:`WindowFeatureExtractor.raw_features`) builds it the same way, so
    the two can never disagree.

    State kept per window: the message count, the per-message token counts
    (for the length feature) and the token lists of non-blank messages (for
    the similarity feature, whose leave-one-out cosine needs the full
    bag-of-words of the window).  The similarity runs in two steps:
    :meth:`bag` builds the window's first-seen bag of words and
    :func:`bag_similarity` builds the matrix and runs the kernel.
    :meth:`raw` runs both back to back; :meth:`deferred_raw` runs only the
    first and leaves the kernel to the first read of the value.
    """

    message_count: int = 0
    _token_counts: list[int] = field(default_factory=list, repr=False)
    _token_lists: list[list[str]] = field(default_factory=list, repr=False)

    @classmethod
    def from_tokens(cls, token_lists: list[list[str]]) -> "RunningWindowFeatures":
        """The state of a window whose messages tokenize to ``token_lists``.

        A text has no tokens exactly when it is blank (``\\s`` and
        ``str.isspace`` agree on every code point), so no text is needed.
        """
        return cls(
            len(token_lists),
            [len(tokens) for tokens in token_lists],
            [tokens for tokens in token_lists if tokens],
        )

    def raw(self) -> WindowFeatures:
        """The window's raw feature triple."""
        return WindowFeatures(
            message_number=float(self.message_count),
            message_length=self._average_length(),
            message_similarity=bag_similarity(*self.bag()),
        )

    def deferred_raw(self) -> "WindowFeatures | PendingWindowFeatures":
        """:meth:`raw`, with the similarity kernel left for the first read.

        A window with fewer than two non-blank messages needs no kernel and
        comes back complete; any other keeps its bag, packed.
        """
        if len(self._token_lists) < 2:
            return self.raw()
        return PendingWindowFeatures(
            float(self.message_count), self._average_length(), *self.bag()
        )

    def bag(self) -> tuple[list[int], list[int], int]:
        """The binary bag-of-words of the non-blank messages, as indices.

        Returns the flat column ids (message by message, over the
        first-seen vocabulary, built in one pass), the per-message token
        counts and the vocabulary width.
        """
        token_lists = self._token_lists
        vocabulary: dict[str, int] = {}
        index = vocabulary.setdefault
        columns = [index(token, len(vocabulary)) for tokens in token_lists for token in tokens]
        return columns, [len(tokens) for tokens in token_lists], len(vocabulary)

    def _average_length(self) -> float:
        if not self._token_counts:
            return 0.0
        # Sums of small integers are exact, so this equals np.mean bit for bit.
        return sum(self._token_counts) / len(self._token_counts)


def bag_similarity(columns: Sequence[int], counts: Sequence[int], width: int) -> float:
    """The message similarity of a :meth:`RunningWindowFeatures.bag`.

    Builds the binary bag-of-words matrix with one fancy-indexed assignment
    (setting a cell to 1.0 is idempotent, so repeated tokens need no care)
    and runs the leave-one-out kernel on it.
    """
    if len(counts) < 2:
        return 0.0
    rows = np.repeat(np.arange(len(counts)), counts)
    vectors = np.zeros((len(counts), width))
    vectors[rows, columns] = 1.0
    # Fresh, C-contiguous, float, two rows or more: no checks needed.
    return similarity_kernel(vectors)


class PendingWindowFeatures:
    """A window's raw triple whose similarity kernel has not run yet.

    Holds the :meth:`RunningWindowFeatures.bag` packed as unsigned
    integers in one ``bytes`` object, the counts first: two bytes a value
    while the bag has at most 65,535 tokens (no count or column id exceeds
    the token total), four past that.  ``message_similarity`` reads NaN
    until :meth:`resolve` runs the kernel on the same matrix the eager path
    builds.
    """

    __slots__ = ("message_number", "message_length", "_rows", "_width", "_code", "_bag")
    message_similarity = math.nan

    def __init__(
        self,
        message_number: float,
        message_length: float,
        columns: list[int],
        counts: list[int],
        width: int,
    ) -> None:
        self.message_number = message_number
        self.message_length = message_length
        self._rows = len(counts)
        self._width = width
        self._code = "H" if len(columns) <= 0xFFFF else "I"
        self._bag = struct.pack(f"={len(counts) + len(columns)}{self._code}", *counts, *columns)

    def resolve(self) -> WindowFeatures:
        """The complete triple: runs the similarity kernel."""
        packed = np.frombuffer(self._bag, dtype=f"={self._code}")
        rows = self._rows
        return WindowFeatures(
            message_number=self.message_number,
            message_length=self.message_length,
            message_similarity=bag_similarity(packed[rows:], packed[:rows], self._width),
        )


class WindowFeatureExtractor:
    """Computes and normalises the three general features for windows.

    The extractor is stateless with respect to training data: normalisation
    is per-video (fit on the video's own windows), exactly because the
    feature *ranges* differ wildly across videos (a tournament stream has 10×
    the chat rate of a personal stream) while their *relative* shape within a
    video is what signals highlights.
    """

    def __init__(self, invert_length: bool = True) -> None:
        # The raw "average words per message" is inversely related to
        # highlight likelihood (short messages ⇒ reactions).  The paper plots
        # the raw value (Fig. 2b) and lets logistic regression learn the
        # negative weight; we keep the raw orientation by default and expose
        # ``invert_length`` for ablations.
        self.invert_length = invert_length

    # ----------------------------------------------------------- raw values
    def raw_features(self, window: SlidingWindow) -> WindowFeatures:
        """Compute unnormalised features for one window.

        Implemented as a replay of the streaming accumulator so the batch
        and live engines compute bit-identical features for identical window
        membership.
        """
        token_lists = [tokenize(message.text) for message in window.messages]
        return RunningWindowFeatures.from_tokens(token_lists).raw()

    # --------------------------------------------------------- feature matrix
    def normalise(self, raw: np.ndarray) -> np.ndarray:
        """Scale a raw ``(n, 3)`` feature matrix to ``[0, 1]`` per column.

        The message-length column is flipped (``1 - scaled``) when
        ``invert_length`` is set so that larger always means "more
        highlight-like" for every feature.  Both the batch path
        (:meth:`feature_matrix`) and the streaming engine's summary scorer
        normalise through this one method, so they cannot drift apart.
        """
        scaled = MinMaxScaler().fit_transform(raw)
        if self.invert_length:
            scaled[:, 1] = 1.0 - scaled[:, 1]
        return scaled

    def feature_matrix(
        self, windows: list[SlidingWindow], normalise: bool = True
    ) -> np.ndarray:
        """Return an ``(n_windows, 3)`` feature matrix for ``windows``.

        With ``normalise=True`` (default) the matrix is scaled through
        :meth:`normalise`.
        """
        if not windows:
            raise ValidationError("feature_matrix requires at least one window")
        raw = np.vstack([self.raw_features(window).as_array() for window in windows])
        if not normalise:
            return raw
        return self.normalise(raw)

    def label_windows(
        self,
        windows: list[SlidingWindow],
        highlights: list,
        reaction_delay: float = 30.0,
    ) -> np.ndarray:
        """Return binary labels: is each window *talking about* a highlight?

        Because chat reacts *after* the highlight, a window is labelled
        positive when it overlaps the interval
        ``[highlight.start, highlight.end + reaction_delay]`` — i.e. the
        discussion period of some ground-truth highlight.  This mirrors how
        the paper labels its 109 windows into 13 highlight / 96 non-highlight
        windows (Fig. 2b).
        """
        labels = np.zeros(len(windows), dtype=int)
        for index, window in enumerate(windows):
            for highlight in highlights:
                discussion_start = highlight.start
                discussion_end = highlight.end + reaction_delay
                if window.start < discussion_end and discussion_start < window.end:
                    labels[index] = 1
                    break
        return labels
