"""Sliding-window construction over a chat stream (Algorithm 1, line 1).

The Initializer scans the chat log with fixed-length windows.  The paper's
``get_sliding_wins`` generates candidate windows and, when two windows
overlap, keeps the one with more messages.  We reproduce that greedy
resolution: windows are generated on a regular stride, ranked by message
count, and accepted greedily unless they overlap an already-accepted denser
window.

The construction is *streaming-first*: :class:`StreamingWindowBuilder`
consumes one :class:`~repro.core.types.ChatMessage` at a time (in timestamp
order, as a live chat delivers them) and seals windows as the stream moves
past their end.  The batch entry point :func:`build_sliding_windows` is a
replay of that stream, so the recorded-video path and the live path produce
identical windows by construction.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.types import ChatMessage, VideoChatLog
from repro.utils.validation import ValidationError, require_positive

__all__ = [
    "SlidingWindow",
    "StreamingWindowBuilder",
    "build_sliding_windows",
    "resolve_overlapping_windows",
    "window_for_timestamp",
]


@dataclass
class SlidingWindow:
    """A chat sliding window ``[start, end)`` with its member messages."""

    start: float
    end: float
    messages: list[ChatMessage] = field(default_factory=list)
    score: float | None = None

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValidationError(
                f"window end ({self.end}) must be after start ({self.start})"
            )

    @property
    def duration(self) -> float:
        """Window length in seconds."""
        return self.end - self.start

    @property
    def message_count(self) -> int:
        """Number of chat messages falling in the window."""
        return len(self.messages)

    def overlaps(self, other: "SlidingWindow") -> bool:
        """Whether two half-open windows intersect."""
        return self.start < other.end and other.start < self.end

    def peak_timestamp(self, bin_size: float = 1.0, refine_radius: float = 3.0) -> float:
        """Timestamp (second) at which the message count peaks inside the window.

        The paper detects "the time when the message number reaches the top"
        within the window.  We bin the window at ``bin_size`` seconds, find
        the densest bin, then refine the estimate to the mean timestamp of
        the messages within ``refine_radius`` seconds of that bin's centre —
        the refinement removes most of the one-second quantisation noise,
        which matters because the adjustment constant is learned to within a
        few seconds.  An empty window returns its start.
        """
        if not self.messages:
            return self.start
        require_positive(bin_size, "bin_size")
        start = self.start
        n_bins = max(1, int(round(self.duration / bin_size)))
        last_bin = n_bins - 1
        timestamps = [float(message.timestamp) for message in self.messages]
        counts = [0] * n_bins
        for timestamp in timestamps:
            # A message before the start (only on hand-built windows) lands
            # on a negative index, which counts from the end.
            counts[min(last_bin, int((timestamp - start) // bin_size))] += 1
        # list.index finds the first maximum: ties go to the earliest bin.
        coarse_peak = start + (counts.index(max(counts)) + 0.5) * bin_size
        # A left-to-right sum: builtin sum() compensates float rounding on
        # Python 3.12+, which would change the refined peak's last bits.
        total = 0.0
        nearby = 0
        for timestamp in timestamps:
            if abs(timestamp - coarse_peak) <= refine_radius:
                total += timestamp
                nearby += 1
        return total / nearby if nearby else coarse_peak

    def contains(self, timestamp: float) -> bool:
        """Whether ``timestamp`` falls inside ``[start, end)``."""
        return self.start <= timestamp < self.end


@dataclass
class StreamingWindowBuilder:
    """Incrementally assigns a chat stream to candidate sliding windows.

    Candidate window ``i`` spans ``[i * stride, i * stride + window_size)``.
    Messages must arrive in non-decreasing timestamp order (live chat order);
    each message is appended to every candidate window containing it, and a
    window is *sealed* — handed back to the caller, never to change again —
    once a message arrives at or beyond its end.  :meth:`flush` closes the
    remaining windows when the stream ends, truncating them at the video
    duration exactly like the batch builder.

    Memory is bounded by the live edge: the builder only holds the windows
    that can still receive messages (``ceil(window_size / stride)`` of them),
    never the whole stream.
    """

    window_size: float
    stride: float | None = None
    min_messages: int = 1
    _active: dict[int, SlidingWindow] = field(default_factory=dict, repr=False)
    _next_seal: int = 0
    _last_timestamp: float = field(default=-math.inf, repr=False)
    messages_seen: int = 0
    windows_sealed: int = 0

    def __post_init__(self) -> None:
        require_positive(self.window_size, "window_size")
        if self.stride is None:
            self.stride = self.window_size
        require_positive(self.stride, "stride")

    # ------------------------------------------------------------------ feed
    def add(self, message: ChatMessage) -> list[SlidingWindow]:
        """Feed one message; return the windows sealed by its arrival.

        Sealed windows are complete: every message they can ever contain has
        been seen.  They are returned in start order and removed from the
        builder's state.
        """
        timestamp = message.timestamp
        if timestamp < self._last_timestamp:
            raise ValidationError(
                f"messages must arrive in timestamp order; got {timestamp} "
                f"after {self._last_timestamp}"
            )
        self._last_timestamp = timestamp
        self.messages_seen += 1

        sealed = self._seal_through(timestamp)

        # Append to every live window [s, s + window_size) containing the
        # message.  The index range is derived arithmetically and then each
        # candidate is verified with the exact membership predicate, so
        # floating-point rounding of the division can never change membership.
        lowest = max(
            self._next_seal, self._index_at_or_before(timestamp - self.window_size) - 1
        )
        highest = self._index_at_or_before(timestamp) + 1
        for index in range(max(0, lowest), highest + 1):
            start = index * self.stride
            if start <= timestamp < start + self.window_size:
                window = self._active.get(index)
                if window is None:
                    window = SlidingWindow(start=start, end=start + self.window_size)
                    self._active[index] = window
                window.messages.append(message)
        return sealed

    def add_batch(self, messages: Sequence[ChatMessage]) -> list[SlidingWindow]:
        """Feed a timestamp-ordered batch; return every window it sealed.

        Semantically identical to calling :meth:`add` once per message — the
        same windows receive the same messages in the same order and the same
        windows seal — but window membership is computed per window, not per
        message: because the batch is sorted, the members of window ``[s, s +
        l)`` are a contiguous slice of the batch found with two ``bisect``
        calls (the comparisons are the exact ``s <= t < s + l`` membership
        predicate, so no float-rounding drift against the per-message path is
        possible).  Cost is O(windows touched · log batch) plus the slice
        appends, instead of O(batch · windows-per-message) Python iterations.

        Raises :class:`ValidationError` (before mutating any state) if the
        batch is internally unsorted or starts before a previously seen
        timestamp.
        """
        if not messages:
            return []
        if len(messages) == 1:
            return self.add(messages[0])
        timestamps = [message.timestamp for message in messages]
        first, last = float(timestamps[0]), float(timestamps[-1])
        if first < self._last_timestamp or sorted(timestamps) != timestamps:
            out_of_order = first if first < self._last_timestamp else "within the batch"
            raise ValidationError(
                f"messages must arrive in timestamp order; got {out_of_order} "
                f"after {self._last_timestamp}"
            )

        # Candidate indices: every window whose [start, start + l) span can
        # intersect [first, last].  The same over-approximation as add()'s
        # per-message range; the bisected slice is the exact predicate.
        lowest = max(0, self._next_seal, self._index_at_or_before(first - self.window_size) - 1)
        highest = self._index_at_or_before(last) + 1
        index = lowest
        while index <= highest:
            start = index * self.stride
            lo = bisect_left(timestamps, start)
            hi = bisect_left(timestamps, start + self.window_size, lo)
            if lo >= hi:
                if lo == len(messages):
                    break
                # No member here: jump to the first window that can hold the
                # next message, over a gap of any length in one step.
                following = self._index_at_or_before(timestamps[lo] - self.window_size) - 1
                index = max(index + 1, following)
                continue
            window = self._active.get(index)
            if window is None:
                window = SlidingWindow(start=start, end=start + self.window_size)
                self._active[index] = window
            window.messages.extend(messages[lo:hi])
            index += 1
        self._last_timestamp = last
        self.messages_seen += len(messages)
        # Sealing after the appends matches the per-message order: a message
        # at/after a window's end can never be a member of it, so no batch
        # message reaches a window the per-message path would have sealed.
        return self._seal_through(last)

    def flush(self, duration: float) -> list[SlidingWindow]:
        """Close the stream at ``duration`` and return the remaining windows.

        Windows extending past ``duration`` are truncated to end there, and
        messages at or beyond the truncated end are dropped (the batch
        semantics of ``messages_between(start, min(start + l, duration))``).
        """
        require_positive(duration, "duration")
        if not math.isfinite(duration):
            raise ValidationError(f"duration must be finite, got {duration!r}")
        remaining: list[SlidingWindow] = []
        index = self._next_seal
        while index * self.stride < duration:
            start = index * self.stride
            end = min(start + self.window_size, duration)
            window = self._active.pop(index, None)
            if window is None:
                if self.min_messages <= 0:
                    window = SlidingWindow(start=start, end=end)
                else:
                    index = self._end_of_gap(
                        index, duration / self.stride, lambda i: i * self.stride < duration
                    )
                    continue
            else:
                window.end = end
                window.messages = [m for m in window.messages if m.timestamp < end]
            if len(window.messages) >= self.min_messages:
                remaining.append(window)
                self.windows_sealed += 1
            index += 1
        self._next_seal = index
        self._active.clear()
        return remaining

    # -------------------------------------------------------------- internals
    def _seal_through(self, timestamp: float) -> list[SlidingWindow]:
        """Seal every window whose end lies at or before ``timestamp``."""
        sealed: list[SlidingWindow] = []
        while self._next_seal * self.stride + self.window_size <= timestamp:
            index = self._next_seal
            window = self._active.pop(index, None)
            if window is None:
                if self.min_messages > 0:
                    self._next_seal = self._end_of_gap(
                        index,
                        (timestamp - self.window_size) / self.stride + 1,
                        lambda i: i * self.stride + self.window_size <= timestamp,
                    )
                    continue
                start = index * self.stride
                window = SlidingWindow(start=start, end=start + self.window_size)
            if len(window.messages) >= self.min_messages:
                sealed.append(window)
                self.windows_sealed += 1
            self._next_seal += 1
        return sealed

    def _end_of_gap(self, index: int, estimate: float, within: Callable[[int], bool]) -> int:
        """Where a run of empty indices from ``index`` ends, in one step.

        An index with no active window seals nothing when ``min_messages >
        0``, so a loop over ``within`` (its own condition, true at
        ``index``) may skip straight to the next active window or to the
        first index ``within`` rejects, whichever comes first.  ``estimate``
        locates that index; the exact predicate corrects it, so float
        rounding cannot move the result.
        """
        end = max(index + 1, int(estimate))
        while end > index + 1 and not within(end - 1):
            end -= 1
        while within(end):
            end += 1
        return min(end, min(self._active, default=end))

    def _index_at_or_before(self, timestamp: float) -> int:
        """Largest window index whose start could lie at or before ``timestamp``."""
        if timestamp < 0:
            return -1
        return int(math.floor(timestamp / self.stride))

    @property
    def active_window_count(self) -> int:
        """Number of windows currently able to receive messages."""
        return len(self._active)

    @property
    def frontier_start(self) -> float:
        """Start of the oldest window that can still receive messages.

        Everything before this point is sealed history; callers keyed on
        message lifetime (e.g. token caches) can drop state older than it.
        """
        return self._next_seal * self.stride


def resolve_overlapping_windows(candidates: list, accepted: Sequence = ()) -> list:
    """Greedy overlap resolution: densest window first, reject overlaps.

    Reproduces the paper's rule — "when two sliding windows have an overlap,
    we keep the one with more messages".  Works on anything exposing
    ``start``, ``end`` and ``message_count`` (both :class:`SlidingWindow` and
    the streaming engine's window summaries), so the batch and live paths
    share one resolution.  Returns the accepted windows sorted by start.

    ``accepted`` seeds the result with windows that are already fixed: they
    must be mutually disjoint, sorted by start, and each must rank above
    (denser, or as dense and earlier) every candidate it overlaps.  Under
    that precondition seeding equals resolving the union, which is what lets
    the streaming engine re-resolve only the windows a new seal can affect.
    The batch path passes no seed.

    Accepted windows are mutually disjoint, so a candidate can only collide
    with its immediate neighbours in start order — the check is two bisected
    comparisons instead of a scan over everything accepted.
    """
    ranked = sorted(candidates, key=lambda w: (-w.message_count, w.start))
    accepted = list(accepted)
    accepted_starts = [window.start for window in accepted]
    for window in ranked:
        index = bisect_left(accepted_starts, window.start)
        if index > 0 and accepted[index - 1].end > window.start:
            continue
        if index < len(accepted) and accepted[index].start < window.end:
            continue
        accepted_starts.insert(index, window.start)
        accepted.insert(index, window)
    return accepted


def build_sliding_windows(
    chat_log: VideoChatLog,
    window_size: float,
    stride: float | None = None,
    resolve_overlaps: bool = True,
    min_messages: int = 1,
) -> list[SlidingWindow]:
    """Generate candidate sliding windows over ``chat_log``.

    This is a replay of the streaming construction: the recorded messages are
    fed through a :class:`StreamingWindowBuilder` in timestamp order and the
    stream is flushed at the video duration, which guarantees the batch and
    live engines agree window-for-window.

    Parameters
    ----------
    chat_log:
        The video's chat messages (sorted by timestamp).
    window_size:
        Window length ``l`` in seconds (paper default 25 s).
    stride:
        Step between window starts; defaults to ``window_size`` (non-
        overlapping windows, as used in the paper's Fig. 2b analysis).  A
        smaller stride produces overlapping candidates which are resolved by
        keeping the denser window, matching Algorithm 1.
    resolve_overlaps:
        When True (default), overlapping candidates are resolved greedily by
        message count so the returned windows are mutually disjoint.
    min_messages:
        Windows with fewer messages than this are dropped (empty windows
        cannot be talking about a highlight).

    Returns
    -------
    list[SlidingWindow]
        Windows sorted by start time.
    """
    require_positive(window_size, "window_size")
    if stride is None:
        stride = window_size
    require_positive(stride, "stride")

    builder = StreamingWindowBuilder(
        window_size=window_size, stride=stride, min_messages=min_messages
    )
    candidates: list[SlidingWindow] = []
    for message in chat_log.messages:
        candidates.extend(builder.add(message))
    candidates.extend(builder.flush(chat_log.video.duration))

    if not resolve_overlaps or stride >= window_size:
        return candidates
    return resolve_overlapping_windows(candidates)


def window_for_timestamp(
    windows: list[SlidingWindow], timestamp: float
) -> SlidingWindow | None:
    """Return the window containing ``timestamp``, or None."""
    for window in windows:
        if window.contains(timestamp):
            return window
    return None
