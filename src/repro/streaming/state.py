"""Incremental per-channel window state for the streaming engine.

The batch Initializer re-windows, re-tokenizes and re-featurises the whole
chat log on every call — O(video) work per request.  The streaming engine
instead folds each arriving message into the open windows (a constant number
of them) and *seals* a window once the stream has moved past its end: at
seal time the window's raw feature triple and chat peak are computed once,
its messages are dropped, and only a small :class:`WindowSummary` is kept.

Scoring (normalise → logistic → top-k) is deferred to evaluation points.
Each summary is also written once, at seal time, into append-only arrays,
and the overlap-resolved (accepted) set is kept current incrementally: a
new seal re-resolves only the windows it can affect.  An evaluation is then
O(new windows) of Python plus one vectorised NumPy pass over the accepted
rows — never O(#messages), and no per-summary Python work over the history.

Parity: sealing uses :class:`~repro.core.initializer.features.RunningWindowFeatures`
and :meth:`~repro.core.initializer.windows.SlidingWindow.peak_timestamp`,
the same code the batch path replays, so a finalized stream reproduces the
batch windows, features and peaks exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.initializer.features import RunningWindowFeatures, WindowFeatures
from repro.core.initializer.windows import (
    SlidingWindow,
    StreamingWindowBuilder,
    resolve_overlapping_windows,
)
from repro.core.types import ChatMessage
from repro.ml.text import tokenize
from repro.utils.validation import ValidationError

__all__ = ["WindowSummary", "ScorableWindows", "IncrementalWindowState"]

_INITIAL_CAPACITY = 64


@dataclass(frozen=True)
class WindowSummary:
    """Everything the scorer needs from a sealed window, messages dropped."""

    start: float
    end: float
    message_count: int
    peak: float
    raw: WindowFeatures


@dataclass(frozen=True)
class ScorableWindows:
    """The overlap-resolved sealed windows as parallel arrays, in start order.

    Row ``i`` of ``raw`` (the ``(n, 3)`` raw feature matrix) belongs to the
    window ``[start[i], end[i])`` whose chat peaks at ``peak[i]``.  The arrays
    are copies, so later seals never change a view already handed out.
    """

    raw: np.ndarray
    start: np.ndarray
    end: np.ndarray
    peak: np.ndarray

    def __len__(self) -> int:
        return len(self.start)


@dataclass
class IncrementalWindowState:
    """Maintains sealed window summaries for one live chat stream.

    Parameters
    ----------
    window_size / stride / min_messages:
        The sliding-window geometry (must match the trained Initializer's
        configuration for parity with the batch path).
    max_summaries:
        Optional hard cap on retained summaries.  ``None`` (default) keeps
        every sealed window, which exact batch parity requires — the final
        normalisation spans the whole video.  A bounded engine drops the
        oldest summaries once the cap is hit, trading exact parity at
        ``finalize`` for O(1) memory on endless streams.
    """

    window_size: float
    stride: float
    min_messages: int = 1
    max_summaries: int | None = None
    _builder: StreamingWindowBuilder = field(init=False, repr=False)
    _summaries: list[WindowSummary] = field(default_factory=list, repr=False)
    # A message is sealed into every window holding it (several when stride
    # < window_size); its tokens are computed once at the first seal and
    # shared until the seal frontier moves past it.  Keyed by object id
    # with the message held alongside, so an id can never be recycled while
    # its entry is alive.
    _token_cache: dict[int, tuple[ChatMessage, list[str]]] = field(
        default_factory=dict, repr=False
    )
    # Derived state, rebuilt from the summaries on restore: row ``i`` of each
    # array mirrors ``_summaries[i]`` (capacity doubles as rows are added),
    # and ``_accepted`` marks the rows overlap resolution keeps.  Rows from
    # ``_resolved_rows`` on were sealed after the mask was last brought up
    # to date, so their mask entries are not yet meaningful.
    _raw: np.ndarray = field(init=False, repr=False, compare=False)
    _start: np.ndarray = field(init=False, repr=False, compare=False)
    _end: np.ndarray = field(init=False, repr=False, compare=False)
    _peak: np.ndarray = field(init=False, repr=False, compare=False)
    _accepted: np.ndarray = field(init=False, repr=False, compare=False)
    _resolved_rows: int = field(default=0, init=False, repr=False, compare=False)
    dropped_summaries: int = 0
    last_timestamp: float = 0.0
    finalized: bool = False

    def __post_init__(self) -> None:
        self._builder = StreamingWindowBuilder(
            window_size=self.window_size,
            stride=self.stride,
            min_messages=self.min_messages,
        )
        self._raw = np.empty((_INITIAL_CAPACITY, 3))
        self._start = np.empty(_INITIAL_CAPACITY)
        self._end = np.empty(_INITIAL_CAPACITY)
        self._peak = np.empty(_INITIAL_CAPACITY)
        self._accepted = np.zeros(_INITIAL_CAPACITY, dtype=bool)

    # ------------------------------------------------------------------ feed
    def add(self, message: ChatMessage) -> list[WindowSummary]:
        """Fold one message in; return summaries of any windows it sealed."""
        return self.add_batch([message])

    def add_batch(self, messages: Sequence[ChatMessage]) -> list[WindowSummary]:
        """Fold a timestamp-ordered batch in; return the summaries it sealed.

        Equivalent to calling :meth:`add` once per message — identical window
        membership, identical seal order, bit-identical summaries — but the
        membership fold runs through
        :meth:`~repro.core.initializer.windows.StreamingWindowBuilder.add_batch`
        (bisected per window, not looped per message) and cap enforcement
        plus token-cache pruning run once per batch instead of once per
        message.
        """
        if not messages:
            return []
        sealed = [self._summarise(window) for window in self._builder.add_batch(messages)]
        self.last_timestamp = max(self.last_timestamp, messages[-1].timestamp)
        if sealed:
            self._append(sealed)
            self._prune_token_cache()
        return sealed

    def finalize(self, duration: float | None = None) -> list[WindowSummary]:
        """Close the stream and return the *scorable* window set.

        The remaining open windows are flushed (truncated at ``duration``,
        exactly like the batch builder), then the greedy overlap resolution
        is brought up to date over all summaries — the same global step
        :func:`~repro.core.initializer.windows.build_sliding_windows` applies
        — so the returned list corresponds one-to-one with the batch windows.

        ``duration`` defaults to the last seen message timestamp.  A
        duration *before* chat already observed is rejected: the batch
        engine's ``VideoChatLog`` refuses such data outright, and silently
        scoring windows past the declared end would hand out red dots beyond
        the video.
        """
        if duration is not None and duration < self.last_timestamp:
            raise ValidationError(
                f"cannot finalize at {duration}s: chat was already observed at "
                f"{self.last_timestamp}s"
            )
        if not self.finalized:
            closing = duration if duration is not None else self.last_timestamp
            if closing > 0:
                self._append(
                    [self._summarise(window) for window in self._builder.flush(closing)]
                )
            self._token_cache.clear()
            self.finalized = True
        return [self._summaries[row] for row in self._accepted_rows().tolist()]

    # ------------------------------------------------------------- durability
    def snapshot(self) -> dict:
        """A JSON-safe dict capturing the full window state, round-trip exact.

        Everything the fold depends on is included: the sealed summaries, the
        builder's open windows (with their member messages), the seal
        frontier and the monotonicity watermark.  :meth:`restore` rebuilds a
        state object that is *bit-identical in behaviour* — feeding the same
        subsequent messages to the original and the restored state produces
        the same sealed summaries and the same finalized window set.

        The token cache is deliberately absent: it is a pure cache keyed on
        message object identity (which cannot survive a process restart) and
        tokenisation is deterministic, so a restored state simply re-derives
        tokens on the next seal.
        """
        from repro.platform import codecs

        builder = self._builder
        return {
            "window_size": self.window_size,
            "stride": self.stride,
            "min_messages": self.min_messages,
            "max_summaries": self.max_summaries,
            "summaries": [codecs.window_summary_to_dict(s) for s in self._summaries],
            "dropped_summaries": self.dropped_summaries,
            "last_timestamp": self.last_timestamp,
            "finalized": self.finalized,
            "builder": {
                "next_seal": builder._next_seal,
                # -inf ("no message seen yet") is mapped to None so the
                # payload stays strict-JSON (allow_nan=False never raises).
                "last_timestamp": codecs.finite_or_none(builder._last_timestamp),
                "messages_seen": builder.messages_seen,
                "windows_sealed": builder.windows_sealed,
                "active": [
                    [index, [codecs.chat_message_to_dict(m) for m in window.messages]]
                    for index, window in sorted(builder._active.items())
                ],
            },
        }

    @classmethod
    def restore(cls, payload: dict) -> "IncrementalWindowState":
        """Rebuild a window state from :meth:`snapshot`'s payload."""
        from repro.platform import codecs

        state = cls(
            window_size=payload["window_size"],
            stride=payload["stride"],
            min_messages=payload["min_messages"],
            max_summaries=payload["max_summaries"],
        )
        state._append([codecs.window_summary_from_dict(s) for s in payload["summaries"]])
        state.dropped_summaries = payload["dropped_summaries"]
        state.last_timestamp = payload["last_timestamp"]
        state.finalized = payload["finalized"]
        builder = state._builder
        builder_payload = payload["builder"]
        builder._next_seal = builder_payload["next_seal"]
        builder._last_timestamp = codecs.none_or_neg_inf(builder_payload["last_timestamp"])
        builder.messages_seen = builder_payload["messages_seen"]
        builder.windows_sealed = builder_payload["windows_sealed"]
        for index, messages in builder_payload["active"]:
            # Open-window geometry is arithmetic over the index, the exact
            # expression the builder itself uses, so restored floats match.
            start = index * builder.stride
            window = SlidingWindow(start=start, end=start + builder.window_size)
            window.messages = [codecs.chat_message_from_dict(m) for m in messages]
            builder._active[index] = window
        return state

    # ------------------------------------------------------------------ views
    def scorable_summaries(self) -> ScorableWindows:
        """The current sealed windows after overlap resolution, as arrays.

        This is the *provisional* view used mid-stream: it only covers
        windows whose chat has fully played out (a window seals
        ``window_size`` seconds after it opens), so the live engine's dots
        trail the live edge by at most one window.  Windows sealed since the
        last call are resolved here (see :meth:`_accepted_rows`); the rest
        is one NumPy gather of the accepted rows.
        """
        rows = self._accepted_rows()
        return ScorableWindows(
            raw=self._raw[rows],
            start=self._start[rows],
            end=self._end[rows],
            peak=self._peak[rows],
        )

    @property
    def summary_count(self) -> int:
        """Number of sealed windows currently retained."""
        return len(self._summaries)

    @property
    def active_window_count(self) -> int:
        """Number of windows still open at the live edge."""
        return self._builder.active_window_count

    @property
    def messages_seen(self) -> int:
        """Total messages folded into this state."""
        return self._builder.messages_seen

    # -------------------------------------------------------------- internals
    def _summarise(self, window: SlidingWindow) -> WindowSummary:
        cache = self._token_cache
        token_lists = []
        for message in window.messages:
            entry = cache.get(id(message))
            if entry is None or entry[0] is not message:
                entry = cache[id(message)] = (message, tokenize(message.text))
            token_lists.append(entry[1])
        return WindowSummary(
            start=window.start,
            end=window.end,
            message_count=window.message_count,
            peak=window.peak_timestamp(),
            raw=RunningWindowFeatures.from_tokens(token_lists).raw(),
        )

    def _prune_token_cache(self) -> None:
        frontier = self._builder.frontier_start
        self._token_cache = {
            key: entry
            for key, entry in self._token_cache.items()
            if entry[0].timestamp >= frontier
        }

    def _append(self, sealed: list[WindowSummary]) -> None:
        """Retain newly sealed summaries and write their rows, once."""
        first = len(self._summaries)
        self._summaries.extend(sealed)
        if len(self._summaries) > len(self._start):
            capacity = max(len(self._summaries), 2 * len(self._start))
            self._raw = _grown(self._raw, capacity, first)
            self._start = _grown(self._start, capacity, first)
            self._end = _grown(self._end, capacity, first)
            self._peak = _grown(self._peak, capacity, first)
            self._accepted = _grown(self._accepted, capacity, first)
        for row, summary in enumerate(sealed, first):
            raw = summary.raw
            self._raw[row] = (raw.message_number, raw.message_length, raw.message_similarity)
            self._start[row] = summary.start
            self._end[row] = summary.end
            self._peak[row] = summary.peak
        self._enforce_cap()

    def _enforce_cap(self) -> None:
        if self.max_summaries is not None and len(self._summaries) > self.max_summaries:
            overflow = len(self._summaries) - self.max_summaries
            del self._summaries[:overflow]
            kept = len(self._summaries)
            for rows in (self._raw, self._start, self._end, self._peak):
                rows[:kept] = rows[overflow : overflow + kept]
            # Dropping the densest old windows can free any later window, so
            # the whole retained history is re-resolved.
            self._resolved_rows = 0
            self.dropped_summaries += overflow

    def _accepted_rows(self) -> np.ndarray:
        """Bring overlap resolution up to date; return the accepted rows.

        The result equals ``resolve_overlapping_windows(all summaries)``
        (rows in start order), but only windows a new seal can affect are
        re-resolved.  Greedy resolution accepts a window iff no accepted
        window ranked above it under ``(-message_count, start)`` overlaps
        it, so a new window can change only windows reachable from it
        through a chain of overlapping windows, each ranked below the one
        before.  Every other window keeps its status, and every unaffected
        accepted window that overlaps an affected one ranks above it, so
        those neighbours seed the resolver exactly.
        """
        size = len(self._summaries)
        first = self._resolved_rows
        if first < size:
            if first == 0:
                self._resolve(list(range(size)), seed_rows=[])
            else:
                affected = self._affected_rows(first, size)
                seed_rows = {
                    other
                    for row in affected
                    for other in self._overlapping(row)
                    if other not in affected and self._accepted[other]
                }
                self._resolve(sorted(affected), sorted(seed_rows))
            self._resolved_rows = size
        return np.flatnonzero(self._accepted[:size])

    def _affected_rows(self, first: int, size: int) -> set[int]:
        """Rows ``first:size`` plus every row reachable by descending rank."""
        summaries = self._summaries
        affected = set(range(first, size))
        frontier = list(affected)
        while frontier:
            row = frontier.pop()
            rank = (-summaries[row].message_count, summaries[row].start)
            for other in self._overlapping(row):
                if other not in affected and (
                    (-summaries[other].message_count, summaries[other].start) > rank
                ):
                    affected.add(other)
                    frontier.append(other)
        return affected

    def _overlapping(self, row: int):
        """Rows whose window overlaps ``row``'s.

        Starts increase and ends never decrease along the rows (windows seal
        in start order; only the final flush truncates, at one duration), so
        the overlapping rows are a contiguous run on each side of ``row``.
        """
        summaries = self._summaries
        window = summaries[row]
        other = row - 1
        while other >= 0 and summaries[other].end > window.start:
            yield other
            other -= 1
        other = row + 1
        while other < len(summaries) and summaries[other].start < window.end:
            yield other
            other += 1

    def _resolve(self, rows: list[int], seed_rows: list[int]) -> None:
        """Re-run the shared resolver over ``rows`` against fixed accepted rows."""
        summaries = self._summaries
        row_at = {summaries[row].start: row for row in rows}
        self._accepted[rows] = False
        accepted = resolve_overlapping_windows(
            [summaries[row] for row in rows], [summaries[row] for row in seed_rows]
        )
        for window in accepted:
            row = row_at.get(window.start)
            if row is not None:
                self._accepted[row] = True


def _grown(rows: np.ndarray, capacity: int, used: int) -> np.ndarray:
    """A copy of ``rows`` with room for ``capacity`` rows; the first ``used`` kept."""
    grown = np.empty((capacity,) + rows.shape[1:], dtype=rows.dtype)
    grown[:used] = rows[:used]
    return grown
