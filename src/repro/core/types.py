"""Shared value objects of the LIGHTOR workflow.

All timestamps are seconds from the start of the recorded video (floats).
The types mirror the vocabulary of the paper:

* :class:`ChatMessage` — a time-stamped live-chat message.
* :class:`Highlight` — a ground-truth or extracted highlight interval.
* :class:`RedDot` — an approximate highlight start position placed on the
  progress bar by the Highlight Initializer.
* :class:`Interaction` / :class:`PlayRecord` — raw viewer interactions and the
  derived ``play(s, e)`` records used by the Highlight Extractor.
* :class:`Video` / :class:`VideoChatLog` — a recorded live video and its chat.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Sequence

from repro.utils.validation import ValidationError, require_non_negative

__all__ = [
    "ChatMessage",
    "Highlight",
    "RedDot",
    "RedDotType",
    "InteractionKind",
    "Interaction",
    "PlayRecord",
    "Video",
    "VideoChatLog",
]


@dataclass(frozen=True, order=True)
class ChatMessage:
    """A single time-stamped chat message.

    Attributes
    ----------
    timestamp:
        Seconds from the start of the video at which the message was posted.
    user:
        Poster's user name (synthetic in the simulated datasets).
    text:
        Raw message text.
    """

    timestamp: float
    user: str = field(compare=False, default="anonymous")
    text: str = field(compare=False, default="")

    def __post_init__(self) -> None:
        require_non_negative(self.timestamp, "timestamp")
        if not math.isfinite(self.timestamp):
            raise ValidationError(f"timestamp must be finite, got {self.timestamp!r}")

    @property
    def word_count(self) -> int:
        """Number of whitespace-separated words in the message."""
        return len(self.text.split())


@dataclass(frozen=True)
class Highlight:
    """A highlight interval ``[start, end]`` in seconds.

    Used both for ground-truth labels and for extracted results.
    """

    start: float
    end: float
    label: str = ""

    def __post_init__(self) -> None:
        require_non_negative(self.start, "start")
        if self.end < self.start:
            raise ValidationError(
                f"highlight end ({self.end}) must not precede start ({self.start})"
            )

    @property
    def duration(self) -> float:
        """Length of the highlight in seconds."""
        return self.end - self.start

    @property
    def midpoint(self) -> float:
        """Centre of the highlight in seconds."""
        return (self.start + self.end) / 2.0

    def contains(self, timestamp: float) -> bool:
        """Whether ``timestamp`` falls inside ``[start, end]``."""
        return self.start <= timestamp <= self.end

    def overlaps(self, other: "Highlight") -> bool:
        """Whether this interval overlaps ``other`` (closed intervals)."""
        return self.start <= other.end and other.start <= self.end

    def shifted(self, offset: float) -> "Highlight":
        """Return a copy shifted by ``offset`` seconds (clamped at 0)."""
        new_start = max(0.0, self.start + offset)
        new_end = max(new_start, self.end + offset)
        return replace(self, start=new_start, end=new_end)


class RedDotType(enum.Enum):
    """Relative position of a red dot and the end of its highlight.

    ``TYPE_I`` — the red dot lies *after* the end of the highlight, so viewers
    starting at the dot miss the highlight and hunt for it (noisy plays).
    ``TYPE_II`` — the red dot lies *before* the end of the highlight, so
    viewers starting at the dot see the highlight (consistent plays).
    ``UNKNOWN`` — not yet classified.
    """

    TYPE_I = "type_i"
    TYPE_II = "type_ii"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class RedDot:
    """An approximate highlight start position on the progress bar.

    Attributes
    ----------
    position:
        Seconds from the start of the video where the dot is rendered.
    score:
        The Initializer's confidence that a highlight is nearby (higher is
        more confident); used to rank dots when selecting the top-k.
    window:
        The ``(start, end)`` of the chat sliding window the dot came from.
    video_id:
        Identifier of the video the dot belongs to.
    """

    position: float
    score: float = 0.0
    window: tuple[float, float] | None = None
    video_id: str = ""

    def __post_init__(self) -> None:
        require_non_negative(self.position, "position")

    def moved_to(self, new_position: float) -> "RedDot":
        """Return a copy of the dot at ``new_position`` (clamped at 0)."""
        return replace(self, position=max(0.0, new_position))


class InteractionKind(enum.Enum):
    """Kinds of raw viewer interactions logged by the platform front end."""

    PLAY = "play"
    PAUSE = "pause"
    SEEK_FORWARD = "seek_forward"
    SEEK_BACKWARD = "seek_backward"
    STOP = "stop"


@dataclass(frozen=True, order=True)
class Interaction:
    """A raw, time-ordered viewer interaction event.

    ``timestamp`` is the *video* position at which the interaction happened.
    For seeks, ``target`` is the video position the viewer jumped to.
    """

    timestamp: float
    kind: InteractionKind = field(compare=False)
    user: str = field(compare=False, default="anonymous")
    target: float | None = field(compare=False, default=None)

    def __post_init__(self) -> None:
        require_non_negative(self.timestamp, "timestamp")
        if self.kind in (InteractionKind.SEEK_FORWARD, InteractionKind.SEEK_BACKWARD):
            if self.target is None:
                raise ValidationError(f"{self.kind.value} interactions require a target")
            require_non_negative(self.target, "target")


@dataclass(frozen=True)
class PlayRecord:
    """A continuous viewing interval ``play(start, end)`` by one user.

    This is the unit of implicit feedback consumed by the Highlight
    Extractor: ``<user, play(s, e)>`` means the user played the video from
    ``s`` to ``e`` without seeking away.
    """

    user: str
    start: float
    end: float

    def __post_init__(self) -> None:
        require_non_negative(self.start, "start")
        if self.end < self.start:
            raise ValidationError(
                f"play end ({self.end}) must not precede start ({self.start})"
            )

    @property
    def duration(self) -> float:
        """Length of the play in seconds."""
        return self.end - self.start

    def overlaps(self, other: "PlayRecord") -> bool:
        """Whether two plays share at least one instant (closed intervals)."""
        return self.start <= other.end and other.start <= self.end

    def covers(self, timestamp: float) -> bool:
        """Whether ``timestamp`` falls inside the play interval."""
        return self.start <= timestamp <= self.end


@dataclass(frozen=True)
class Video:
    """Metadata of a recorded live video.

    ``highlights`` holds the ground-truth annotation when available (labelled
    training/test videos); it is empty for unlabelled videos.
    """

    video_id: str
    duration: float
    game: str = "dota2"
    channel: str = ""
    viewer_count: int = 0
    highlights: tuple[Highlight, ...] = ()

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValidationError(f"video duration must be positive, got {self.duration!r}")
        for highlight in self.highlights:
            if highlight.end > self.duration:
                raise ValidationError(
                    f"highlight {highlight} extends past the video duration {self.duration}"
                )

    @property
    def n_highlights(self) -> int:
        """Number of ground-truth highlights."""
        return len(self.highlights)

    def with_highlights(self, highlights: Sequence[Highlight]) -> "Video":
        """Return a copy carrying ``highlights`` as ground truth."""
        return replace(self, highlights=tuple(highlights))


@dataclass
class VideoChatLog:
    """A video together with its time-stamped chat messages.

    The messages are stored sorted by timestamp; the constructor sorts them if
    needed so downstream windowing can rely on order.
    """

    video: Video
    messages: list[ChatMessage] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.messages = sorted(self.messages, key=lambda message: message.timestamp)
        for message in self.messages:
            if message.timestamp > self.video.duration:
                raise ValidationError(
                    f"chat message at {message.timestamp}s is outside the video "
                    f"duration {self.video.duration}s"
                )

    def __iter__(self) -> Iterator[ChatMessage]:
        return iter(self.messages)

    def __len__(self) -> int:
        return len(self.messages)

    @property
    def messages_per_hour(self) -> float:
        """Average chat rate of the video, in messages per hour."""
        hours = self.video.duration / 3600.0
        return len(self.messages) / hours if hours > 0 else 0.0

    def messages_between(self, start: float, end: float) -> list[ChatMessage]:
        """Return messages with ``start <= timestamp < end``."""
        return [m for m in self.messages if start <= m.timestamp < end]

    def timestamps(self) -> list[float]:
        """Return the list of message timestamps (sorted)."""
        return [message.timestamp for message in self.messages]

    @classmethod
    def from_pairs(
        cls, video: Video, pairs: Iterable[tuple[float, str]]
    ) -> "VideoChatLog":
        """Build a log from ``(timestamp, text)`` pairs with anonymous users."""
        messages = [ChatMessage(timestamp=t, text=text) for t, text in pairs]
        return cls(video=video, messages=messages)
