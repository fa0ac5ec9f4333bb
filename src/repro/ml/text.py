"""Chat-text processing: tokenisation, bag-of-words and cosine similarity.

Live-stream chat is short, emote-heavy and noisy.  The Highlight Initializer
only needs two lightweight representations:

* token counts per message (for the *message length* feature), and
* binary bag-of-words vectors (for the *message similarity* feature via
  one-cluster k-means).

Everything here is intentionally simple, deterministic and free of external
dependencies.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.utils.validation import ValidationError

__all__ = [
    "tokenize",
    "vocabulary_from_messages",
    "BagOfWordsVectorizer",
    "cosine_similarity",
    "jaccard_similarity",
]

# Words are runs of letters/digits; emotes such as ``PogChamp`` or ``:D`` and
# punctuation-only tokens are preserved as-is because they carry most of the
# reaction signal in game chat.
_TOKEN_PATTERN = re.compile(r"[A-Za-z0-9_]+|[^\sA-Za-z0-9_]+")


def tokenize(message: str) -> list[str]:
    """Split a chat message into lowercase tokens.

    >>> tokenize("KILL!! PogChamp PogChamp")
    ['kill', '!!', 'pogchamp', 'pogchamp']
    >>> tokenize("")
    []
    """
    if not isinstance(message, str):
        raise ValidationError(f"message must be a string, got {type(message).__name__}")
    return [token.lower() for token in _TOKEN_PATTERN.findall(message)]


def vocabulary_from_messages(messages: Iterable[str]) -> dict[str, int]:
    """Build a token → column-index vocabulary from ``messages``.

    Tokens are indexed in first-seen order so the mapping is deterministic
    for a fixed message order.
    """
    vocabulary: dict[str, int] = {}
    for message in messages:
        for token in tokenize(message):
            vocabulary.setdefault(token, len(vocabulary))
    return vocabulary


@dataclass
class BagOfWordsVectorizer:
    """Binary bag-of-words vectoriser over a fixed vocabulary.

    The vocabulary can be supplied explicitly or learned with :meth:`fit`.
    Unknown tokens at transform time are ignored (standard out-of-vocabulary
    behaviour), which matters because test videos always contain emotes the
    training video never showed.
    """

    binary: bool = True
    vocabulary_: dict[str, int] = field(default_factory=dict)

    def fit(self, messages: Sequence[str]) -> "BagOfWordsVectorizer":
        """Learn the vocabulary from ``messages``."""
        self.vocabulary_ = vocabulary_from_messages(messages)
        return self

    def transform(self, messages: Sequence[str]) -> np.ndarray:
        """Vectorise ``messages`` into an ``(n_messages, n_terms)`` matrix.

        With an empty vocabulary the result has zero columns.
        """
        return self.transform_tokens([tokenize(message) for message in messages])

    def fit_transform(self, messages: Sequence[str]) -> np.ndarray:
        """Fit the vocabulary on ``messages`` and vectorise them."""
        return self.fit(messages).transform(messages)

    def transform_tokens(self, token_lists: Sequence[Sequence[str]]) -> np.ndarray:
        """Vectorise pre-tokenised messages (same semantics as :meth:`transform`)."""
        matrix = np.zeros((len(token_lists), len(self.vocabulary_)), dtype=float)
        for row, tokens in enumerate(token_lists):
            for token in tokens:
                column = self.vocabulary_.get(token)
                if column is not None:
                    matrix[row, column] += 1.0
        return np.minimum(matrix, 1.0) if self.binary else matrix


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity between two vectors; 0.0 if either is all-zero."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.size != b.size:
        raise ValidationError(f"vector sizes differ: {a.size} vs {b.size}")
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return float(np.dot(a, b) / (norm_a * norm_b))


def jaccard_similarity(a: Iterable[str], b: Iterable[str]) -> float:
    """Jaccard similarity between two token collections; 0.0 if both empty."""
    set_a = set(a)
    set_b = set(b)
    if not set_a and not set_b:
        return 0.0
    return len(set_a & set_b) / len(set_a | set_b)
