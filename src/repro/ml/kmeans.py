"""One-cluster k-means used by the message-similarity feature.

The paper represents each chat message in a sliding window as a binary
bag-of-words vector, runs one-cluster k-means to find the centre of the
window's messages, and defines *message similarity* as the average cosine
similarity of each message to that centre.  With a single cluster, k-means
reduces to computing the mean vector, but we keep the iterative formulation
(mean → assignment → mean) so the module generalises to ``k > 1`` and matches
the description in Section IV-B of the paper.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import ValidationError, require_positive

__all__ = ["one_cluster_center", "average_similarity_to_center", "similarity_kernel", "kmeans"]


def one_cluster_center(vectors: np.ndarray) -> np.ndarray:
    """Return the centroid of ``vectors`` (the k=1 k-means solution).

    Parameters
    ----------
    vectors:
        Array of shape ``(n_messages, n_terms)``.
    """
    data = np.asarray(vectors, dtype=float)
    if data.ndim != 2:
        raise ValidationError("vectors must be a 2-D array")
    if data.shape[0] == 0:
        raise ValidationError("cannot compute the centre of zero vectors")
    return data.mean(axis=0)


def average_similarity_to_center(vectors: np.ndarray, exclude_self: bool = True) -> float:
    """Return the mean cosine similarity of each vector to the k=1 centroid.

    This is the *message similarity* feature of the Highlight Initializer:
    close to 1 when all messages in the window repeat the same few tokens
    (typical highlight reaction spam), lower when the window contains
    unrelated chatter.  Zero vectors (empty messages) contribute a similarity
    of 0.

    With ``exclude_self=True`` (default) each message is compared against the
    centre of the *other* messages in the window.  Including a message in its
    own centre makes any window of ``m`` mutually unrelated messages score
    about ``1/sqrt(m)`` — i.e. the feature degenerates into an inverse
    message count and stops measuring whether viewers are echoing each other.
    The leave-one-out form keeps the paper's intent ("are the messages about
    the same topic?") while removing that artefact; a window with a single
    message scores 0 because there is nothing to agree with.
    """
    data = np.ascontiguousarray(vectors, dtype=float)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ValidationError("vectors must be a non-empty 2-D array")
    if data.shape[0] == 1:
        return 0.0 if exclude_self else 1.0
    return similarity_kernel(data, exclude_self)


def similarity_kernel(data: np.ndarray, exclude_self: bool = True) -> float:
    """:func:`average_similarity_to_center` without its conversion and checks.

    ``data`` must be a C-contiguous float array with two rows or more.
    """
    n_messages = data.shape[0]
    if exclude_self:
        centers = (data.sum(axis=0) - data) / (n_messages - 1)
    else:
        centers = one_cluster_center(data)
    # One pass for every message at each window seal, bit-identical to a
    # per-row cosine_similarity: np.vecdot runs the same per-row DOUBLE_dot
    # kernel as np.dot (np.linalg.norm of a vector is sqrt(dot(x, x))), so
    # every reduction keeps its summation order; the rest is elementwise and
    # the final sum / n is exactly what np.mean computes.
    row_norms = np.sqrt(np.vecdot(data, data))
    center_norms = np.sqrt(np.vecdot(centers, centers))
    scored = (row_norms != 0.0) & (center_norms != 0.0)
    similarities = np.zeros(n_messages)
    np.divide(
        np.vecdot(data, centers), row_norms * center_norms, out=similarities, where=scored
    )
    return float(similarities.sum() / n_messages)


def kmeans(
    vectors: np.ndarray,
    k: int,
    n_iterations: int = 50,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm; returns ``(centers, assignments)``.

    Only ``k == 1`` is used by the Highlight Initializer, but the general
    implementation is exercised by tests and available for extensions (e.g.
    clustering windows into topics).
    """
    data = np.asarray(vectors, dtype=float)
    if data.ndim != 2:
        raise ValidationError("vectors must be a 2-D array")
    require_positive(k, "k")
    if data.shape[0] < k:
        raise ValidationError(f"need at least k={k} vectors, got {data.shape[0]}")
    if k == 1:
        center = one_cluster_center(data)
        return center.reshape(1, -1), np.zeros(data.shape[0], dtype=int)

    rng = np.random.default_rng(seed)
    centers = data[rng.choice(data.shape[0], size=k, replace=False)].copy()
    assignments = np.zeros(data.shape[0], dtype=int)
    for _ in range(int(n_iterations)):
        distances = np.linalg.norm(data[:, None, :] - centers[None, :, :], axis=2)
        new_assignments = np.argmin(distances, axis=1)
        if np.array_equal(new_assignments, assignments) and _ > 0:
            break
        assignments = new_assignments
        for cluster in range(k):
            members = data[assignments == cluster]
            if members.shape[0] > 0:
                centers[cluster] = members.mean(axis=0)
    return centers, assignments
