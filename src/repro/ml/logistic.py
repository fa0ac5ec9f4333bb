"""Binary logistic regression on numpy.

This is the model the Highlight Initializer uses to combine the three general
chat features (message number, message length, message similarity) into a
probability that a sliding window is talking about a highlight.  The paper
uses scikit-learn; we provide an equivalent full-batch gradient-descent
implementation with L2 regularisation, deterministic initialisation and the
familiar ``fit`` / ``predict_proba`` / ``predict`` API.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.validation import ValidationError, require_positive

__all__ = ["LogisticRegression"]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid: ``exp(-|z|)`` never overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


@dataclass
class LogisticRegression:
    """Binary logistic regression trained by full-batch gradient descent.

    Parameters
    ----------
    learning_rate:
        Step size for gradient descent.
    n_iterations:
        Number of full-batch gradient steps.
    l2:
        L2 regularisation strength applied to the weights (not the bias).
    class_weight:
        ``None`` for unweighted training or ``"balanced"`` to reweight
        examples inversely to class frequency — useful because highlight
        windows are a small minority of all sliding windows.
    tol:
        Early-stopping tolerance on the change of the loss between epochs.
    """

    learning_rate: float = 0.5
    n_iterations: int = 2000
    l2: float = 1e-3
    class_weight: str | None = "balanced"
    tol: float = 1e-8

    weights_: np.ndarray | None = field(default=None, repr=False)
    bias_: float = field(default=0.0, repr=False)
    loss_history_: list[float] = field(default_factory=list, repr=False)
    n_features_: int | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        require_positive(self.learning_rate, "learning_rate")
        require_positive(self.n_iterations, "n_iterations")
        if self.l2 < 0:
            raise ValidationError(f"l2 must be non-negative, got {self.l2!r}")
        if self.class_weight not in (None, "balanced"):
            raise ValidationError("class_weight must be None or 'balanced'")

    # ------------------------------------------------------------------ fit
    def fit(self, features: np.ndarray, labels: np.ndarray) -> "LogisticRegression":
        """Fit the model on a feature matrix and binary labels.

        Parameters
        ----------
        features:
            Array of shape ``(n_samples, n_features)``.
        labels:
            Array of shape ``(n_samples,)`` containing 0/1 labels.
        """
        x = np.asarray(features, dtype=float)
        y = np.asarray(labels, dtype=float).ravel()
        if x.ndim != 2:
            raise ValidationError("features must be a 2-D array")
        if x.shape[0] != y.shape[0]:
            raise ValidationError(
                f"features has {x.shape[0]} rows but labels has {y.shape[0]} entries"
            )
        if x.shape[0] == 0:
            raise ValidationError("cannot fit on an empty training set")
        if not np.isin(y, (0.0, 1.0)).all():
            raise ValidationError("labels must be binary (0 or 1)")

        n_samples, n_features = x.shape
        self.n_features_ = n_features
        self.weights_ = np.zeros(n_features, dtype=float)
        self.bias_ = 0.0
        self.loss_history_ = []

        sample_weights = self._sample_weights(y)
        negatives = 1 - y
        previous_loss = np.inf
        for _ in range(int(self.n_iterations)):
            logits = x @ self.weights_ + self.bias_
            probabilities = _sigmoid(logits)
            error = (probabilities - y) * sample_weights
            grad_w = x.T @ error / n_samples + self.l2 * self.weights_
            grad_b = float(np.add.reduce(error) / n_samples)
            self.weights_ -= self.learning_rate * grad_w
            self.bias_ -= self.learning_rate * grad_b

            # The weighted negative log-likelihood plus the L2 penalty.
            clipped = np.minimum(np.maximum(probabilities, 1e-12), 1.0 - 1e-12)
            terms = sample_weights * (y * np.log(clipped) + negatives * np.log(1 - clipped))
            penalty = 0.5 * self.l2 * float(np.dot(self.weights_, self.weights_))
            loss = float(-(np.add.reduce(terms) / n_samples) + penalty)
            self.loss_history_.append(loss)
            if abs(previous_loss - loss) < self.tol:
                break
            previous_loss = loss
        return self

    def _sample_weights(self, y: np.ndarray) -> np.ndarray:
        """Per-example weights implementing the ``balanced`` scheme."""
        if self.class_weight is None:
            return np.ones_like(y)
        n = y.size
        n_positive = float(np.sum(y))
        n_negative = n - n_positive
        if n_positive == 0 or n_negative == 0:
            # Degenerate single-class training set: fall back to uniform
            # weights rather than dividing by zero.
            return np.ones_like(y)
        weight_positive = n / (2.0 * n_positive)
        weight_negative = n / (2.0 * n_negative)
        return np.where(y > 0.5, weight_positive, weight_negative)

    # -------------------------------------------------------------- predict
    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Return the probability of the positive class for each row."""
        self._check_fitted()
        x = np.asarray(features, dtype=float)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        if x.shape[1] != self.n_features_:
            raise ValidationError(
                f"expected {self.n_features_} features, got {x.shape[1]}"
            )
        return _sigmoid(x @ self.weights_ + self.bias_)

    def predict(self, features: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Return hard 0/1 predictions using ``threshold``."""
        return (self.predict_proba(features) >= threshold).astype(int)

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Return raw logits (useful for ranking windows)."""
        self._check_fitted()
        x = np.asarray(features, dtype=float)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        return x @ self.weights_ + self.bias_

    def _check_fitted(self) -> None:
        if self.weights_ is None:
            raise ValidationError("model is not fitted; call fit() first")

    # ------------------------------------------------------------- exports
    def coefficients(self) -> dict[str, object]:
        """Return learned parameters as a plain dictionary (for persistence)."""
        self._check_fitted()
        return {"weights": self.weights_.tolist(), "bias": self.bias_}

    @classmethod
    def from_coefficients(cls, weights: list[float], bias: float) -> "LogisticRegression":
        """Rebuild a fitted model from exported coefficients."""
        model = cls()
        model.weights_ = np.asarray(weights, dtype=float)
        model.bias_ = float(bias)
        model.n_features_ = model.weights_.size
        return model
