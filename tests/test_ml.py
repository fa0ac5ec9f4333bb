"""Unit and property tests for the ML substrate (:mod:`repro.ml`)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.loaders import training_pairs
from repro.ml.kmeans import average_similarity_to_center, kmeans, one_cluster_center
from repro.ml.logistic import LogisticRegression
from repro.ml.lstm import CharLSTMClassifier
from repro.ml.metrics_ml import accuracy, confusion_matrix, precision_recall_f1, roc_auc
from repro.ml.scaler import MinMaxScaler, StandardScaler
from repro.ml.text import (
    BagOfWordsVectorizer,
    cosine_similarity,
    jaccard_similarity,
    tokenize,
    vocabulary_from_messages,
)
from repro.utils.validation import ValidationError


class TestLogisticRegression:
    def _separable_data(self, n=200, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 2))
        y = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(int)
        return x, y

    def test_learns_separable_data(self):
        x, y = self._separable_data()
        model = LogisticRegression(n_iterations=800)
        model.fit(x, y)
        assert accuracy(y, model.predict(x)) > 0.9

    def test_probabilities_in_unit_interval(self):
        x, y = self._separable_data()
        model = LogisticRegression(n_iterations=300).fit(x, y)
        probabilities = model.predict_proba(x)
        assert np.all(probabilities >= 0) and np.all(probabilities <= 1)

    def test_predict_before_fit_raises(self):
        with pytest.raises(ValidationError):
            LogisticRegression().predict_proba(np.zeros((1, 2)))

    def test_feature_count_mismatch_raises(self):
        x, y = self._separable_data()
        model = LogisticRegression(n_iterations=100).fit(x, y)
        with pytest.raises(ValidationError):
            model.predict_proba(np.zeros((1, 5)))

    def test_rejects_non_binary_labels(self):
        with pytest.raises(ValidationError):
            LogisticRegression().fit(np.zeros((3, 1)), np.array([0, 1, 2]))

    def test_rejects_empty_training_set(self):
        with pytest.raises(ValidationError):
            LogisticRegression().fit(np.zeros((0, 2)), np.zeros(0))

    def test_single_class_training_does_not_crash(self):
        model = LogisticRegression(n_iterations=50)
        model.fit(np.random.default_rng(0).normal(size=(10, 2)), np.ones(10))
        assert np.all(model.predict_proba(np.zeros((2, 2))) >= 0)

    def test_balanced_weights_help_imbalanced_data(self):
        rng = np.random.default_rng(1)
        x = np.vstack([rng.normal(-1.0, 0.5, size=(190, 1)), rng.normal(1.0, 0.5, size=(10, 1))])
        y = np.concatenate([np.zeros(190), np.ones(10)])
        balanced = LogisticRegression(class_weight="balanced", n_iterations=500).fit(x, y)
        recall = precision_recall_f1(y, balanced.predict(x))["recall"]
        assert recall > 0.7

    def test_coefficients_roundtrip(self):
        x, y = self._separable_data(n=50)
        model = LogisticRegression(n_iterations=200).fit(x, y)
        exported = model.coefficients()
        rebuilt = LogisticRegression.from_coefficients(exported["weights"], exported["bias"])
        assert np.allclose(model.predict_proba(x), rebuilt.predict_proba(x))

    def test_decision_function_monotone_with_probability(self):
        x, y = self._separable_data(n=80)
        model = LogisticRegression(n_iterations=200).fit(x, y)
        logits = model.decision_function(x)
        probabilities = model.predict_proba(x)
        assert np.all(np.argsort(logits) == np.argsort(probabilities))

    def test_invalid_hyperparameters_rejected(self):
        with pytest.raises(ValidationError):
            LogisticRegression(learning_rate=0.0)
        with pytest.raises(ValidationError):
            LogisticRegression(l2=-1.0)
        with pytest.raises(ValidationError):
            LogisticRegression(class_weight="bogus")


def _reference_fit(model, features, labels):
    """The former LogisticRegression.fit loop: masked sigmoid, np.clip, np.mean."""

    def sigmoid(z):
        out = np.empty_like(z, dtype=float)
        positive = z >= 0
        out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
        exp_z = np.exp(z[~positive])
        out[~positive] = exp_z / (1.0 + exp_z)
        return out

    x = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float).ravel()
    n_samples = x.shape[0]
    weights = np.zeros(x.shape[1])
    bias = 0.0
    history = []
    sample_weights = model._sample_weights(y)
    previous_loss = np.inf
    for _ in range(int(model.n_iterations)):
        probabilities = sigmoid(x @ weights + bias)
        error = (probabilities - y) * sample_weights
        grad_w = x.T @ error / n_samples + model.l2 * weights
        grad_b = float(np.sum(error) / n_samples)
        weights -= model.learning_rate * grad_w
        bias -= model.learning_rate * grad_b
        clipped = np.clip(probabilities, 1e-12, 1.0 - 1e-12)
        nll = -np.mean(
            sample_weights * (y * np.log(clipped) + (1 - y) * np.log(1 - clipped))
        )
        loss = float(nll + 0.5 * model.l2 * float(np.dot(weights, weights)))
        history.append(loss)
        if abs(previous_loss - loss) < model.tol:
            break
        previous_loss = loss
    return weights, bias, history


def _fit_hex(weights, bias, history):
    return [float(w).hex() for w in weights], float(bias).hex(), [v.hex() for v in history]


@st.composite
def _logistic_problems(draw):
    """Features at scales up to huge logits, any label balance, any settings."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_samples = draw(st.integers(1, 120))
    scale = draw(st.sampled_from([0.1, 1.0, 30.0, 800.0]))
    x = rng.normal(scale=scale, size=(n_samples, draw(st.integers(1, 4))))
    y = (rng.random(n_samples) < draw(st.floats(0.0, 1.0))).astype(int)
    model = LogisticRegression(
        learning_rate=draw(st.sampled_from([0.05, 0.5, 3.0])),
        n_iterations=draw(st.integers(1, 300)),
        l2=draw(st.sampled_from([0.0, 1e-3, 0.1])),
        class_weight=draw(st.sampled_from([None, "balanced"])),
    )
    return model, x, y


class TestLogisticExactness:
    """fit is bit-for-bit the former loop (compared by float.hex)."""

    @given(problem=_logistic_problems())
    @settings(max_examples=200, deadline=None)
    def test_random_problems(self, problem):
        model, x, y = problem
        model.fit(x, y)
        assert _fit_hex(model.weights_, model.bias_, model.loss_history_) == _fit_hex(
            *_reference_fit(model, x, y)
        )

    def test_training_fit(self, fitted_initializer, dota2_dataset):
        predictor = fitted_initializer.model.predictor
        ((chat_log, highlights),) = training_pairs(dota2_dataset[:1])
        windows = predictor._windows_for(chat_log)
        x = predictor.extractor.feature_matrix(windows)[:, predictor.feature_set.column_indices]
        y = predictor.extractor.label_windows(
            windows, highlights, reaction_delay=predictor.reaction_delay
        )
        model = predictor.model
        assert _fit_hex(model.weights_, model.bias_, model.loss_history_) == _fit_hex(
            *_reference_fit(model, x, y)
        )


class TestKMeans:
    def test_one_cluster_center_is_mean(self):
        vectors = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(one_cluster_center(vectors), [0.5, 0.5])

    def test_identical_messages_have_similarity_one(self):
        vectors = np.tile(np.array([1.0, 1.0, 0.0]), (5, 1))
        assert average_similarity_to_center(vectors) == pytest.approx(1.0)

    def test_disjoint_messages_have_zero_loo_similarity(self):
        vectors = np.eye(4)
        assert average_similarity_to_center(vectors, exclude_self=True) == pytest.approx(0.0)

    def test_self_inclusive_similarity_higher_than_loo(self):
        vectors = np.eye(4)
        with_self = average_similarity_to_center(vectors, exclude_self=False)
        without_self = average_similarity_to_center(vectors, exclude_self=True)
        assert with_self > without_self

    def test_single_vector(self):
        assert average_similarity_to_center(np.array([[1.0, 0.0]])) == 0.0
        assert average_similarity_to_center(np.array([[1.0, 0.0]]), exclude_self=False) == 1.0

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError):
            average_similarity_to_center(np.zeros((0, 3)))

    def test_kmeans_k1_matches_center(self):
        vectors = np.random.default_rng(0).normal(size=(10, 3))
        centers, assignments = kmeans(vectors, k=1)
        assert np.allclose(centers[0], vectors.mean(axis=0))
        assert set(assignments.tolist()) == {0}

    def test_kmeans_separates_two_blobs(self):
        rng = np.random.default_rng(0)
        blob_a = rng.normal(loc=0.0, scale=0.1, size=(20, 2))
        blob_b = rng.normal(loc=5.0, scale=0.1, size=(20, 2))
        _, assignments = kmeans(np.vstack([blob_a, blob_b]), k=2, seed=1)
        assert len(set(assignments[:20].tolist())) == 1
        assert len(set(assignments[20:].tolist())) == 1
        assert assignments[0] != assignments[-1]

    def test_kmeans_too_few_vectors_rejected(self):
        with pytest.raises(ValidationError):
            kmeans(np.zeros((1, 2)), k=2)

    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=2, max_value=6),
    )
    @settings(max_examples=25, deadline=None)
    def test_similarity_bounded(self, n_messages, n_terms):
        rng = np.random.default_rng(n_messages * 13 + n_terms)
        vectors = (rng.random((n_messages, n_terms)) > 0.5).astype(float)
        if not vectors.any():
            vectors[0, 0] = 1.0
        value = average_similarity_to_center(vectors)
        assert -1e-9 <= value <= 1.0 + 1e-9


class TestScalers:
    def test_minmax_scales_to_unit_interval(self):
        data = np.array([[1.0, 10.0], [3.0, 20.0], [2.0, 30.0]])
        scaled = MinMaxScaler().fit_transform(data)
        assert scaled.min() >= 0.0 and scaled.max() <= 1.0
        assert scaled[0, 0] == 0.0 and scaled[1, 0] == 1.0

    def test_minmax_constant_column_maps_to_zero(self):
        data = np.array([[5.0, 1.0], [5.0, 2.0]])
        scaled = MinMaxScaler().fit_transform(data)
        assert np.all(scaled[:, 0] == 0.0)

    def test_minmax_clips_unseen_values(self):
        scaler = MinMaxScaler().fit(np.array([[0.0], [10.0]]))
        assert scaler.transform(np.array([[20.0]]))[0, 0] == 1.0
        assert scaler.transform(np.array([[-5.0]]))[0, 0] == 0.0

    def test_minmax_unfitted_raises(self):
        with pytest.raises(ValidationError):
            MinMaxScaler().transform(np.zeros((1, 1)))

    def test_standard_scaler_zero_mean_unit_std(self):
        data = np.random.default_rng(0).normal(5.0, 3.0, size=(200, 2))
        scaled = StandardScaler().fit_transform(data)
        assert np.allclose(scaled.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(scaled.std(axis=0), 1.0, atol=1e-9)

    def test_standard_scaler_constant_column(self):
        data = np.array([[2.0], [2.0], [2.0]])
        assert np.all(StandardScaler().fit_transform(data) == 0.0)

    def test_feature_count_mismatch(self):
        scaler = MinMaxScaler().fit(np.zeros((2, 3)))
        with pytest.raises(ValidationError):
            scaler.transform(np.zeros((2, 2)))


class TestText:
    def test_tokenize_lowercases_and_splits(self):
        assert tokenize("KILL!! PogChamp") == ["kill", "!!", "pogchamp"]

    def test_tokenize_empty(self):
        assert tokenize("") == []

    def test_tokenize_rejects_non_string(self):
        with pytest.raises(ValidationError):
            tokenize(123)  # type: ignore[arg-type]

    def test_vocabulary_first_seen_order(self):
        vocabulary = vocabulary_from_messages(["b a", "a c"])
        assert vocabulary == {"b": 0, "a": 1, "c": 2}

    def test_bag_of_words_binary(self):
        matrix = BagOfWordsVectorizer().fit_transform(["gg gg wp", "wp"])
        assert matrix.shape == (2, 2)
        assert matrix[0].tolist() == [1.0, 1.0]
        assert matrix[1].tolist() == [0.0, 1.0]

    def test_bag_of_words_counts(self):
        matrix = BagOfWordsVectorizer(binary=False).fit_transform(["gg gg wp"])
        assert matrix[0, 0] == 2.0

    def test_out_of_vocabulary_ignored(self):
        vectorizer = BagOfWordsVectorizer().fit(["gg"])
        matrix = vectorizer.transform(["brand new words"])
        assert matrix.sum() == 0.0

    def test_cosine_similarity_basics(self):
        assert cosine_similarity([1, 0], [1, 0]) == pytest.approx(1.0)
        assert cosine_similarity([1, 0], [0, 1]) == pytest.approx(0.0)
        assert cosine_similarity([0, 0], [1, 1]) == 0.0

    def test_cosine_similarity_size_mismatch(self):
        with pytest.raises(ValidationError):
            cosine_similarity([1, 2], [1, 2, 3])

    def test_jaccard_similarity(self):
        assert jaccard_similarity(["a", "b"], ["b", "c"]) == pytest.approx(1 / 3)
        assert jaccard_similarity([], []) == 0.0


class TestMetricsML:
    def test_accuracy(self):
        assert accuracy([1, 0, 1], [1, 0, 0]) == pytest.approx(2 / 3)

    def test_confusion_matrix(self):
        counts = confusion_matrix([1, 1, 0, 0], [1, 0, 0, 1])
        assert counts == {"tp": 1, "fn": 1, "tn": 1, "fp": 1}

    def test_precision_recall_f1_degenerate(self):
        scores = precision_recall_f1([0, 0], [0, 0])
        assert scores == {"precision": 0.0, "recall": 0.0, "f1": 0.0}

    def test_roc_auc_perfect_ranking(self):
        assert roc_auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == pytest.approx(1.0)

    def test_roc_auc_random_ranking(self):
        assert roc_auc([0, 1], [0.5, 0.5]) == pytest.approx(0.5)

    def test_roc_auc_single_class(self):
        assert roc_auc([1, 1], [0.2, 0.9]) == 0.5

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            accuracy([1], [1, 0])


class TestCharLSTM:
    def test_learns_simple_vocabulary_split(self):
        positives = ["pog pog pog", "kill kill", "pog kill pog"] * 6
        negatives = ["what item should he buy", "anyone know the score", "so boring today"] * 6
        texts = positives + negatives
        labels = [1] * len(positives) + [0] * len(negatives)
        model = CharLSTMClassifier(hidden_size=12, n_epochs=6, seed=3)
        model.fit(texts, labels)
        predictions = model.predict(["pog pog kill", "what should he buy today"])
        assert predictions[0] == 1
        assert predictions[1] == 0

    def test_probabilities_bounded(self):
        model = CharLSTMClassifier(hidden_size=8, n_epochs=2, seed=0)
        model.fit(["aaa", "bbb", "aaa", "bbb"], [1, 0, 1, 0])
        probabilities = model.predict_proba(["aaa", "ccc", ""])
        assert np.all(probabilities >= 0) and np.all(probabilities <= 1)

    def test_records_training_time(self):
        model = CharLSTMClassifier(hidden_size=6, n_epochs=1, seed=0)
        model.fit(["aa", "bb"], [1, 0])
        assert model.training_seconds_ > 0

    def test_unfitted_predict_raises(self):
        with pytest.raises(ValidationError):
            CharLSTMClassifier().predict_proba(["x"])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValidationError):
            CharLSTMClassifier().fit(["a"], [1, 0])
