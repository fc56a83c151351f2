import math

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import make_interaction, random_learner_histories
from ktrace.errors import DataError
from ktrace import features as ft
from ktrace import linear_models as lm


def csr(rows, width):
    m = sp.lil_matrix((len(rows), width))
    for i, row in enumerate(rows):
        for j, v in row.items():
            m[i, j] = v
    return m.tocsr()


class TestBaseline:
    def learners(self):
        return {
            "a": [
                make_interaction(question_id="q1", correct=True),
                make_interaction(question_id="q1", correct=False),
                make_interaction(question_id="q2", correct=True),
            ],
            "b": [make_interaction(question_id="q1", correct=True)],
        }

    def test_hand_counted_frequencies(self):
        model = lm.fit_baseline(self.learners())
        assert model.predict("q1") == pytest.approx(2 / 3)
        assert model.predict("q2") == pytest.approx(1.0)

    def test_unseen_item_falls_back_to_global_mean(self):
        model = lm.fit_baseline(self.learners())
        assert model.predict("q404") == pytest.approx(3 / 4)

    def test_empty_training_set_errors(self):
        with pytest.raises(DataError):
            lm.fit_baseline({})

    def test_json_round_trip(self):
        model = lm.fit_baseline(self.learners())
        back = lm.BaselineModel.from_json(model.to_json())
        assert back.item_probs == model.item_probs
        assert back.global_mean == model.global_mean


class TestPredict:
    def test_sigmoid_zero_is_half(self):
        model = lm.LinearModel(weights=np.zeros(3), bias=0.0)
        assert model.predict_matrix(csr([{0: 1.0}], 3))[0] == 0.5

    def test_sigmoid_ln3_is_three_quarters(self):
        model = lm.LinearModel(weights=np.array([math.log(3.0)]), bias=0.0)
        assert model.predict_matrix(csr([{0: 1.0}], 1))[0] == pytest.approx(0.75)

    def test_sign_negation_symmetry(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=5)
        X = csr([{1: 0.5, 3: 2.0}], 5)
        p = lm.LinearModel(w, 0.7).predict_matrix(X)[0]
        q = lm.LinearModel(-w, -0.7).predict_matrix(X)[0]
        assert p + q == pytest.approx(1.0)

    def test_out_of_range_index_errors(self):
        model = lm.LinearModel(weights=np.zeros(2), bias=0.0)
        with pytest.raises(DataError):
            model.predict_matrix(csr([{5: 1.0}], 6))


class TestLossAndGrad:
    def test_zero_weights_loss_is_ln2(self):
        X = csr([{0: 1.0}, {1: 1.0}], 2)
        y = np.array([1.0, 0.0])
        loss, _ = lm.loss_and_grad(np.zeros(3), X, y, 0.0)
        assert loss == pytest.approx(math.log(2.0))

    def test_finite_difference_oracle(self, rng):
        n, d = 40, 7
        X = sp.csr_matrix(rng.normal(size=(n, d)) * (rng.random((n, d)) < 0.4))
        y = (rng.random(n) < 0.5).astype(float)
        wb = rng.normal(size=d + 1) * 0.5
        _, grad = lm.loss_and_grad(wb, X, y, l2=0.3)
        eps = 1e-6
        for k in range(d + 1):
            e = np.zeros(d + 1)
            e[k] = eps
            fp = lm.loss_and_grad(wb + e, X, y, 0.3)[0]
            fm = lm.loss_and_grad(wb - e, X, y, 0.3)[0]
            fd = (fp - fm) / (2 * eps)
            assert abs(fd - grad[k]) <= 1e-6 * max(1.0, abs(fd))

    def test_l2_excludes_bias(self):
        X = csr([{0: 1.0}], 1)
        y = np.array([1.0])
        wb = np.array([0.0, 5.0])  # big bias, zero weight
        loss0, _ = lm.loss_and_grad(wb, X, y, 0.0)
        loss1, _ = lm.loss_and_grad(wb, X, y, 100.0)
        assert loss0 == loss1


class TestFitLogistic:
    def test_saturated_model_recovers_rate(self):
        # one binary feature; P(y=1 | x=1) = 0.75 exactly by construction
        rows = [{0: 1.0}] * 8 + [{1: 1.0}] * 8
        y = np.array([1, 1, 1, 0] * 2 + [1, 0, 0, 0] * 2, dtype=float)
        model = lm.fit_logistic(csr(rows, 2), y, l2=0.0, max_iter=500, tol=1e-10)
        from scipy.special import expit

        p_a = expit(model.weights[0] + model.bias)
        p_b = expit(model.weights[1] + model.bias)
        assert p_a == pytest.approx(0.75, abs=1e-3)
        assert p_b == pytest.approx(0.25, abs=1e-3)

    def test_separable_data_finite_weights_with_l2(self):
        rows = [{0: 1.0} for _ in range(10)] + [{1: 1.0} for _ in range(10)]
        y = np.array([1.0] * 10 + [0.0] * 10)
        model = lm.fit_logistic(csr(rows, 2), y, l2=0.5, max_iter=500)
        assert np.all(np.isfinite(model.weights))
        assert np.max(np.abs(model.weights)) < 50

    def test_loss_trace_non_increasing(self, rng):
        n, d = 200, 10
        X = sp.csr_matrix((rng.random((n, d)) < 0.3) * 1.0)
        y = (rng.random(n) < 0.5).astype(float)
        model = lm.fit_logistic(X, y, l2=0.1, max_iter=200)
        trace = model.report.loss_trace
        assert len(trace) >= 2
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_one_loss_evaluation_per_step(self, rng, monkeypatch):
        # the loss trace comes from the optimizer's own evaluations: fewer
        # than two loss_and_grad calls per iteration, and trace[i] is the
        # loss at iterate i
        n, d = 200, 10
        X = sp.csr_matrix((rng.random((n, d)) < 0.3) * 1.0)
        y = (rng.random(n) < 0.5).astype(float)
        real = lm.loss_and_grad
        calls = 0

        def counting(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(lm, "loss_and_grad", counting)
        model = lm.fit_logistic(X, y, l2=0.1, max_iter=200)
        n_iter = model.report.n_iter
        assert n_iter >= 5
        assert calls < 2 * n_iter
        assert len(model.report.loss_trace) == n_iter
        wb = np.r_[model.weights, model.bias]
        assert model.report.loss_trace[-1] == real(wb, X, y, 0.1)[0]

    def test_single_class_without_l2_errors(self):
        with pytest.raises(DataError):
            lm.fit_logistic(csr([{0: 1.0}], 1), np.array([1.0]), l2=0.0)

    def test_negative_l2_errors(self):
        with pytest.raises(DataError):
            lm.fit_logistic(csr([{0: 1.0}], 1), np.array([1.0]), l2=-1.0)

    def test_row_permutation_stability(self, rng):
        n, d = 100, 6
        dense = (rng.random((n, d)) < 0.4) * rng.random((n, d))
        y = (rng.random(n) < 0.5).astype(float)
        perm = rng.permutation(n)
        a = lm.fit_logistic(sp.csr_matrix(dense), y, l2=0.2, max_iter=300, tol=1e-9)
        b = lm.fit_logistic(sp.csr_matrix(dense[perm]), y[perm], l2=0.2,
                            max_iter=300, tol=1e-9)
        assert np.allclose(a.weights, b.weights, atol=1e-4)
        assert a.bias == pytest.approx(b.bias, abs=1e-4)


class TestItemOnlyEquivalence:
    def test_item_features_match_baseline_frequencies(self, rng):
        """An unregularized item-one-hot logistic model is the saturated
        per-item model, so its probabilities equal observed frequencies."""
        learners = random_learner_histories(rng, 8, 200, n_items=5)
        layout = ft.FeatureLayout([f"q{i}" for i in range(5)], list(range(8)),
                                  ft.FeatureConfig("irt"))
        matrix = ft.extract(learners, layout)
        model = lm.fit_logistic_matrix(matrix, l2=0.0, max_iter=1000, tol=1e-10)
        baseline = lm.fit_baseline(learners)
        probs = model.predict_matrix(matrix.X)
        X = matrix.X
        for i, p in enumerate(probs):
            (col,) = X.indices[X.indptr[i]:X.indptr[i + 1]]
            qid = layout.item_vocab[col - layout.block("item").offset]
            freq = baseline.item_probs[qid]
            if freq in (0.0, 1.0):
                continue  # saturated cells diverge without regularization
            assert p == pytest.approx(freq, abs=5e-3)


class TestLinearModelSerialization:
    def test_json_round_trip(self, rng):
        model = lm.LinearModel(
            weights=np.array([0.0, -1.5, 0.0, 2.25]),
            bias=0.125,
            config=ft.FeatureConfig("pfa"),
            report=lm.ConvergenceReport(12, 1e-7, True),
        )
        back = lm.LinearModel.from_json(model.to_json())
        assert np.array_equal(back.weights, model.weights)
        assert back.bias == model.bias
        assert back.config == model.config
        assert back.report.n_iter == 12 and back.report.converged
