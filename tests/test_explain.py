import numpy as np
import pytest

from conftest import make_interaction
from ktrace.errors import UsageError
from ktrace import explain as ex
from ktrace import features as ft
from ktrace import linear_models as lm
from ktrace import prep
from ktrace import synth


def pfa_layout():
    return ft.FeatureLayout(["q0", "q1"], [1, 2], ft.FeatureConfig("pfa"))


def best_lr_layout():
    return ft.FeatureLayout(["q0", "q1"], [1, 2], ft.FeatureConfig("best_lr"))


class TestPerturbSample:
    def test_zero_flip_zero_noise_is_identity(self):
        layout = pfa_layout()
        cols = np.array([layout.block("skill").offset,
                         layout.block("skill_attempts@inf").offset])
        config = ex.LimeConfig(n_perturbations=10, flip_prob=0.0, noise_scale=0.0)
        P = ex.perturb_sample(cols, np.array([1.0, 1.5]), layout, config, seed=1)
        assert P.shape == (10, 2)
        assert np.allclose(P, [[1.0, 1.5]] * 10)

    def test_flip_prob_one_inverts_every_onehot(self):
        layout = pfa_layout()
        cols = np.array([layout.block("skill").offset])
        config = ex.LimeConfig(n_perturbations=20, flip_prob=1.0)
        P = ex.perturb_sample(cols, np.array([1.0]), layout, config, seed=2)
        assert np.allclose(P, 0.0)

    def test_count_noise_mean_and_truncation(self):
        layout = pfa_layout()
        col = layout.block("skill_attempts@inf").offset
        config = ex.LimeConfig(n_perturbations=20_000, flip_prob=0.0, noise_scale=0.5)
        P = ex.perturb_sample(np.array([col]), np.array([2.0]), layout, config, seed=3)
        assert P.min() >= 0.0
        assert P.mean() == pytest.approx(2.0, abs=0.02)

    def test_deterministic_per_seed(self):
        layout = pfa_layout()
        cols = np.array([layout.block("skill").offset, layout.block("skill_wins@inf").offset])
        vals = np.array([1.0, 0.7])
        config = ex.LimeConfig(n_perturbations=50)
        a = ex.perturb_sample(cols, vals, layout, config, seed=9)
        b = ex.perturb_sample(cols, vals, layout, config, seed=9)
        assert np.array_equal(a, b)

    def test_too_few_perturbations_rejected(self):
        with pytest.raises(UsageError):
            ex.LimeConfig(n_perturbations=1)


class TestPearson:
    def test_known_correlation_oracle(self, rng):
        x = rng.normal(size=500)
        noise = rng.normal(size=500)
        y = 2 * x + 0.5 * noise
        P = np.column_stack([x, -x, noise])
        out = ex._pearson_columns(P, y)
        expected = [np.corrcoef(P[:, j], y)[0, 1] for j in range(3)]
        assert np.allclose(out, expected)
        assert out[0] > 0.9 and out[1] < -0.9

    def test_zero_variance_column_is_zero(self, rng):
        y = rng.normal(size=50)
        P = np.column_stack([np.full(50, 3.0), y])
        out = ex._pearson_columns(P, y)
        assert out[0] == 0.0
        assert out[1] == pytest.approx(1.0)


class TestLimeCorrelations:
    def test_sign_follows_weight_sign(self):
        layout = pfa_layout()
        att = layout.block("skill_attempts@inf").offset
        win = layout.block("skill_wins@inf").offset
        w = np.zeros(layout.width)
        w[att] = -2.0
        w[win] = 2.0
        model = lm.LinearModel(weights=w, bias=0.0)
        cols = np.array([att, win])
        config = ex.LimeConfig(n_perturbations=400, flip_prob=0.0, noise_scale=0.5)
        corrs = ex.lime_correlations(model, cols, np.ones(2), layout, config, seed=4)
        by_col = dict(zip(cols, corrs))
        assert by_col[att] < -0.5
        assert by_col[win] > 0.5

    def test_weight_negation_antisymmetry(self):
        layout = pfa_layout()
        att = layout.block("skill_attempts@inf").offset
        w = np.zeros(layout.width)
        w[att] = 1.5
        cols, vals = np.array([att]), np.ones(1)
        config = ex.LimeConfig(n_perturbations=300, flip_prob=0.0)
        c_pos = ex.lime_correlations(lm.LinearModel(w, 0.0), cols, vals, layout, config, seed=5)
        c_neg = ex.lime_correlations(lm.LinearModel(-w, 0.0), cols, vals, layout, config, seed=5)
        assert c_pos[0] == pytest.approx(-c_neg[0], abs=1e-6)

    def test_constant_predictions_yield_zero_vector_with_warning(self):
        layout = pfa_layout()
        model = lm.LinearModel(weights=np.zeros(layout.width), bias=0.3)
        cols = np.array([layout.block("skill").offset])
        config = ex.LimeConfig(n_perturbations=50)
        with pytest.warns(UserWarning):
            corrs = ex.lime_correlations(model, cols, np.ones(1), layout, config, seed=6)
        assert np.array_equal(corrs, np.zeros(1))


class TestAggregate:
    def test_hand_computed_cells(self):
        layout = pfa_layout()
        sk = layout.block("skill").offset
        att = layout.block("skill_attempts@inf").offset
        per_sample = [
            (np.array([sk, att]), np.array([0.8, -0.4])),   # pred ok
            (np.array([sk, att]), np.array([0.6, 0.2])),    # pred ok
            (np.array([sk]), np.array([-0.5])),             # pred wrong
        ]
        predictions = [0.9, 0.8, 0.9]
        labels = [True, True, False]
        report = ex.aggregate_importances(per_sample, predictions, labels, layout)
        ok = report.cells["correct"]
        bad = report.cells["incorrect"]
        assert report.n_samples == {"correct": 2, "incorrect": 1}
        assert ok["kc"].support == pytest.approx((0.8 + 0.6) / 2)
        assert ok["kc"].contradict is None
        assert ok["attempts"].support == pytest.approx(0.2)
        assert ok["attempts"].contradict == pytest.approx(-0.4)
        assert bad["kc"].support is None
        assert bad["kc"].contradict == pytest.approx(-0.5)
        assert bad["attempts"].n_pairs == 0
        # skill importance: mean over the three skill-column correlations
        assert report.skill_importance[1] == pytest.approx((0.8 + 0.6 - 0.5) / 3)

    def test_support_nonnegative_contradict_nonpositive(self):
        config = synth.SynthConfig(n_learners=40, n_items=20, n_skills=5,
                                   max_interactions=40, seed=21)
        dataset, _ = synth.generate(config)
        train, test = prep.learner_split(dataset, 0.2, seed=0)
        layout = ft.layout_for(train, ft.FeatureConfig("best_lr"))
        model = lm.fit_logistic_matrix(ft.extract(train.learners, layout), l2=0.5)
        report = ex.explain_model(
            model, test, layout,
            ex.LimeConfig(n_perturbations=40, seed=1, n_test_learners_sampled=5),
        )
        for bucket in ex.BUCKETS:
            for g in ex.GROUP_ORDER:
                gi = report.cells[bucket][g]
                if gi.support is not None:
                    assert gi.support >= 0.0
                if gi.contradict is not None:
                    assert gi.contradict <= 0.0

    def test_table_shape(self):
        layout = pfa_layout()
        report = ex.aggregate_importances([], [], [], layout)
        table = report.to_table()
        lines = table.strip().split("\n")
        assert len(lines) == 5  # header + 4 groups
        assert lines[1].startswith("KCs (One hot encoded)")
        assert "absent" in lines[1]

    def test_json_round_trip_stable(self):
        layout = pfa_layout()
        sk = layout.block("skill").offset
        report = ex.aggregate_importances(
            [(np.array([sk]), np.array([0.5]))], [0.9], [True], layout
        )
        assert report.to_json() == ex.aggregate_importances(
            [(np.array([sk]), np.array([0.5]))], [0.9], [True], layout
        ).to_json()


class TestSkillDifficulty:
    def dataset(self):
        inter = []
        # skill 1: 1/4 correct; skill 2: 3/4 correct; skill 3: 2/4
        plan = [
            ((1,), True), ((1,), False), ((1,), False), ((1,), False),
            ((2,), True), ((2,), True), ((2,), True), ((2,), False),
            ((3,), True), ((3,), True), ((3,), False), ((3,), False),
        ]
        for i, (tags, ok) in enumerate(plan):
            inter.append(make_interaction(timestamp_ms=i * 1000, kc_tags=tags,
                                          correct=ok))
        return prep.preprocess({"a": inter})

    def test_hand_counted_ratios_sorted_hardest_first(self):
        rows = ex.skill_difficulty(self.dataset())
        assert [r.skill for r in rows] == [1, 3, 2]
        assert rows[0].correctness_ratio == pytest.approx(0.25)
        assert rows[1].n_interactions == 4 and rows[1].n_correct == 2
        assert rows[2].correctness_ratio == pytest.approx(0.75)

    def test_importance_join(self):
        rows = ex.skill_difficulty(self.dataset(), {1: -0.3, 2: 0.4})
        assert rows[0].lime_importance == pytest.approx(-0.3)
        assert rows[1].lime_importance is None

    def test_table_and_csv_render(self):
        rows = ex.skill_difficulty(self.dataset(), {1: -0.3})
        table = ex.skill_difficulty_table(rows, top_k=2)
        assert table.startswith("rank\t")
        assert len(table.strip().split("\n")) == 3
        csv_text = ex.skill_difficulty_csv(rows)
        assert csv_text.splitlines()[1].startswith("1,4,1,0.25")

    def test_explain_rerun_byte_identical(self):
        config = synth.SynthConfig(n_learners=30, n_items=15, n_skills=4,
                                   max_interactions=30, seed=8)
        dataset, _ = synth.generate(config)
        train, test = prep.learner_split(dataset, 0.2, seed=0)
        layout = ft.layout_for(train, ft.FeatureConfig("pfa"))
        model = lm.fit_logistic_matrix(ft.extract(train.learners, layout), l2=0.5)
        lime = ex.LimeConfig(n_perturbations=30, seed=2, n_test_learners_sampled=4)
        a = ex.explain_model(model, test, layout, lime).to_json()
        b = ex.explain_model(model, test, layout, lime).to_json()
        assert a == b
