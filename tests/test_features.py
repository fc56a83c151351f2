import math

import numpy as np
import pytest

from conftest import (
    brute_force_features,
    make_interaction,
    random_learner_histories,
    row_entries,
)
from ktrace.errors import UsageError
from ktrace import features as ft

HOUR = ft.MS_HOUR
DAY = ft.MS_DAY
INF = math.inf


def layout_for(family, items=("q0", "q1", "q2"), skills=(1, 2, 3, 7), windows=None):
    config = (
        ft.FeatureConfig(family)
        if windows is None
        else ft.FeatureConfig(family, windows=tuple(windows))
    )
    return ft.FeatureLayout(list(items), list(skills), config)


def rows_for(learners, layout):
    matrix = ft.extract(learners, layout)
    return [row_entries(matrix, i) for i in range(matrix.n_rows)]


def entry_dict(row):
    return dict(row)


class TestScaleCount:
    def test_zero(self):
        assert ft.scale_count(0) == 0.0

    def test_ln_two(self):
        assert ft.scale_count(1) == pytest.approx(0.6931, abs=1e-4)

    def test_analytic_inverse(self):
        assert ft.scale_count(math.e - 1) == pytest.approx(1.0)

    def test_negative_errors(self):
        with pytest.raises(UsageError):
            ft.scale_count(-1)

    def test_batch_scaling_equals_scale_count(self):
        # one learner answering one item 5000 times: the k-th row's prefix
        # total_attempts is k; includes counts where math.log1p and
        # np.log1p have been seen to differ by an ulp (2, 13, 47, 73, 184)
        layout = layout_for("best_lr")
        n = 5000
        inter = [make_interaction(timestamp_ms=t) for t in range(n)]
        X = ft.extract({"a": inter}, layout).X
        col = X[:, layout.block("total_attempts").offset].toarray().ravel()
        assert col.tolist() == [ft.scale_count(k) for k in range(n)]


class TestIrtEncoding:
    def test_one_hot_single_entry(self):
        layout = layout_for("irt")
        rows = rows_for({"a": [make_interaction(question_id="q2")]}, layout)
        assert rows[0] == ((2, 1.0),)

    def test_stateless_repeated_item(self):
        layout = layout_for("irt")
        inter = [
            make_interaction(timestamp_ms=0, question_id="q1", correct=True),
            make_interaction(timestamp_ms=10, question_id="q1", correct=False),
        ]
        matrix = ft.extract({"a": inter}, layout)
        assert row_entries(matrix, 0) == row_entries(matrix, 1)
        assert matrix.y[0] != matrix.y[1]

    def test_unseen_item_maps_to_reserved_index(self):
        layout = layout_for("irt")
        rows = rows_for({"a": [make_interaction(question_id="q999")]}, layout)
        assert rows[0] == ((3, 1.0),)  # reserved = len(item_vocab)


class TestPfaEncoding:
    def test_empty_history_zero_counts(self):
        layout = layout_for("pfa")
        rows = rows_for({"a": [make_interaction(kc_tags=(3,))]}, layout)
        # only the skill one-hot survives (zero counts omitted)
        sk = layout.block("skill").offset + 2  # skill 3 is index 2
        assert entry_dict(rows[0]) == {sk: 1.0}

    def test_third_interaction_counts(self):
        layout = layout_for("pfa")
        inter = [
            make_interaction(timestamp_ms=0, kc_tags=(3,), correct=True),
            make_interaction(timestamp_ms=10, kc_tags=(3,), correct=False),
            make_interaction(timestamp_ms=20, kc_tags=(3,), correct=False),
        ]
        rows = rows_for({"a": inter}, layout)
        d = entry_dict(rows[2])
        att = layout.block("skill_attempts@inf").offset + 2
        win = layout.block("skill_wins@inf").offset + 2
        assert d[att] == pytest.approx(1.0986, abs=1e-4)
        assert d[win] == pytest.approx(0.6931, abs=1e-4)

    def test_multi_kc_item_counts_each_skill(self):
        layout = layout_for("pfa")
        inter = [
            make_interaction(timestamp_ms=0, kc_tags=(2,), correct=True),
            make_interaction(timestamp_ms=10, kc_tags=(2, 7), correct=True),
        ]
        rows = rows_for({"a": inter}, layout)
        d = entry_dict(rows[1])
        sk = layout.block("skill").offset
        att = layout.block("skill_attempts@inf").offset
        # skill 2 is index 1, skill 7 is index 3
        assert d[sk + 1] == 1.0 and d[sk + 3] == 1.0
        assert d[att + 1] == pytest.approx(math.log1p(1))
        assert att + 3 not in d  # no prior events on skill 7


class TestDas3hEncoding:
    WINDOWS = (HOUR, DAY, 7 * DAY, 30 * DAY, INF)

    def test_no_prior_events_all_windows_zero(self):
        layout = layout_for("das3h", windows=self.WINDOWS)
        rows = rows_for({"a": [make_interaction(question_id="q0", kc_tags=(1,))]}, layout)
        d = entry_dict(rows[0])
        assert set(d) == {
            layout.block("item").offset + 0,
            layout.block("skill").offset + 0,
        }

    def test_hand_window_membership(self):
        # prior same-skill attempts 30 minutes and 2 days ago
        layout = layout_for("das3h", windows=self.WINDOWS)
        t = 100 * DAY
        inter = [
            make_interaction(timestamp_ms=t - 2 * DAY, kc_tags=(1,), correct=True),
            make_interaction(timestamp_ms=t - 30 * 60_000, kc_tags=(1,), correct=True),
            make_interaction(timestamp_ms=t, kc_tags=(1,), correct=False),
        ]
        rows = rows_for({"a": inter}, layout)
        d = entry_dict(rows[2])
        expected = [1, 1, 2, 2, 2]
        for w, n in zip(self.WINDOWS, expected):
            col = layout.block(f"skill_attempts@{ft.window_name(w)}").offset + 0
            assert d[col] == pytest.approx(math.log1p(n)), ft.window_name(w)

    def test_event_exactly_at_window_age_excluded(self):
        layout = layout_for("das3h", windows=(HOUR, INF))
        inter = [
            make_interaction(timestamp_ms=0, kc_tags=(1,), correct=True),
            make_interaction(timestamp_ms=HOUR, kc_tags=(1,), correct=True),
        ]
        rows = rows_for({"a": inter}, layout)
        d = entry_dict(rows[1])
        hour_col = layout.block("skill_attempts@1h").offset + 0
        inf_col = layout.block("skill_attempts@inf").offset + 0
        assert hour_col not in d  # age == window -> outside
        assert d[inf_col] == pytest.approx(math.log1p(1))


class TestBestLrEncoding:
    def test_scalar_blocks_hand_count(self):
        layout = layout_for("best_lr")
        inter = []
        # 5 prior interactions (3 correct), 2 prior on q1 (1 correct)
        outcomes = [("q0", True), ("q1", True), ("q0", True), ("q1", False), ("q2", False)]
        for i, (qid, ok) in enumerate(outcomes):
            inter.append(
                make_interaction(timestamp_ms=i * 1000, question_id=qid,
                                 correct=ok, kc_tags=(1,))
            )
        inter.append(
            make_interaction(timestamp_ms=9000, question_id="q1", kc_tags=(1,))
        )
        d = entry_dict(rows_for({"a": inter}, layout)[5])
        assert d[layout.block("item_attempts").offset] == pytest.approx(math.log1p(2))
        assert d[layout.block("total_attempts").offset] == pytest.approx(math.log1p(5))
        assert d[layout.block("item_wins").offset] == pytest.approx(math.log1p(1))
        assert d[layout.block("total_wins").offset] == pytest.approx(math.log1p(3))

    def test_first_interaction_scalars_zero(self):
        layout = layout_for("best_lr")
        d = entry_dict(rows_for({"a": [make_interaction()]}, layout)[0])
        for name in ("item_attempts", "total_attempts", "item_wins", "total_wins"):
            assert layout.block(name).offset not in d

    def test_wins_never_exceed_attempts(self, rng):
        layout = layout_for("best_lr", items=[f"q{i}" for i in range(30)],
                            skills=list(range(8)))
        learners = random_learner_histories(rng, 10, 150)
        for row in rows_for(learners, layout):
            d = entry_dict(row)
            aw = d.get(layout.block("item_attempts").offset, 0.0)
            ww = d.get(layout.block("item_wins").offset, 0.0)
            assert ww <= aw + 1e-12


class TestBestLrTw:
    def test_empty_history_only_onehots(self):
        layout = layout_for("best_lr_tw")
        d = entry_dict(rows_for({"a": [make_interaction(question_id="q1", kc_tags=(2,))]}, layout)[0])
        assert set(d) == {layout.block("item").offset + 1, layout.block("skill").offset + 1}

    def test_union_of_best_lr_and_das3h_windowed_blocks(self, rng):
        learners = random_learner_histories(rng, 6, 80)
        tw = layout_for("best_lr_tw", items=[f"q{i}" for i in range(30)],
                        skills=list(range(8)))
        blr = layout_for("best_lr", items=[f"q{i}" for i in range(30)],
                         skills=list(range(8)))
        das = layout_for("das3h", items=[f"q{i}" for i in range(30)],
                         skills=list(range(8)))
        tw_rows = rows_for(learners, tw)
        blr_rows = rows_for(learners, blr)
        das_rows = rows_for(learners, das)
        for rt, rb, rd in zip(tw_rows, blr_rows, das_rows):
            dt, db, dd = entry_dict(rt), entry_dict(rb), entry_dict(rd)
            # scalar blocks match best_lr
            for name in ("item_attempts", "total_attempts", "item_wins", "total_wins"):
                assert dt.get(tw.block(name).offset) == db.get(blr.block(name).offset)
            # windowed blocks match das3h
            for w in tw.config.effective_windows():
                for kind in ("skill_attempts", "skill_wins"):
                    bname = f"{kind}@{ft.window_name(w)}"
                    for s in range(tw.n_skills):
                        assert dt.get(tw.block(bname).offset + s) == dd.get(
                            dd and das.block(bname).offset + s
                        )

    def test_infinity_only_windows_degenerate_to_best_lr(self, rng):
        learners = random_learner_histories(rng, 5, 60)
        tw = layout_for("best_lr_tw", windows=(INF,), items=[f"q{i}" for i in range(30)],
                        skills=list(range(8)))
        blr = layout_for("best_lr", items=[f"q{i}" for i in range(30)],
                         skills=list(range(8)))
        assert tw.width == blr.width
        assert rows_for(learners, tw) == rows_for(learners, blr)


class TestOracleAndInvariants:
    @pytest.mark.parametrize("family", ft.FAMILIES)
    def test_brute_force_prefix_recount(self, family, rng):
        learners = random_learner_histories(rng, 8, 120)
        layout = layout_for(family, items=[f"q{i}" for i in range(30)],
                            skills=list(range(8)))
        rows = rows_for(learners, layout)
        i = 0
        for lid in sorted(learners):
            inter = learners[lid]
            for k in range(len(inter)):
                expected = brute_force_features(inter, k, layout)
                assert entry_dict(rows[i]) == pytest.approx(expected)
                i += 1

    def test_causality_future_mutations_do_not_change_row(self, rng):
        layout = layout_for("best_lr_tw", items=[f"q{i}" for i in range(30)],
                            skills=list(range(8)))
        learners = random_learner_histories(rng, 4, 60)
        for lid, inter in learners.items():
            k = len(inter) // 2
            base = rows_for({lid: inter}, layout)[k]
            # delete everything after k
            assert rows_for({lid: inter[: k + 1]}, layout)[k] == base
            # replace the future with unrelated interactions
            mutated = inter[: k + 1] + [
                make_interaction(learner_id=lid, timestamp_ms=inter[-1].timestamp_ms + i,
                                 question_id="q0", kc_tags=(1, 2))
                for i in range(1, 4)
            ]
            assert rows_for({lid: mutated}, layout)[k] == base

    def test_window_nesting(self, rng):
        layout = layout_for("das3h", items=[f"q{i}" for i in range(30)],
                            skills=list(range(8)))
        learners = random_learner_histories(rng, 6, 100)
        ws = layout.config.effective_windows()
        for row in rows_for(learners, layout):
            d = entry_dict(row)
            for s in range(layout.n_skills):
                counts = [
                    d.get(layout.block(f"skill_attempts@{ft.window_name(w)}").offset + s, 0.0)
                    for w in ws
                ]
                assert counts == sorted(counts)

    def test_deterministic_layout_and_rows(self, rng):
        learners = random_learner_histories(rng, 5, 70)
        a = ft.extract(learners, layout_for("best_lr_tw"))
        b = ft.extract(learners, layout_for("best_lr_tw"))
        assert a.layout.to_json() == b.layout.to_json()
        for name in ("indptr", "indices", "data"):
            assert getattr(a.X, name).tobytes() == getattr(b.X, name).tobytes()
        assert a.y.tobytes() == b.y.tobytes()
        assert a.learner_ids == b.learner_ids
        assert a.timestamps.tobytes() == b.timestamps.tobytes()


class TestWindowNames:
    @pytest.mark.parametrize("w", [HOUR, DAY, 7 * DAY, 30 * DAY, INF, 90 * ft.MS_MINUTE,
                                   1.0, 0.5, 1e-3, 1.5 * HOUR, 123456789.123, 2.0**60,
                                   1e300])
    def test_parse_reads_name_back_exactly(self, w):
        assert ft.parse_window(ft.window_name(w)) == w

    def test_random_windows_read_back_exactly(self, rng):
        for w in 10.0 ** rng.uniform(-6, 15, 2000):
            assert ft.parse_window(ft.window_name(w)) == w

    def test_default_names(self):
        names = [ft.window_name(w) for w in ft.DEFAULT_WINDOWS]
        assert names == ["1h", "1d", "7d", "30d", "inf"]
        assert ft.window_name(90 * ft.MS_MINUTE) == "5400000ms"

    def test_custom_config_json_round_trip(self):
        config = ft.FeatureConfig("das3h", windows=(90 * ft.MS_MINUTE, 1.5 * DAY, INF))
        assert ft.FeatureConfig.from_jsonable(config.to_jsonable()) == config

    @pytest.mark.parametrize("token", ["abc", "", "1x", "h", "ms"])
    def test_unparsable_token_is_usage_error(self, token):
        with pytest.raises(UsageError):
            ft.parse_window(token)


class TestRowFile:
    def test_round_trip(self, tmp_path, rng):
        layout = layout_for("best_lr_tw", items=[f"q{i}" for i in range(30)],
                            skills=list(range(8)))
        learners = random_learner_histories(rng, 5, 60)
        matrix = ft.extract(learners, layout)
        ft.write_rows(tmp_path / "rows.txt", matrix, tmp_path / "layout.json",
                      tmp_path / "meta.csv")
        reloaded_layout = ft.FeatureLayout.from_json((tmp_path / "layout.json").read_text())
        back = ft.read_rows(tmp_path / "rows.txt", reloaded_layout, tmp_path / "meta.csv")
        assert (back.X != matrix.X).nnz == 0
        assert np.array_equal(back.y, matrix.y)
        assert back.learner_ids == matrix.learner_ids
        assert np.array_equal(back.timestamps, matrix.timestamps)

    def test_config_validation(self):
        with pytest.raises(UsageError):
            ft.FeatureConfig("das3h", windows=(DAY, HOUR, INF))
        with pytest.raises(UsageError):
            ft.FeatureConfig("das3h", windows=(HOUR, DAY))
        with pytest.raises(UsageError):
            ft.FeatureConfig("nope")
        for w in (0.0, -HOUR, math.nan):
            with pytest.raises(UsageError):
                ft.FeatureConfig("das3h", windows=(w, INF))
