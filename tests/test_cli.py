import json

import pytest

from ktrace import cli


def run(*argv):
    return cli.run([str(a) for a in argv])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small end-to-end pipeline shared by the smoke assertions."""
    root = tmp_path_factory.mktemp("pipeline")
    d = {k: root / k for k in
         ("raw", "store", "ds", "split", "feat", "feat_test", "lr", "base",
          "dkt", "evals", "explain")}
    assert run("synth", "--out", d["raw"], "--n-learners", 40, "--n-items", 25,
               "--n-skills", 6, "--seed", 5) == 0
    assert run("ingest", d["raw"] / "interactions.csv",
               "--questions", d["raw"] / "questions.csv", "--out", d["store"]) == 0
    assert run("prep", d["store"], "--out", d["ds"]) == 0
    assert run("split", d["ds"], "--test", "0.2", "--seed", "1",
               "--out", d["split"]) == 0
    split = d["split"] / "split.json"
    assert run("featurize", d["ds"], "--family", "best_lr_tw", "--split", split,
               "--part", "train", "--out", d["feat"]) == 0
    assert run("featurize", d["ds"], "--family", "best_lr_tw", "--split", split,
               "--part", "test", "--out", d["feat_test"]) == 0
    assert run("train", d["feat"], "--model", "lr", "--l2", "0.5",
               "--out", d["lr"]) == 0
    assert run("train", d["ds"], "--model", "baseline", "--split", split,
               "--out", d["base"]) == 0
    assert run("train", d["ds"], "--model", "dkt", "--split", split,
               "--epochs", "2", "--hidden", "8", "--out", d["dkt"]) == 0
    for name in ("lr", "base", "dkt"):
        assert run("eval", d[name], d["ds"], "--split", split,
                   "--out", d["evals"] / f"{name}.json") == 0
    assert run("explain", d["lr"], d["ds"], "--split", split,
               "--n-learners", "4", "--n-perturb", "40",
               "--out", d["explain"]) == 0
    return d


class TestPipelineSmoke:
    def test_outputs_exist(self, pipeline):
        d = pipeline
        assert (d["store"] / "labeled.csv").exists()
        assert (d["ds"] / "stats.json").exists()
        assert (d["ds"] / "powerlaw.csv").exists()
        assert (d["feat"] / "rows.txt").exists()
        assert (d["lr"] / "model.json").exists()
        assert (d["dkt"] / "checkpoint.json").exists()
        assert (d["explain"] / "importance_table.tsv").exists()
        assert (d["explain"] / "skill_difficulty.csv").exists()

    def test_manifests_written_everywhere(self, pipeline):
        for key in ("raw", "store", "ds", "split", "feat", "lr", "dkt", "explain"):
            manifest = json.loads((pipeline[key] / "manifest.json").read_text())
            assert manifest["config_hash"]
            assert manifest["timings_s"]

    def test_eval_reports_sane(self, pipeline):
        for name in ("lr", "base", "dkt"):
            report = json.loads((pipeline["evals"] / f"{name}.json").read_text())
            assert 0.0 <= report["auc"] <= 1.0
            assert report["n_test_interactions"] > 0

    def test_leaderboard_sorted(self, pipeline, capsys):
        reports = [pipeline["evals"] / f"{n}.json" for n in ("lr", "base", "dkt")]
        assert run("leaderboard", *reports) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        aucs = [float(line.split("\t")[2]) for line in lines[1:]]
        assert aucs == sorted(aucs, reverse=True)

    def test_featurize_vocab_comes_from_train_part(self, pipeline):
        train_layout = json.loads((pipeline["feat"] / "layout.json").read_text())
        test_layout = json.loads((pipeline["feat_test"] / "layout.json").read_text())
        assert train_layout == test_layout


class TestFeatureDirectoryFlow:
    def test_custom_windows_featurize_train_eval(self, pipeline, tmp_path):
        d = pipeline
        split = d["split"] / "split.json"
        feat, model = tmp_path / "feat", tmp_path / "lr"
        assert run("featurize", d["ds"], "--family", "das3h", "--windows", "90m,inf",
                   "--split", split, "--out", feat) == 0
        layout = json.loads((feat / "layout.json").read_text())
        assert layout["config"]["windows"] == ["5400000ms", "inf"]
        assert run("train", feat, "--model", "lr", "--out", model) == 0
        assert run("eval", model, d["ds"], "--split", split,
                   "--out", tmp_path / "report.json") == 0

    def test_unparsable_window_is_2(self, pipeline, tmp_path, capsys):
        assert run("featurize", pipeline["ds"], "--family", "das3h",
                   "--windows", "1h,abc,inf", "--out", tmp_path / "feat") == 2
        assert "abc" in capsys.readouterr().err

    def test_lr_without_feature_directory_is_2(self, pipeline, tmp_path, capsys):
        assert run("train", pipeline["ds"], "--model", "lr",
                   "--out", tmp_path / "lr") == 2
        assert "ktrace featurize" in capsys.readouterr().err
        rows_only = tmp_path / "rows_only"
        rows_only.mkdir()
        (rows_only / "rows.txt").write_bytes((pipeline["feat"] / "rows.txt").read_bytes())
        assert run("train", rows_only, "--model", "lr", "--out", tmp_path / "lr") == 2
        assert "layout.json" in capsys.readouterr().err

    def test_eval_with_mismatched_layout_is_3(self, pipeline, tmp_path, capsys):
        d = pipeline
        irt = tmp_path / "irt"
        assert run("featurize", d["ds"], "--family", "irt", "--out", irt) == 0
        model = tmp_path / "lr"
        model.mkdir()
        (model / "model.json").write_bytes((d["lr"] / "model.json").read_bytes())
        (model / "layout.json").write_bytes((irt / "layout.json").read_bytes())
        assert run("eval", model, d["ds"], "--split", d["split"] / "split.json",
                   "--out", tmp_path / "report.json") == 3
        assert "does not match" in capsys.readouterr().err


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        assert run("featurize", "/nonexistent", "--family", "nope",
                   "--out", "/tmp/x") == 2
        assert "error" in capsys.readouterr().err

    def test_missing_dataset_is_2(self, tmp_path, capsys):
        assert run("split", tmp_path / "missing", "--out", tmp_path / "o") == 2

    def test_no_survivors_is_3(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        assert run("synth", "--out", raw, "--n-learners", 5, "--n-items", 5,
                   "--n-skills", 2, "--seed", 0) == 0
        store = tmp_path / "store"
        assert run("ingest", raw / "interactions.csv",
                   "--questions", raw / "questions.csv", "--out", store) == 0
        assert run("prep", store, "--min-interactions", "10000000",
                   "--out", tmp_path / "ds") == 3
        assert "no learners survive" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--version")
        assert exc.value.code == 0


class TestDeterminism:
    def test_rerun_byte_identical_excluding_manifest(self, tmp_path):
        outs = []
        for rep in range(2):
            root = tmp_path / f"rep{rep}"
            raw, store, ds, feat = (root / n for n in ("raw", "store", "ds", "feat"))
            assert run("synth", "--out", raw, "--n-learners", 20, "--n-items", 10,
                       "--n-skills", 4, "--seed", 3) == 0
            assert run("ingest", raw / "interactions.csv",
                       "--questions", raw / "questions.csv", "--out", store) == 0
            assert run("prep", store, "--out", ds) == 0
            assert run("featurize", ds, "--family", "das3h", "--out", feat) == 0
            outs.append(root)
        a, b = outs
        for rel in ("raw/interactions.csv", "raw/questions.csv",
                    "raw/ground_truth.json", "store/labeled.csv",
                    "ds/interactions.csv", "ds/stats.json", "ds/vocab.json",
                    "ds/powerlaw.csv", "feat/rows.txt", "feat/layout.json",
                    "feat/meta.csv"):
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
