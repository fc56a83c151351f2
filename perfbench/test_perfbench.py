"""Tests of the benchmark itself, on tiny versions of both workloads.

Run from the repository root:

    python3 -m pytest perfbench -q

A tiny round must pass every check, and each check must fail when one
output it reads is made wrong.  The traced round must report the layer
metrics of every layer the workload runs.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import shutil
import sys
import time
from pathlib import Path

import pytest

import checks
import run

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

TINY = dict(n_learners=300, n_items=10, n_skills=10, max_interactions=600)
TINY_LR = dataclasses.replace(
    run.LR_10K, name="tiny_lr", generator={**run.LR_10K.generator, **TINY},
    target_interactions=None)
TINY_PAPER = dataclasses.replace(
    run.PAPER_2K, name="tiny_paper", generator={**run.PAPER_2K.generator, **TINY},
    target_interactions=None, epochs=8)
SEED = 3


def run_tiny(workload, root: Path, trace: bool) -> run.Round:
    trace_dir = root / "spans" if trace else None
    if trace_dir is not None:
        trace_dir.mkdir(parents=True)
    runner = run.Runner(REPO, trace_dir, time.monotonic() + run.DEADLINE_S)
    return run.run_round(workload, SEED, root / "work", runner)


def manifest_units(kind: str) -> dict[str, str]:
    """Name -> unit of the manifest's end_to_end or per_layer metrics."""
    manifest = json.loads((REPO / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in manifest[kind]}


@pytest.fixture(scope="module")
def tiny_round(tmp_path_factory):
    """One untraced tiny round per workload, run on first use."""
    rounds = {}

    def get(workload) -> tuple[run.Round, Path]:
        if workload.name not in rounds:
            root = tmp_path_factory.mktemp(workload.name)
            rounds[workload.name] = run_tiny(workload, root, trace=False), root / "work"
        return rounds[workload.name]
    return get


@pytest.mark.parametrize("workload", [TINY_LR, TINY_PAPER], ids=lambda w: w.name)
def test_tiny_round_passes_every_check(tiny_round, workload):
    rnd, _ = tiny_round(workload)
    failures = [(c.name, c.detail) for c in rnd.checks if not c.ok]
    assert not failures
    assert [c.name for c in rnd.checks] == checks.check_names(workload)
    assert rnd.failed == 0
    stages = run.pipeline(workload, Path("raw"), Path("work"))
    assert rnd.attempted == run.SETUP_REPS + len(stages) + len(rnd.checks)
    assert set(rnd.artifact_bytes) == {s.out.name for s in stages}
    metrics = run.end_to_end(rnd)
    assert all(value > 0 for value, _ in metrics.values()), metrics
    assert {m: unit for m, (_, unit) in metrics.items()} == manifest_units("end_to_end")


# ---------------------------------------------------------------------------
# One wrong output per check
# ---------------------------------------------------------------------------


def edit_json(path: Path, change) -> None:
    payload = json.loads(path.read_text())
    change(payload)
    path.write_text(json.dumps(payload))


def set_report(model: str, key: str, value):
    def mutate(work: Path):
        def change(report):
            report[key] = value(report[key])
        edit_json(work / "reports" / f"{model}.json", change)
    return mutate


def bump_stats(work: Path):
    edit_json(work / "ds" / "stats.json",
              lambda s: s.update(n_interactions=s["n_interactions"] + 1))


def move_test_learner(work: Path):
    def change(split):
        split["train"].append(split["test"].pop())
    edit_json(work / "sp" / "split.json", change)


def bump_skill_correct(work: Path):
    path = work / "ex" / "skill_difficulty.csv"
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    rows[1][2] = str(int(rows[1][2]) + 1)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)


def negative_support(work: Path):
    def change(report):
        cell = next(c for groups in report["cells"].values() for c in groups.values()
                    if c["support"] is not None)
        cell["support"] = -0.01
    edit_json(work / "ex" / "explanation.json", change)


def drop_explained_row(work: Path):
    edit_json(work / "ex" / "explanation.json",
              lambda r: r["n_samples"].update(correct=r["n_samples"]["correct"] - 1))


def rising_loss(model: str):
    def mutate(work: Path):
        path = work / model / "trace.csv"
        lines = path.read_text().splitlines()
        losses = [line.split(",")[1] for line in lines[1:]]
        path.write_text("\n".join([lines[0]] + [f"{i},{loss}" for i, loss in
                                                enumerate(reversed(losses))]) + "\n")
    return mutate


ABOVE_PLANTED = 0.999
BELOW_BASELINE = 0.5
MUTATIONS = {
    "stats": bump_stats,
    "split": move_test_learner,
    "n_test_lr": set_report("lr", "n_test_interactions", lambda n: n + 1),
    "n_test_baseline": set_report("baseline", "n_test_interactions", lambda n: n - 1),
    # counting each learner's first step, which sequence models cannot predict
    "n_test_dkt": set_report("dkt", "n_test_interactions", lambda n: n + 60),
    "n_test_sakt": set_report("sakt", "n_test_interactions", lambda n: n + 1),
    "baseline_auc": set_report("baseline", "auc", lambda a: a + 1e-6),
    "auc_above_baseline_lr": set_report("lr", "auc", lambda a: BELOW_BASELINE),
    "auc_above_baseline_sakt": set_report("sakt", "auc", lambda a: BELOW_BASELINE),
    "auc_below_planted_lr": set_report("lr", "auc", lambda a: ABOVE_PLANTED),
    "auc_below_planted_dkt": set_report("dkt", "auc", lambda a: ABOVE_PLANTED),
    "auc_below_planted_sakt": set_report("sakt", "auc", lambda a: ABOVE_PLANTED),
    "skill_difficulty": bump_skill_correct,
    "explanation_cells": negative_support,
    "explained_rows": drop_explained_row,
    "loss_falls_sakt": rising_loss("sakt"),
}


def test_every_check_has_a_mutation():
    assert set(checks.check_names(TINY_PAPER)) | set(checks.check_names(TINY_LR)) == set(MUTATIONS)


@pytest.mark.parametrize(
    "workload,check",
    [(w, c) for w in (TINY_LR, TINY_PAPER) for c in checks.check_names(w)],
    ids=lambda p: getattr(p, "name", p))
def test_check_fails_on_wrong_output(tiny_round, workload, check, tmp_path):
    rnd, work = tiny_round(workload)
    copy = tmp_path / "work"
    shutil.copytree(work, copy)
    MUTATIONS[check](copy)
    results = {c.name: c for c in checks.run_checks(workload, rnd.data, copy)}
    assert not results[check].ok, results[check].detail


# ---------------------------------------------------------------------------
# Input size, tracing and the refusal outside a checkout
# ---------------------------------------------------------------------------


def test_planned_counts_match_synth():
    from ktrace import synth

    generator = {**run.PAPER_2K.generator, **TINY}
    dataset, _ = synth.generate(synth.SynthConfig(**generator, seed=17))
    planned = run.planned_counts(generator, 17)
    assert [len(dataset.learners[lid]) for lid in dataset.learner_ids()] == planned.tolist()


def test_synth_seed_is_on_target():
    for workload in (run.LR_10K, run.PAPER_2K):
        seed = run.synth_seed(workload, 5)
        counts = run.planned_counts(workload.generator, seed)
        test_idx = run.test_learner_indices(workload.generator["n_learners"])
        target = workload.target_interactions
        assert abs(counts.sum() - target) <= 0.005 * target
        assert abs(counts[test_idx].sum() - 0.2 * target) <= 0.01 * 0.2 * target


LAYER_METRICS = {
    "cli": ["cli.startup_s", "cli.pipeline_s"],
    "synth": ["synth.generate_s", "synth.write_kt1_s"],
    "ingest": ["ingest.parse_s", "ingest.parse_rows_per_s", "ingest.files_parsed",
               "ingest.load_question_bank_s", "ingest.label_correctness_s",
               "ingest.write_labeled_store_s", "ingest.group_by_learner_s",
               "ingest.read_labeled_store_s", "ingest.read_labeled_store_calls"],
    "prep": ["prep.preprocess_s", "prep.compute_stats_s", "prep.from_learners_s",
             "prep.from_learners_calls", "prep.learner_split_s", "prep.subset_s",
             "prep.sample_learners_s"],
    "features": ["features.extract_s", "features.extract_calls", "features.rows_extracted",
                 "features.extract_rows_per_s", "features.nnz", "features.write_rows_s",
                 "features.read_rows_s"],
    "linear_models": ["linear_models.fit_logistic_s", "linear_models.n_iter",
                      "linear_models.loss_evals", "linear_models.iters_per_loss_eval",
                      "linear_models.loss_and_grad_s", "linear_models.predict_matrix_s"],
    "baseline": ["linear_models.fit_baseline_s", "evaluation.score_baseline_s"],
    "seq_models": ["seq_models.build_sequence_samples_s", "seq_models.dkt_train_s",
                   "seq_models.sakt_train_s", "seq_models.dkt_targets_per_s",
                   "seq_models.sakt_targets_per_s", "seq_models.loss_grads_calls",
                   "seq_models.save_checkpoint_s", "seq_models.load_checkpoint_s",
                   "evaluation.score_sequence_model_s"],
    "evaluation": ["evaluation.compute_auc_s"],
    "explain": ["explain.explain_model_s", "explain.rows_explained", "explain.rows_per_s",
                "explain.lime_correlations_calls", "explain.lime_correlations_s",
                "explain.degenerate_rows", "explain.aggregate_importances_s",
                "explain.skill_difficulty_s"],
}


@pytest.mark.parametrize("workload", [TINY_LR, TINY_PAPER], ids=lambda w: w.name)
def test_traced_round_reports_each_layer_it_runs(workload, tmp_path):
    rnd = run_tiny(workload, tmp_path, trace=True)
    assert rnd.failed == 0
    metrics = run.per_layer(rnd, REPO)
    expected = [m for layer, names in LAYER_METRICS.items() for m in names
                if layer not in ("baseline", "seq_models") or "dkt" in workload.models]
    assert [m for m in expected if m not in metrics] == []
    for stage in run.pipeline(workload, Path("raw"), Path("work")):
        assert {f"cli.{stage.name}_s", f"cli.{stage.name}_self_s",
                f"cli.{stage.name}_rss_mb"} <= metrics.keys()
        assert 0 < metrics[f"cli.{stage.name}_self_s"][0] <= metrics[f"cli.{stage.name}_s"][0]
    if "dkt" not in workload.models:
        assert not [m for m in metrics if m.startswith("seq_models.")]
    # the printed result holds every per-layer metric of the manifest, on
    # every workload
    assert {m: metrics[m][1] for m in run.layers.REPORTED if m in metrics} == manifest_units(
        "per_layer")
    # every wrapped call returned, and each parent span encloses its children
    spans = {s["id"]: s for r in rnd.stages for s in run.layers.stage_spans(r, 0)}
    for span in spans.values():
        parent = spans.get(span["parent"])
        if parent is not None:
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "lr_10k", "--seed", "1", "--seconds", "1"]) == 2
    assert not (tmp_path / ".perfbench").exists()
