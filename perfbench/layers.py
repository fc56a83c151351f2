"""Per-layer metrics from the spans `trace_stage.py` records.

A time metric sums the spans of its functions, counting a span nested
in another span of the same metric once.  A metric whose functions did
not run in a workload is left out, not reported as zero.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

STARTUP_REPS = 3

# metric -> the functions whose spans it sums
TIMES = {
    "ingest.parse_s": ("ingest.parse_kt1", "ingest.parse_kt1_dir"),
    "ingest.load_question_bank_s": ("ingest.load_question_bank",),
    "ingest.label_correctness_s": ("ingest.label_correctness",),
    "ingest.write_labeled_store_s": ("ingest.write_labeled_store",),
    "ingest.group_by_learner_s": ("ingest.group_by_learner",),
    "ingest.read_labeled_store_s": ("ingest.read_labeled_store",),
    "prep.preprocess_s": ("prep.preprocess",),
    "prep.compute_stats_s": ("prep.compute_stats",),
    "prep.from_learners_s": ("prep.Dataset.from_learners",),
    "prep.learner_split_s": ("prep.learner_split",),
    "prep.subset_s": ("prep.Dataset.subset",),
    "prep.sample_learners_s": ("prep.sample_learners",),
    "features.extract_s": ("features.extract",),
    "features.write_rows_s": ("features.write_rows",),
    "features.read_rows_s": ("features.read_rows",),
    "linear_models.fit_logistic_s": ("linear_models.fit_logistic",),
    "linear_models.loss_and_grad_s": ("linear_models.loss_and_grad",),
    "linear_models.predict_matrix_s": ("linear_models.LinearModel.predict_matrix",),
    "linear_models.fit_baseline_s": ("linear_models.fit_baseline",),
    "seq_models.build_sequence_samples_s": ("seq_models.build_sequence_samples",),
    "seq_models.save_checkpoint_s": ("seq_models.save_checkpoint",),
    "seq_models.load_checkpoint_s": ("seq_models.load_checkpoint",),
    "evaluation.compute_auc_s": ("evaluation.compute_auc",),
    "evaluation.score_baseline_s": ("evaluation.score_baseline",),
    "evaluation.score_sequence_model_s": ("evaluation.score_sequence_model",),
    "explain.explain_model_s": ("explain.explain_model",),
    "explain.lime_correlations_s": ("explain.lime_correlations",),
    "explain.aggregate_importances_s": ("explain.aggregate_importances",),
    "explain.skill_difficulty_s": ("explain.skill_difficulty",),
}

# metric -> the function whose calls it counts
CALLS = {
    "ingest.files_parsed": ("ingest.parse_kt1",),
    "ingest.read_labeled_store_calls": ("ingest.read_labeled_store",),
    "prep.from_learners_calls": ("prep.Dataset.from_learners",),
    "features.extract_calls": ("features.extract",),
    "linear_models.loss_evals": ("linear_models.loss_and_grad",),
    "seq_models.loss_grads_calls": ("seq_models.DKTModel.loss_grads",
                                    "seq_models.SAKTModel.loss_grads"),
    "explain.lime_correlations_calls": ("explain.lime_correlations",),
}

# metric -> (function, count key) whose recorded counts it sums
COUNTS = {
    "features.rows_extracted": ("features.extract", "rows"),
    "features.nnz": ("features.extract", "nnz"),
    "linear_models.n_iter": ("linear_models.fit_logistic", "n_iter"),
    "explain.rows_explained": ("explain.explain_model", "rows"),
    "explain.degenerate_rows": ("explain.lime_correlations", "warnings"),
}

# metric -> (numerator metric, denominator metric, unit)
RATIOS = {
    "ingest.parse_rows_per_s": ("ingest.rows_parsed", "ingest.parse_s", "rows/s"),
    "features.extract_rows_per_s": ("features.rows_extracted", "features.extract_s", "rows/s"),
    "linear_models.iters_per_loss_eval": ("linear_models.n_iter", "linear_models.loss_evals",
                                          "ratio"),
    "seq_models.dkt_targets_per_s": ("seq_models.dkt_targets", "seq_models.dkt_train_s",
                                     "targets/s"),
    "seq_models.sakt_targets_per_s": ("seq_models.sakt_targets", "seq_models.sakt_train_s",
                                      "targets/s"),
    "explain.rows_per_s": ("explain.rows_explained", "explain.explain_model_s", "rows/s"),
}


# The per-layer metrics every workload reports, in the order of the
# `per_layer` list of BENCHMARK.json; a traced run prints these.  The
# stages and layers that only `paper_2k` runs (baseline, DKT, SAKT,
# leaderboard) give further metrics, which go to the result file only.
REPORTED = (
    "cli.startup_s", "cli.pipeline_s",
    *(f"cli.{stage}{what}"
      for stage in ("ingest", "prep", "split", "featurize", "train_lr", "eval_lr", "explain")
      for what in ("_s", "_self_s", "_rss_mb")),
    *(f"cli.bytes_{out}" for out in ("ds", "ex", "feat", "lr", "reports", "sp", "store")),
    "synth.generate_s", "synth.write_kt1_s",
    "ingest.files_parsed", "ingest.group_by_learner_s", "ingest.label_correctness_s",
    "ingest.load_question_bank_s", "ingest.parse_rows_per_s", "ingest.parse_s",
    "ingest.read_labeled_store_calls", "ingest.read_labeled_store_s",
    "ingest.write_labeled_store_s",
    "prep.compute_stats_s", "prep.from_learners_calls", "prep.from_learners_s",
    "prep.learner_split_s", "prep.preprocess_s", "prep.sample_learners_s", "prep.subset_s",
    "features.extract_calls", "features.extract_rows_per_s", "features.extract_s",
    "features.nnz", "features.read_rows_s", "features.rows_extracted",
    "features.write_rows_s",
    "linear_models.fit_logistic_s", "linear_models.iters_per_loss_eval",
    "linear_models.loss_and_grad_s", "linear_models.loss_evals", "linear_models.n_iter",
    "linear_models.predict_matrix_s",
    "evaluation.compute_auc_s",
    "explain.aggregate_importances_s", "explain.degenerate_rows", "explain.explain_model_s",
    "explain.lime_correlations_calls", "explain.lime_correlations_s",
    "explain.rows_explained", "explain.rows_per_s", "explain.skill_difficulty_s",
)


def outermost(spans: list[dict], names: tuple[str, ...]) -> list[dict]:
    """Spans of these functions that no other span of them encloses."""
    by_id = {s["id"]: s for s in spans}
    out = []
    for span in spans:
        if span["name"] not in names:
            continue
        parent = by_id.get(span["parent"])
        while parent is not None and parent["name"] not in names:
            parent = by_id.get(parent["parent"])
        if parent is None:
            out.append(span)
    return out


def seconds(spans: list[dict]) -> float:
    return sum(s["end"] - s["start"] for s in spans)


def module_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the pipeline stages, from their spans."""
    values: dict[str, float] = {}
    for metric, names in TIMES.items():
        found = outermost(spans, names)
        if found:
            values[metric] = seconds(found)
    for metric, names in CALLS.items():
        n = sum(s["name"] in names for s in spans)
        if n:
            values[metric] = n
    for metric, (name, key) in COUNTS.items():
        found = [s for s in spans if s["name"] == name]
        if found:
            values[metric] = sum(s["counts"].get(key, 0) for s in found)
    parsed = outermost(spans, TIMES["ingest.parse_s"])
    if parsed:
        values["ingest.rows_parsed"] = sum(s["counts"]["rows"] for s in parsed)
    for model in ("dkt", "sakt"):
        stage = [s for s in spans if s["stage"] == f"train_{model}"]
        train = [s for s in stage if s["name"] == "seq_models.train_sequence_model"]
        if train:
            values[f"seq_models.{model}_train_s"] = seconds(train)
            values[f"seq_models.{model}_targets"] = sum(
                s["counts"]["targets"] for s in stage if s["name"].endswith(".loss_grads"))

    units = {m: "s" for m in values if m.endswith("_s")}
    for metric, (num, den, unit) in RATIOS.items():
        if values.get(den):
            values[metric] = values[num] / values[den]
            units[metric] = unit
    for helper in ("ingest.rows_parsed", "seq_models.dkt_targets", "seq_models.sakt_targets"):
        values.pop(helper, None)
    return {m: (float(v), units.get(m, "count")) for m, v in sorted(values.items())}


def synth_metrics(setup_spans: list[list[dict]]) -> dict[str, tuple[float, str]]:
    """Median over the set-up repetitions of synth's two steps."""
    out = {}
    for metric, name in (("synth.generate_s", "synth.generate"),
                         ("synth.write_kt1_s", "synth.write_kt1")):
        per_rep = [seconds([s for s in spans if s["name"] == name]) for spans in setup_spans]
        out[metric] = (statistics.median(per_rep), "s")
    return out


def stage_metrics(run) -> dict[str, tuple[float, str]]:
    """Wall time, self time and peak RSS of one traced stage process.

    Self time is the stage's wall time, seen from outside its process,
    that no span of its own covers: interpreter start-up, imports,
    argument parsing, manifests and the code between layer calls.
    """
    covered = seconds([s for s in run.spans if s["parent"] == run.name])
    return {
        f"cli.{run.name}_s": (run.seconds, "s"),
        f"cli.{run.name}_self_s": (run.seconds - covered, "s"),
        f"cli.{run.name}_rss_mb": (run.rss_mb, "MB"),
    }


def stage_spans(run, round_index: int) -> list[dict]:
    """The stage's own span, measured from outside, then the spans inside it."""
    root = {"id": run.name, "name": f"cli.{run.name}", "parent": None, "stage": run.name,
            "start": run.start, "end": run.end, "counts": {}}
    return [{**s, "round": round_index} for s in [root, *run.spans]]


def startup_seconds(repo: Path) -> float:
    """Median wall time of a fresh interpreter importing ktrace.cli."""
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    times = []
    for _ in range(STARTUP_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ktrace.cli"], cwd=repo, env=env,
                       check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
