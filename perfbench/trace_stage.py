"""Run one ktrace CLI stage with a span around each layer's entry points.

Usage (PYTHONPATH holding the ktrace sources):

    python3 perfbench/trace_stage.py SPANS_JSON STAGE -- ktrace-argv...

Before the stage runs, the functions listed in `install` are replaced, in
this process only, by wrappers that record a span (name, start, end,
parent span, stage) and the counts read from their arguments and results.
The program's files are not changed: callers reach these functions
through module and class attributes, so they call the wrappers.  Per-row
helpers (`perturb_sample`, `predict_row`, the models' `predict`) are
left unwrapped to keep the overhead small.  Spans stay in memory and are
written to SPANS_JSON when the stage ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import warnings
from pathlib import Path

from ktrace import cli
from ktrace import evaluation as ev
from ktrace import explain as ex
from ktrace import features as ft
from ktrace import ingest as ig
from ktrace import linear_models as lm
from ktrace import prep as pp
from ktrace import seq_models as sm
from ktrace import synth as sy


class Recorder:
    def __init__(self, stage: str):
        self.stage = stage
        self.spans: list[dict] = []
        self.open: list[dict] = []  # innermost last

    def wrap(self, owner, attr: str, count=None) -> None:
        """Replace owner.attr by a recording wrapper.

        `count(args, result)` returns counts to store on the span.
        """
        raw = vars(owner)[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": f"{self.stage}.{len(self.spans)}", "name": name,
                    "parent": self.open[-1]["id"] if self.open else self.stage,
                    "stage": self.stage, "counts": {}}
            self.spans.append(span)
            self.open.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.open.pop()
            if count is not None:
                span["counts"].update(count(args, result))
            return result

        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def note(self, key: str) -> None:
        """Count one event on the innermost open span."""
        if self.open:
            counts = self.open[-1]["counts"]
            counts[key] = counts.get(key, 0) + 1


class _CountingWarnings:
    """Stands in for the `warnings` module of ktrace.explain."""

    def __init__(self, recorder: Recorder):
        self._recorder = recorder

    def warn(self, *args, **kwargs):
        self._recorder.note("warnings")
        warnings.warn(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(warnings, name)


def install(rec: Recorder) -> None:
    parsed = lambda args, result: {"rows": len(result.records)}  # noqa: E731
    rec.wrap(sy, "generate")
    rec.wrap(sy, "write_kt1")

    rec.wrap(ig, "parse_kt1", parsed)
    rec.wrap(ig, "parse_kt1_dir", parsed)
    for attr in ("load_question_bank", "label_correctness", "write_labeled_store",
                 "read_labeled_store", "group_by_learner"):
        rec.wrap(ig, attr)

    rec.wrap(pp.Dataset, "from_learners")
    rec.wrap(pp.Dataset, "subset")
    for attr in ("preprocess", "compute_stats", "learner_split", "sample_learners"):
        rec.wrap(pp, attr)

    rec.wrap(ft, "extract", lambda args, m: {"rows": m.n_rows, "nnz": int(m.X.nnz)})
    rec.wrap(ft, "write_rows")
    rec.wrap(ft, "read_rows")

    rec.wrap(lm, "fit_logistic", lambda args, model: {"n_iter": model.report.n_iter})
    rec.wrap(lm, "loss_and_grad")
    rec.wrap(lm.LinearModel, "predict_matrix")
    rec.wrap(lm, "fit_baseline")

    targets = lambda args, result: {"targets": int(result[1])}  # noqa: E731
    rec.wrap(sm.DKTModel, "loss_grads", targets)
    rec.wrap(sm.SAKTModel, "loss_grads", targets)
    for attr in ("build_sequence_samples", "train_sequence_model", "save_checkpoint",
                 "load_checkpoint"):
        rec.wrap(sm, attr)

    for attr in ("compute_auc", "score_baseline", "score_sequence_model"):
        rec.wrap(ev, attr)

    rec.wrap(ex, "explain_model",
             lambda args, report: {"rows": sum(report.n_samples.values())})
    # lime_correlations warns once per row whose perturbations all score alike
    rec.wrap(ex, "lime_correlations")
    ex.warnings = _CountingWarnings(rec)
    rec.wrap(ex, "aggregate_importances")
    rec.wrap(ex, "skill_difficulty")


def main(argv: list[str]) -> int:
    spans_path, stage, separator, *cli_argv = argv
    if separator != "--":
        raise SystemExit(__doc__)
    rec = Recorder(stage)
    install(rec)
    try:
        return cli.run(cli_argv)
    finally:
        Path(spans_path).write_text(json.dumps(rec.spans))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
