"""Cross-validation through the wrapper's CV loop, confusion rows, verdict scoring."""

import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import stage_fields
from synthetic import ClassArtifactSpec, synthetic_database

from netdiag import evaluation
from netdiag.classifiers import LpdClassifier, PipelineConfig, Verdict, fit_pipeline, model_predict
from netdiag.errors import TrainingError
from netdiag.evaluation import GroundTruth, confusion, evaluate_verdicts, render_report
from netdiag.selection import stratified_folds
from netdiag.svm import KernelSpec, SvmConfig

CFG = PipelineConfig(svm=SvmConfig(KernelSpec("linear"), C=10.0, max_iter=500, tol=1e-3), candidate_sizes=(6,))


def separable_db(n_per_class=12, m=6, seed=0):
    pos = ClassArtifactSpec(m=m, informative=((0, 0.9), (1, 0.85)), jitter=0.02, label=1)
    neg = ClassArtifactSpec(m=m, informative=((0, 0.1), (1, 0.15)), jitter=0.02, label=-1)
    return synthetic_database([pos, neg], n_per_class, seed)


def cv_accuracy(db, **changes) -> float:
    """Mean fold accuracy of fit_pipeline's CV at its one candidate size."""
    *_, report = fit_pipeline(db, replace(CFG, **changes))
    (accuracy,) = report.cv_accuracy
    return accuracy


def counted(tp=0, fp=0, tn=0, fn=0) -> dict:
    """The confusion row of the given counts, from (expected, detected) outcomes."""
    return confusion([(True, True)] * tp + [(False, True)] * fp + [(False, False)] * tn + [(True, False)] * fn)


class TestConfusion:
    def test_counts_and_rates(self):
        cm = counted(tp=1, fp=1, tn=2, fn=1)
        assert list(cm) == ["tp", "fp", "tn", "fn", "accuracy", "false_positive_rate"]
        assert [cm[key] for key in ("tp", "fp", "tn", "fn")] == [1, 1, 2, 1]
        assert cm["accuracy"] == pytest.approx(3 / 5)
        assert cm["false_positive_rate"] == pytest.approx(1 / 3)

    def test_empty_row_is_not_applicable(self):
        d = counted()
        assert d["accuracy"] is None and d["false_positive_rate"] is None
        assert json.loads(json.dumps(d))["accuracy"] is None
        report = {
            "conditions": {"default_client": {"n": 2, "accuracy": 0.5}},
            "lpd": counted(tn=2),
            "per_fault": {"read_buf": d, "write_buf": counted(tp=1, fn=1)},
        }
        lines = render_report(report).splitlines()
        assert lines[1] == "default_client      2    50.00%"
        assert lines[3] == "fault        tp   fp   tn   fn  accuracy  fp_rate"
        assert lines[4] == "read_buf      0    0    0    0       n/a      n/a"
        assert lines[5] == "write_buf     1    0    0    1    50.00%      n/a"

    def test_link_gate_confusion_beside_fault_rows(self, monkeypatch):
        # Each pair's verdict is canned: (truth, link vote, read_buf vote).
        # The gate flags two of the three healthy links, so those errors
        # show in its own row; read_buf is scored on the one pair it passed.
        cases = [
            (GroundTruth(True, frozenset()), 1, None),  # tp
            (GroundTruth(True, frozenset()), -1, -1),  # fn
            (GroundTruth(False, frozenset({"read_buf"})), 1, None),  # fp
            (GroundTruth(False, frozenset()), 1, None),  # fp
            (GroundTruth(False, frozenset()), -1, -1),  # tn
        ]

        def canned(lpd, cfd, pair, catalog):
            _, gate, vote = cases[pair]
            return Verdict((("lpd", float(gate), gate),) + ((("read_buf", float(vote), vote),) if vote else ()))

        monkeypatch.setattr(evaluation, "diagnose", canned)
        bank = SimpleNamespace(modules=(SimpleNamespace(fault_name="read_buf"),))
        report = evaluate_verdicts([(k, truth) for k, (truth, _, _) in enumerate(cases)], None, bank)
        assert report["lpd"] == counted(tp=1, fp=2, tn=1, fn=1)
        assert report["per_fault"]["read_buf"] == counted(tn=1)
        assert render_report(report).splitlines()[-2:] == [
            "link gate    tp   fp   tn   fn  accuracy  fp_rate",
            "lpd           1    2    1    1    40.00%   66.67%",
        ]


class TestKFoldCv:
    """k-fold CV as fit_pipeline runs it: `wrapper_select` scores each
    candidate size over stratified folds."""

    def test_separable_perfect(self):
        for k in (2, 3, 5):
            assert cv_accuracy(separable_db(), cv_folds=k) == 1.0

    def test_permuted_labels_near_chance(self):
        db = separable_db(n_per_class=20, seed=3)
        rng = np.random.default_rng(11)
        y = db.y.copy()
        rng.shuffle(y)
        assert abs(cv_accuracy(replace(db, y=y)) - 0.5) <= 0.2

    def test_leave_one_out_boundary(self):
        db = separable_db(n_per_class=3)
        assert [f.size for f in stratified_folds(db.y, 6, 0)] == [1] * 6
        assert cv_accuracy(db, cv_folds=6) == 1.0

    def test_insufficient_rows(self):
        db = separable_db(n_per_class=2)
        with pytest.raises(TrainingError, match="k=9 folds but only 4 rows"):
            fit_pipeline(db, replace(CFG, cv_folds=9))

    def test_determinism(self):
        db = separable_db(n_per_class=8, seed=5)
        config = replace(CFG, cv_folds=4, seed=7)
        s1, s2 = (LpdClassifier(*fit_pipeline(db, config), "default") for _ in range(2))
        assert stage_fields(s1) == stage_fields(s2)

    def test_training_accuracy_bounds_cv(self):
        db = separable_db(n_per_class=10, seed=6)
        lpd = LpdClassifier(*fit_pipeline(db, CFG), "default")
        train_acc = np.mean([model_predict(lpd, db.X[i])[1] == db.y[i] for i in range(db.n)])
        assert train_acc >= lpd.selection.cv_accuracy[0] - 1e-9

    def test_no_leakage_fold_model_pure_function_of_training_rows(self):
        db = separable_db(n_per_class=10, seed=8)
        folds = stratified_folds(db.y, 5, seed=3)
        test_fold = folds[0]
        train_idx = np.setdiff1d(np.arange(db.n), test_fold)
        train_db = replace(db, X=db.X[train_idx].copy(), y=db.y[train_idx].copy())
        s1 = LpdClassifier(*fit_pipeline(train_db, CFG), "default")
        s2 = LpdClassifier(*fit_pipeline(train_db, CFG), "default")  # deleting test rows cannot matter
        assert stage_fields(s1) == stage_fields(s2)


class TestGroundTruth:
    def test_condition_names(self):
        assert GroundTruth(True, frozenset()).condition() == "faulty_link"
        assert GroundTruth(False, frozenset()).condition() == "default_client"
        assert GroundTruth(False, frozenset({"b", "a"})).condition() == "a+b"
