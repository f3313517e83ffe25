"""The stored module record: the bytes of a bundle's stage files, and how
a stage file that is malformed, or was written by an older version, loads."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest
from conftest import model_fields

from netdiag.classifiers import CfdNetwork, CfModule, LpdClassifier, load_bundle, save_bundle
from netdiag.errors import IoFailure
from netdiag.features import default_catalog
from netdiag.preprocess import ScalerParams
from netdiag.selection import SelectionReport
from netdiag.svm import KernelSpec, SvmModel, TrainingMeta

CATALOG = default_catalog()
M = CATALOG.m
SCALER = ScalerParams(min=np.zeros(M), max=np.full(M, 1.5))


def _model(kernel, support_vectors, dual_coef, bias, meta) -> SvmModel:
    return SvmModel(
        kernel=kernel,
        C=10.0,
        bias=bias,
        dual_coef=np.array(dual_coef),
        support_vectors=np.array(support_vectors),
        training_meta=TrainingMeta(*meta),
    )


def hand_built() -> tuple[LpdClassifier, CfdNetwork]:
    """An LPD and a two-module CFD of small fixed arrays, whose stored
    bytes depend on no solver, BLAS or host."""
    lpd_model = _model(KernelSpec("quadratic"), [[0.25, 0.5], [1.0, 0.125]], [0.75, -0.75], -0.0625,
                       (12, 3, 0.0009765625, True, 7))
    linear = _model(KernelSpec("linear"), [[0.5], [0.0]], [1.5, -1.5], 0.25, (8, 2, 0.0, True, 4))
    rbf = _model(KernelSpec("rbf", 0.75), [[0.0, 1.0, 0.5], [0.5, 0.25, 1.0]], [-2.0, 2.0], 0.5,
                 (8, 2000, 0.5, False, 16000))
    lpd = LpdClassifier(lpd_model, SCALER, SelectionReport((2, 4), (0.9, 0.8), (0.1, 0.2), (3, 17)), "default")
    cfd = CfdNetwork((
        CfModule(2, "dsack_disabled", rbf, SCALER, SelectionReport((3,), (1.0,), (0.0,), (0, 9, 40))),
        CfModule(1, "sack_disabled", linear, SCALER, SelectionReport((1,), (0.875,), (0.125,), (5,))),
    ))
    return lpd, cfd


# The stage files of hand_built(), as the version before the record had
# one writer saved them; SCALER stands for the stored scaler of every model.
SCALER_TEXT = '{"max": [' + ", ".join(["1.5"] * M) + '], "min": [' + ", ".join(["0.0"] * M) + "]}"
LPD_TEXT = (
    '{"catalog_version": "v1", "link_profile": "default", "model": {"C": 10.0, "bias": -0.0625, '
    '"dual_coef": [0.75, -0.75], "feature_subset": [3, 17], "kernel": {"variant": "quadratic"}, '
    '"scaler": SCALER, "support_vectors": [[0.25, 0.5], [1.0, 0.125]], "training_meta": {"converged": true, '
    '"final_kkt_residual": 0.0009765625, "iterations_used": 3, "n": 12, "updates": 7}}, '
    '"selection": {"candidate_sizes": [2, 4], "cv_accuracy": [0.9, 0.8], "cv_objective": [0.1, 0.2]}}\n'
)
CFD_TEXT = (
    '{"catalog_version": "v1", "fault_registry": {"dsack_disabled": 2, "sack_disabled": 1}, "modules": '
    '{"dsack_disabled": {"model": {"C": 10.0, "bias": 0.5, "dual_coef": [-2.0, 2.0], "feature_subset": [0, 9, 40], '
    '"kernel": {"sigma": 0.75, "variant": "rbf"}, "scaler": SCALER, '
    '"support_vectors": [[0.0, 1.0, 0.5], [0.5, 0.25, 1.0]], "training_meta": {"converged": false, '
    '"final_kkt_residual": 0.5, "iterations_used": 2000, "n": 8, "updates": 16000}}, '
    '"selection": {"candidate_sizes": [3], "cv_accuracy": [1.0], "cv_objective": [0.0]}}, '
    '"sack_disabled": {"model": {"C": 10.0, "bias": 0.25, "dual_coef": [1.5, -1.5], "feature_subset": [5], '
    '"kernel": {"variant": "linear"}, "scaler": SCALER, "support_vectors": [[0.5], [0.0]], '
    '"training_meta": {"converged": true, "final_kkt_residual": 0.0, "iterations_used": 2, "n": 8, "updates": 4}}, '
    '"selection": {"candidate_sizes": [1], "cv_accuracy": [0.875], "cv_objective": [0.125]}}}}\n'
)


def _stages(lpd: LpdClassifier, cfd: CfdNetwork) -> list:
    """Each stored module of a cascade: name, model and selection."""
    return [("lpd", lpd.model, lpd.selection), *((m.fault_name, m.model, m.selection) for m in cfd.modules)]


def test_stage_files_keep_their_bytes(tmp_path):
    save_bundle(tmp_path, *hand_built(), CATALOG.version)
    assert (tmp_path / "lpd.json").read_text(encoding="utf-8") == LPD_TEXT.replace("SCALER", SCALER_TEXT)
    assert (tmp_path / "cfd.json").read_text(encoding="utf-8") == CFD_TEXT.replace("SCALER", SCALER_TEXT)


def test_legacy_keys_still_load(tmp_path):
    # Older versions stored the catalog version in every model, repeated
    # the chosen columns in the selection, and did not record updates.
    save_bundle(tmp_path, *hand_built(), CATALOG.version)
    for name in ("lpd.json", "cfd.json"):
        stage = json.loads((tmp_path / name).read_text(encoding="utf-8"))
        for module in [stage] if "model" in stage else stage["modules"].values():
            module["model"]["catalog_version"] = stage["catalog_version"]
            del module["model"]["training_meta"]["updates"]
            subset = module["model"]["feature_subset"]
            module["selection"].update(chosen_q=len(subset), chosen_indices=subset)
        (tmp_path / name).write_text(json.dumps(stage), encoding="utf-8")
    lpd, cfd, _ = load_bundle(tmp_path)
    expected = hand_built()
    for stored, (_, model, selection) in zip(_stages(lpd, cfd), _stages(*expected)):
        assert stored[1].training_meta.updates == 0
        assert model_fields(stored[1]) == model_fields(replace(model, training_meta=replace(model.training_meta, updates=0)))
        assert stored[2] == selection


def _edit_model(edit):
    """A corruption of cfd.json: its text with edit(model) applied to the
    parsed model of the one-column sack_disabled module."""

    def corrupt(text):
        stage = json.loads(text)
        edit(stage["modules"]["sack_disabled"]["model"])
        return json.dumps(stage)

    return corrupt


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda text: text[: len(text) // 2],
        _edit_model(lambda model: model.pop("bias")),
        _edit_model(lambda model: model.update(dual_coef="x")),
        _edit_model(lambda model: model.update(kernel=[])),
        _edit_model(lambda model: model.update(feature_subset=[-1])),
        _edit_model(lambda model: model.update(feature_subset=[0, 1])),
        _edit_model(lambda model: model.update(feature_subset=[0.5])),
        lambda text: re.sub(r'"n": \d+', '"n": 1e999', text),
    ],
    ids=[
        "truncated", "missing_key", "wrong_type", "wrong_container",
        "negative_index", "index_per_column", "fractional_index", "infinite_count",
    ],
)
def test_malformed_stage_file_is_io_failure_naming_it(tmp_path, corrupt):
    save_bundle(tmp_path, *hand_built(), CATALOG.version)
    path = tmp_path / "cfd.json"
    path.write_text(corrupt(path.read_text(encoding="utf-8")), encoding="utf-8")
    with pytest.raises(IoFailure, match="cfd.json"):
        load_bundle(tmp_path)
