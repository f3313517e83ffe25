"""Operator CLI: solver telemetry from train, typed errors from corrupt bundles."""

import functools
import json
import operator
import shutil
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from io import StringIO

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from synthetic import ClassArtifactSpec, synthetic_database

from netdiag import cli, features
from netdiag.cli import ENV_CONFIG, load_config, main
from netdiag.errors import (
    BadHeader,
    CatalogMismatch,
    ConfigError,
    EmptyTrace,
    IoFailure,
    MalformedRow,
    NetdiagError,
    UnknownLabel,
)
from netdiag.features import default_catalog
from netdiag.preprocess import DEFAULT_FAULT_REGISTRY, LINK_FAULTY, LINK_HEALTHY, load_database, save_database
from netdiag.scenarios import read_corpus, scenario_from_json
from netdiag.simulate import HEALTHY_LINK, ClientParams, CwndProfile, simulate_flow
from netdiag.svm import KernelSpec, default_sigma
from netdiag.trace import write_pair

CATALOG = default_catalog()
M = len(CATALOG.feature_names)


def _databases(tmp):
    """Synthetic link and client databases built for the real catalog."""
    informative = tuple((i, 0.8) for i in (2, 5, 11, 17))
    link = synthetic_database(
        [
            ClassArtifactSpec(m=M, informative=informative, jitter=0.05, label=1),
            ClassArtifactSpec(m=M, informative=tuple((i, 0.2) for i, _ in informative), jitter=0.05, label=-1),
        ],
        15,
        seed=0,
    )
    specs = [ClassArtifactSpec(m=M, informative=tuple((i, 0.5) for i in range(24)), jitter=0.05, label=0)]
    for fault in DEFAULT_FAULT_REGISTRY.values():
        block = range(6 * (fault - 1), 6 * fault)
        specs.append(
            ClassArtifactSpec(
                m=M, informative=tuple((i, 0.9 if i in block else 0.5) for i in range(24)), jitter=0.05, label=fault
            )
        )
    client = synthetic_database(specs, 10, seed=0, fault_registry=dict(DEFAULT_FAULT_REGISTRY))
    paths = []
    for name, db in (("link", link), ("client", client)):
        path = tmp / f"{name}.json"
        save_database(replace(db, feature_names=CATALOG.feature_names, catalog_version=CATALOG.version), path)
        paths.append(path)
    return paths


def _run(*argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    link, client = _databases(tmp)
    bundle = tmp / "bundle"
    runs = {stage: _run("train", "--db", str(db), "--stage", stage, "--out", str(bundle))
            for stage, db in (("lpd", link), ("cfd", client))}
    pair = simulate_flow(HEALTHY_LINK, ClientParams(seed=1), 32_000, seed=1)
    down, up = tmp / "p.down.csv", tmp / "p.up.csv"
    write_pair(pair, down, up)
    return bundle, runs, down, up


def _check_solver_fields(report):
    assert isinstance(report["updates"], int) and report["updates"] > 0
    assert report["n_sv"] >= 1
    assert 0 <= report["final_kkt_residual"] <= 1e-3


MODULE_REPORT_KEYS = {"kernel", "chosen_q", "cv_accuracy", "converged", "updates", "final_kkt_residual", "n_sv"}


def test_train_reports_solver_telemetry(trained):
    _, runs, _, _ = trained
    code, out, err = runs["lpd"]
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"stage", "bundle", *MODULE_REPORT_KEYS}
    _check_solver_fields(report)
    assert "updates=" in err and "kkt=" in err and "n_sv=" in err
    code, out, err = runs["cfd"]
    assert code == 0
    modules = json.loads(out)["modules"]
    assert set(modules) == set(DEFAULT_FAULT_REGISTRY)
    for name, report in modules.items():
        assert set(report) == MODULE_REPORT_KEYS and 0 <= report["cv_accuracy"] <= 1
        _check_solver_fields(report)
        assert f"cfd/{name}:" in err
    assert err.count("n_sv=") == len(DEFAULT_FAULT_REGISTRY)


def test_iteration_cap_warning_names_each_module(tmp_path):
    # A CFD module that hit the cap was once reported without a warning.
    _, client = _databases(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"cfd": {"default": {"max_iter": 1}}}), encoding="utf-8")
    out = tmp_path / "bundle"
    code, stdout, err = _run("train", "--config", str(config), "--db", str(client), "--stage", "cfd", "--out", str(out))
    assert code == 0, err
    modules = json.loads(stdout)["modules"]
    assert not all(report["converged"] for report in modules.values())
    for name, report in modules.items():
        assert (f"warning: cfd/{name}: solver hit the iteration cap" in err) is not report["converged"]


def test_intact_bundle_diagnoses(trained):
    bundle, _, down, up = trained
    code, out, _ = _run("diagnose", "--bundle", str(bundle), "--down", str(down), "--up", str(up))
    assert code in (0, 10, 20)
    assert json.loads(out)["link"] in ("healthy", "faulty")


# part of a bundle -> (its stage file, the keys that lead to the part's
# JSON object there, a key whose loss or retyping makes it malformed).  The
# ids are the file names the parts had when each stage was a directory and
# the registry a file of its own, so results compare across versions.
PARTS = {
    "registry.json": ("cfd.json", (), "fault_registry"),
    "lpd/default.model.json": ("lpd.json", ("model",), "dual_coef"),
    "lpd/default.selection.json": ("lpd.json", ("selection",), "cv_accuracy"),
    "cfd/read_buf.model.json": ("cfd.json", ("modules", "read_buf", "model"), "dual_coef"),
    "cfd/read_buf.selection.json": ("cfd.json", ("modules", "read_buf", "selection"), "cv_accuracy"),
}


def _edit_part(name: str, edit):
    """A corruption of the stage file holding part `name`: the file's text
    with edit(part) applied to the parsed part."""

    def corrupt(text):
        payload = json.loads(text)
        edit(functools.reduce(operator.getitem, PARTS[name][1], payload))
        return json.dumps(payload)

    return corrupt


def _truncate_part(name: str):
    """A corruption that cuts the stage file in the middle of part `name`."""

    def corrupt(text):
        part = json.dumps(functools.reduce(operator.getitem, PARTS[name][1], json.loads(text)), sort_keys=True)
        return text[: text.index(part) + len(part) // 2]

    return corrupt


def _diagnose_corrupted(trained, tmp_path, name: str, corrupt):
    """Exit code, stderr and stage file of a diagnose run on a copy of the
    bundle whose stage file holding part `name` has text corrupt(its text)."""
    bundle, _, down, up = trained
    copy = tmp_path / "bundle"
    shutil.copytree(bundle, copy)
    target = copy / PARTS[name][0]
    target.write_text(corrupt(target.read_text(encoding="utf-8")), encoding="utf-8")
    code, _, err = _run("diagnose", "--bundle", str(copy), "--down", str(down), "--up", str(up))
    return code, err, target


def _check_names_part(code, err, target, name: str, how: str = ""):
    assert code == 2
    assert "Traceback" not in err
    assert str(target) in err
    if name.startswith("cfd/") and how != "truncated":
        assert "module 'read_buf'" in err


@pytest.mark.parametrize("how", ["truncated", "missing_key", "wrong_type"])
@pytest.mark.parametrize("name", sorted(PARTS))
def test_corrupt_bundle_file_exits_2_naming_it(trained, tmp_path, name, how):
    key = PARTS[name][2]
    corrupt = {
        "truncated": _truncate_part(name),
        "missing_key": _edit_part(name, lambda part: part.pop(key)),
        "wrong_type": _edit_part(name, lambda part: part.update({key: "x"})),
    }[how]
    code, err, target = _diagnose_corrupted(trained, tmp_path, name, corrupt)
    _check_names_part(code, err, target, name, how)


def _set_last_index(model, value):
    model["feature_subset"][-1] = value


def _cut_scaler(model):
    """Cut a stored model's scaler to 30 features, and renumber its chosen
    columns below 30, so that only the scaler's width is wrong."""
    assert len(model["feature_subset"]) <= 30
    model["scaler"] = {key: values[:30] for key, values in model["scaler"].items()}
    model["feature_subset"] = list(range(len(model["feature_subset"])))


# model corruption -> edit of the parsed model; each leaves valid JSON
MODEL_EDITS = {
    "subset_index_past_scaler": lambda model: _set_last_index(model, 999),
    "subset_index_negative": lambda model: _set_last_index(model, -1),
    "subset_index_duplicate": lambda model: _set_last_index(model, model["feature_subset"][0]),
    "subset_shorter_than_vectors": lambda model: model["feature_subset"].pop(),
    "scaler_max_short": lambda model: model["scaler"]["max"].pop(),
    "meta_count_infinite": lambda model: model["training_meta"].update(n=float("inf")),
    "support_vector_infinite": lambda model: model["support_vectors"][0].__setitem__(0, float("inf")),
    "scaler_min_infinite": lambda model: model["scaler"]["min"].__setitem__(0, float("-inf")),
    "kernel_sigma_nan": lambda model: model.update(kernel={"variant": "rbf", "sigma": float("nan")}),
    # float64 would read these as numbers: a string "0.5" as 0.5, true as 1.0
    "cell_string": lambda model: model["support_vectors"][0].__setitem__(0, repr(model["support_vectors"][0][0])),
    "cell_bool": lambda model: model["support_vectors"][0].__setitem__(0, True),
    "dual_coef_string": lambda model: model["dual_coef"].__setitem__(0, repr(model["dual_coef"][0])),
    "scaler_bool": lambda model: model["scaler"]["max"].__setitem__(0, True),
    # a model without a scaler would be fed raw signatures
    "scaler_empty": lambda model: model.update(scaler={"min": [], "max": []}),
    # once loaded, and every diagnose then failed on the signature's 74
    # features without naming the file
    "scaler_cut_to_30": _cut_scaler,
    # float() and bool() once read these as 10.0, 1.0 and True
    "C_string": lambda model: model.update(C="10"),
    "bias_bool": lambda model: model.update(bias=True),
    "converged_string": lambda model: model["training_meta"].update(converged="no"),
    # 2 sigma^2 overflows (an OverflowError at diagnosis) or rounds to 0
    "kernel_sigma_huge": lambda model: model.update(kernel={"variant": "rbf", "sigma": 1e300}),
    "kernel_sigma_tiny": lambda model: model.update(kernel={"variant": "rbf", "sigma": 1e-300}),
    # 2 sigma^2 subnormal, or normal but tiny: distances over it overflowed
    "kernel_sigma_subnormal": lambda model: model.update(kernel={"variant": "rbf", "sigma": 1e-160}),
    "kernel_sigma_overflowing": lambda model: model.update(kernel={"variant": "rbf", "sigma": 2e-154}),
    # a trained model holds scaled rows only; 1e300 changed a verdict with overflow warnings
    "support_vector_huge": lambda model: model["support_vectors"][0].__setitem__(0, 1e300),
    "support_vector_above_one": lambda model: model["support_vectors"][-1].__setitem__(-1, 1.5),
    "support_vector_negative": lambda model: model["support_vectors"][0].__setitem__(0, -0.25),
}


# stage corruption -> the parsed stage file with an edited catalog version.
# Each model once carried the version too, and these edits were model
# edits; the version now lives only in the stage file holding the model.
STAGE_EDITS = {
    "catalog_negative": lambda stage: dict(stage, catalog_version=-1),
    "catalog_bool": lambda stage: dict(stage, catalog_version=True),
    "catalog_list": lambda stage: dict(stage, catalog_version=[]),
    "catalog_null": lambda stage: dict(stage, catalog_version=None),
}


@pytest.mark.parametrize("how", sorted([*MODEL_EDITS, *STAGE_EDITS]))
@pytest.mark.parametrize("name", ["lpd/default.model.json", "cfd/read_buf.model.json"])
def test_malformed_model_exits_2_naming_it(trained, tmp_path, name, how):
    if how in STAGE_EDITS:
        corrupt = lambda text: json.dumps(STAGE_EDITS[how](json.loads(text)))  # noqa: E731
        code, err, target = _diagnose_corrupted(trained, tmp_path, name, corrupt)
        assert code == 2 and "Traceback" not in err
        assert str(target) in err and "catalog_version" in err
        return
    code, err, target = _diagnose_corrupted(trained, tmp_path, name, _edit_part(name, MODEL_EDITS[how]))
    _check_names_part(code, err, target, name)


def _diagnose_with_each_module_edited(trained, tmp_path, edit):
    """Diagnose runs on the trained bundle and on a copy in which each
    stored module, the LPD and every CFD module, is passed to
    edit(module, its stage file)."""
    bundle, _, down, up = trained
    copy = tmp_path / "bundle"
    shutil.copytree(bundle, copy)
    for name in ("lpd.json", "cfd.json"):
        stage = json.loads((copy / name).read_text(encoding="utf-8"))
        for module in [stage] if "model" in stage else stage["modules"].values():
            edit(module, stage)
        (copy / name).write_text(json.dumps(stage), encoding="utf-8")
    return [_run("diagnose", "--bundle", str(b), "--down", str(down), "--up", str(up)) for b in (bundle, copy)]


def test_model_with_a_catalog_version_still_loads(trained, tmp_path):
    # Bundles written before the version moved to the stage files also
    # carry it in every model; it is ignored.
    def add_version(module, stage):
        module["model"]["catalog_version"] = stage["catalog_version"]

    runs = _diagnose_with_each_module_edited(trained, tmp_path, add_version)
    assert runs[0] == runs[1] and runs[0][0] in (0, 10, 20)


def test_selection_repeating_the_chosen_columns_still_loads(trained, tmp_path):
    # Bundles written before the chosen columns lived only in the model
    # repeat them in each selection as chosen_q and chosen_indices; they
    # are ignored.
    def add_chosen(module, stage):
        subset = module["model"]["feature_subset"]
        module["selection"].update(chosen_q=len(subset), chosen_indices=subset)

    runs = _diagnose_with_each_module_edited(trained, tmp_path, add_chosen)
    assert runs[0] == runs[1] and runs[0][0] in (0, 10, 20)


# selection corruption -> edit of the parsed selection that int() or
# float() would have read as a plausible selection, or that leaves a
# plausible selection of which the model's columns are not a candidate
SELECTION_EDITS = {
    "bool_candidate_size": lambda sel: sel.update(candidate_sizes=[True] + sel["candidate_sizes"][1:]),
    "cv_accuracy_string": lambda sel: sel["cv_accuracy"].__setitem__(0, repr(sel["cv_accuracy"][0])),
    "cv_accuracy_bool": lambda sel: sel["cv_accuracy"].__setitem__(0, True),
    "cv_objective_extra_entry": lambda sel: sel["cv_objective"].append(0.5),
    "model_columns_not_a_candidate": lambda sel: sel.update(candidate_sizes=[q + 1000 for q in sel["candidate_sizes"]]),
}


@pytest.mark.parametrize("how", sorted(SELECTION_EDITS))
@pytest.mark.parametrize("name", ["lpd/default.selection.json", "cfd/read_buf.selection.json"])
def test_malformed_selection_exits_2_naming_it(trained, tmp_path, name, how):
    code, err, target = _diagnose_corrupted(trained, tmp_path, name, _edit_part(name, SELECTION_EDITS[how]))
    _check_names_part(code, err, target, name)


# database corruption -> edit of the parsed database file.  The sidecar
# ids are the parts the edit hit when a database was a CSV plus a JSON
# sidecar.  The scaler, selected-index and stage edits add a key of the
# older layout that stored those three, which loading refuses.
DATABASE_EDITS = {
    "row_width": lambda db: db["X"][1].__delitem__(slice(-3, None)),
    "sidecar_missing_key": lambda db: db.pop("catalog_version"),
    "sidecar_wrong_type": lambda db: db.update(fault_registry=["read_buf"]),
    "sidecar_scaler_shape": lambda db: db.update(scaler={"min": [0.0], "max": [1.0, 2.0]}),
    "sidecar_fractional_index": lambda db: db.update(selected_features=[0.9, True, 3]),
    "sidecar_fractional_registry": lambda db: db["fault_registry"].update(read_buf=3.5),
    "rows_missing": lambda db: db["X"].pop(),
    "rows_not_a_list": lambda db: db.update(X="x"),
    "cell_infinite": lambda db: db["X"][0].__setitem__(0, float("inf")),
    "cell_huge_integer": lambda db: db["X"][0].__setitem__(0, 10**400),
    "cell_string": lambda db: db["X"][0].__setitem__(0, repr(db["X"][0][0])),
    "cell_bool": lambda db: db["X"][0].__setitem__(1, True),
    "label_float": lambda db: db["y"].__setitem__(0, 1.5),
    "label_bool": lambda db: db["y"].__setitem__(0, True),
    "label_huge": lambda db: db["y"].__setitem__(0, 10**30),
    "label_not_in_registry": lambda db: db["y"].__setitem__(0, 9),
    "feature_name_not_a_string": lambda db: db["feature_names"].__setitem__(0, 7),
    "optimum_without_selection": lambda db: db.update(stage="optimum"),
    "legacy_stage_key": lambda db: db.update(stage="preliminary"),
}


@pytest.mark.parametrize("how", ["sidecar_truncated", *DATABASE_EDITS])
def test_corrupt_database_exits_2_naming_it(tmp_path, how):
    _, client = _databases(tmp_path)
    text = client.read_text(encoding="utf-8")
    if how == "sidecar_truncated":
        text = text[: len(text) // 2]
    else:
        stored = json.loads(text)
        DATABASE_EDITS[how](stored)
        text = json.dumps(stored)
    client.write_text(text, encoding="utf-8")
    code, _, err = _run("train", "--db", str(client), "--stage", "cfd", "--out", str(tmp_path / "bundle"))
    assert code == 2
    assert "Traceback" not in err
    assert str(client) in err


def test_old_csv_database_exits_2_naming_it(tmp_path):
    # A database in the layout of a CSV of rows plus a JSON sidecar.
    _, client = _databases(tmp_path)
    stored = json.loads(client.read_text(encoding="utf-8"))
    rows = [",".join([f"f_{n}" for n in stored["feature_names"]] + ["label"])]
    rows += [",".join([repr(v) for v in x] + [str(label)]) for x, label in zip(stored["X"], stored["y"])]
    client.write_text("\n".join(rows) + "\n", encoding="utf-8")
    meta = {"stage": "preliminary", "scaler": {"min": [], "max": []}, "selected_features": []}
    meta.update((key, stored[key]) for key in ("catalog_version", "fault_registry"))
    client.with_name(client.name + ".meta.json").write_text(json.dumps(meta), encoding="utf-8")
    code, _, err = _run("train", "--db", str(client), "--stage", "cfd", "--out", str(tmp_path / "bundle"))
    assert code == 2 and "Traceback" not in err
    assert str(client) in err
    assert not (tmp_path / "bundle").exists()


def _traces(trained, tmp_path, rows, name="traces"):
    """A traces directory holding a copy of the trained fixture's pair for
    each labels row (id, link tag, client tag), and its labels file."""
    _, _, down, up = trained
    traces = tmp_path / name
    traces.mkdir(parents=True)
    for pair_id, _, _ in rows:
        shutil.copy(down, traces / f"{pair_id}.down.csv")
        shutil.copy(up, traces / f"{pair_id}.up.csv")
    lines = ["id,link,client", *(",".join(row) for row in rows)]
    (traces / "labels.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return traces


# A link database of this build's catalog version but of other features.
# Each once trained with exit 0, to a 73-wide bundle or to one that reads
# the wrong columns.
FOREIGN_FEATURES = {
    "last_column_dropped": lambda db: replace(db, feature_names=db.feature_names[:-1], X=db.X[:, :-1].copy()),
    "columns_reversed": lambda db: replace(db, feature_names=db.feature_names[::-1], X=db.X[:, ::-1].copy()),
}


# `train` is the one command that reads a database.
@pytest.mark.parametrize("command", ["train"])
@pytest.mark.parametrize("how", sorted(FOREIGN_FEATURES))
def test_database_of_other_features_exits_4_naming_it(trained, tmp_path, how, command):
    db = tmp_path / "foreign.json"
    save_database(FOREIGN_FEATURES[how](load_database(_databases(tmp_path)[0])), db)
    before = db.read_bytes()
    out = tmp_path / "out"
    code, _, err = _run(command, "--db", str(db), "--stage", "lpd", "--out", str(out))
    assert code == 4 and "Traceback" not in err
    assert err.startswith("error:") and str(db) in err
    assert not out.exists() and db.read_bytes() == before


@pytest.mark.parametrize("command", ["extract", "eval"])
def test_label_row_without_its_pair_exits_2_naming_it(trained, tmp_path, command):
    # The row was once skipped, and the command exited 0 on the other pairs.
    traces = _traces(trained, tmp_path, [("a", "HEALTHY", "HEALTHY"), ("ghost", "FAULTY", "HEALTHY")])
    (traces / "ghost.up.csv").unlink()
    out = tmp_path / "out" / "result"
    argv = {"extract": ("--kind", "link"), "eval": ("--bundle", str(trained[0]))}[command]
    code, _, err = _run(command, *argv, "--traces", str(traces), "--out", str(out))
    assert code == 2 and "Traceback" not in err
    assert str(traces / "labels.csv") in err and "'ghost'" in err
    assert not out.parent.exists()


def _orphan_down(traces):
    (traces / "b.down.csv").write_bytes((traces / "a.down.csv").read_bytes())


def _orphan_up(traces):
    (traces / "b.up.csv").write_bytes((traces / "a.up.csv").read_bytes())


def _unlabelled_pair(traces):
    _orphan_down(traces)
    _orphan_up(traces)


def _no_pairs(traces):
    for path in traces.glob("a.*.csv"):
        path.unlink()
    (traces / "labels.csv").write_text("id,link,client\n", encoding="utf-8")


@pytest.mark.parametrize("command", ["extract", "eval"])
@pytest.mark.parametrize(
    "damage, message",
    [
        (_orphan_down, "orphan trace b.down.csv: missing partner b.up.csv"),
        (_orphan_up, "orphan trace b.up.csv: missing partner b.down.csv"),
        (_unlabelled_pair, "no label row for trace pair 'b'"),
        (_no_pairs, "no trace pairs found in {traces}"),
    ],
    ids=["orphan_down", "orphan_up", "pair_without_row", "no_pairs"],
)
def test_corpus_without_a_match_exits_2_naming_it(trained, tmp_path, command, damage, message):
    traces = _traces(trained, tmp_path, [("a", "HEALTHY", "HEALTHY")])
    damage(traces)
    out = tmp_path / "out" / "result"
    argv = {"extract": ("--kind", "link"), "eval": ("--bundle", str(trained[0]))}[command]
    code, _, err = _run(command, *argv, "--traces", str(traces), "--out", str(out))
    assert code == 2 and "Traceback" not in err
    assert message.format(traces=traces) in err
    assert not out.parent.exists()


def test_missing_traces_directory_exits_2_naming_the_row(trained, tmp_path):
    traces = _traces(trained, tmp_path, [("a", "HEALTHY", "HEALTHY")])
    missing = tmp_path / "nowhere"
    code, _, err = _run("extract", "--kind", "link", "--traces", str(missing), "--labels", str(traces / "labels.csv"),
                        "--out", str(tmp_path / "out.json"))
    assert code == 2 and "Traceback" not in err
    assert f"row 'a' has no trace a.down.csv or a.up.csv in {missing}" in err


def _grouped(trained, tmp_path):
    """A corpus root of the groups `a` (pairs a1, a2) and `b` (pair b1);
    `b` holds a flat corpus of its own (pair n1) one level further down."""
    root = tmp_path / "root"
    _traces(trained, root, [("a1", "HEALTHY", "HEALTHY"), ("a2", "FAULTY", "HEALTHY")], "a")
    _traces(trained, root, [("b1", "FAULTY", "read_buf")], "b")
    _traces(trained, root / "b", [("n1", "HEALTHY", "HEALTHY")], "nested")
    return root


def test_grouped_corpus_is_read_group_by_group_one_level_deep(trained, tmp_path):
    root = _grouped(trained, tmp_path)
    linked = tmp_path / "linked"
    linked.mkdir()
    for group in ("a", "b"):
        (linked / group).symlink_to(root / group, target_is_directory=True)
    for corpus in (root, linked):
        rows = read_corpus(corpus)
        assert [(pair_id, down.parent.name, up.parent.name, link, client) for pair_id, down, up, link, client in rows] == [
            ("a1", "a", "a", "HEALTHY", "HEALTHY"),
            ("a2", "a", "a", "FAULTY", "HEALTHY"),
            ("b1", "b", "b", "FAULTY", "read_buf"),
        ]
        db = tmp_path / f"{corpus.name}.json"
        code, out, err = _run("extract", "--traces", str(corpus), "--kind", "link", "--out", str(db))
        assert code == 0, err
        assert json.loads(out)["rows"] == 3
        assert load_database(db).y.tolist() == [LINK_HEALTHY, LINK_FAULTY, LINK_FAULTY]


def test_labels_option_reads_one_flat_directory(trained, tmp_path):
    # The root holds a pair of its own but no labels file: without
    # --labels it is read as the groups `a` and `b`.
    root = _grouped(trained, tmp_path)
    for suffix in (".down.csv", ".up.csv"):
        shutil.copy(root / "a" / f"a1{suffix}", root / f"r1{suffix}")
    labels = tmp_path / "labels.csv"
    labels.write_text("id,link,client\nr1,FAULTY,HEALTHY\n", encoding="utf-8")
    assert [row[0] for row in read_corpus(root)] == ["a1", "a2", "b1"]
    assert [row[0] for row in read_corpus(root, labels)] == ["r1"]
    code, out, err = _run("extract", "--traces", str(root), "--labels", str(labels), "--kind", "link",
                          "--out", str(tmp_path / "link.json"))
    assert code == 0, err
    assert json.loads(out)["rows"] == 1


def test_group_without_its_labels_file_exits_2_naming_it(trained, tmp_path):
    # Its subdirectory `nested` has a labels file, which is not read in its stead.
    root = _grouped(trained, tmp_path)
    (root / "b" / "labels.csv").unlink()
    out = tmp_path / "out" / "link.json"
    code, _, err = _run("extract", "--traces", str(root), "--kind", "link", "--out", str(out))
    assert code == 2 and "Traceback" not in err
    assert str(root / "b" / "labels.csv") in err
    assert not out.parent.exists()


def test_dotted_eval_prefixes_keep_their_own_reports(trained, tmp_path):
    # Both once wrote r/eval.json and r/eval.txt, the second over the first.
    reports = {}
    for name, link in (("link", "FAULTY"), ("client", "HEALTHY")):
        traces = _traces(trained, tmp_path, [("a", link, "HEALTHY")], name)
        code, out, err = _run("eval", "--bundle", str(trained[0]), "--traces", str(traces),
                              "--out", str(tmp_path / "r" / f"eval.{name}"))
        assert code == 0, err
        reports[name] = json.loads(out)
    assert reports["link"] != reports["client"]
    written = sorted(path.name for path in (tmp_path / "r").iterdir())
    assert written == ["eval.client.json", "eval.client.txt", "eval.link.json", "eval.link.txt"]
    for name, report in reports.items():
        assert json.loads((tmp_path / "r" / f"eval.{name}.json").read_text(encoding="utf-8")) == report


def test_repeated_label_id_exits_2_naming_it(trained, tmp_path):
    # The second row once replaced the first, and extract exited 0.
    traces = _traces(trained, tmp_path, [("a", "HEALTHY", "HEALTHY"), ("a", "FAULTY", "HEALTHY")])
    out = tmp_path / "link.json"
    code, _, err = _run("extract", "--traces", str(traces), "--kind", "link", "--out", str(out))
    assert code == 2 and "Traceback" not in err
    assert str(traces / "labels.csv") in err and "repeated id 'a'" in err
    assert not out.exists()


# Each labels row once exited 0: the link tag read as a healthy link, or the
# unknown fault scored as missed.
@pytest.mark.parametrize(
    "link, client, tag",
    [
        ("Faulty", "HEALTHY", "Faulty"),
        ("HEALTHY", "readbuf", "readbuf"),
        ("HEALTHY", "read_buf+readbuf", "readbuf"),
        ("HEALTHY", "HEALTHY+read_buf", "HEALTHY+read_buf"),
    ],
)
def test_eval_of_an_unknown_label_exits_2_before_diagnosing(trained, tmp_path, monkeypatch, link, client, tag):
    from netdiag import evaluation

    def refuse(*args):
        raise AssertionError("a pair was diagnosed")

    monkeypatch.setattr(evaluation, "diagnose", refuse)
    traces = _traces(trained, tmp_path, [("a", "HEALTHY", "HEALTHY"), ("b", link, client)])
    out = tmp_path / "report" / "eval"
    code, _, err = _run("eval", "--bundle", str(trained[0]), "--traces", str(traces), "--out", str(out))
    assert code == 2 and "Traceback" not in err
    assert f"unknown label tag: {tag!r}" in err
    assert not out.parent.exists()


@pytest.mark.parametrize("ts", ["nan", "inf", "-inf"])
def test_non_finite_timestamp_exits_2(trained, tmp_path, ts):
    bundle, _, down, up = trained
    lines = down.read_text(encoding="utf-8").splitlines()
    lines[4] = ts + lines[4][lines[4].index(","):]
    bad = tmp_path / "bad.down.csv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, _, err = _run("diagnose", "--bundle", str(bundle), "--down", str(bad), "--up", str(up))
    assert code == 2
    assert "Traceback" not in err
    assert "row 3" in err and "ts" in err


def test_swapped_traces_exit_2_naming_roles(trained):
    bundle, _, down, up = trained
    code, _, err = _run("diagnose", "--bundle", str(bundle), "--down", str(up), "--up", str(down))
    assert code == 2
    assert "Traceback" not in err
    assert "download" in err and "captured at the client" in err


def test_rtt_samples_near_float_range_exit_2(trained, tmp_path):
    """Two RTT samples (1e300 and ~1.7e308 s) whose squared deviation overflows."""
    bundle, _, _, up = trained
    down = tmp_path / "huge.down.csv"
    down.write_text(
        "#capture=client,transfer=download,bytes=1\n"
        "ts,dir,seq,ack,len,syn,fin,rst,ack_flag,win,sack_cnt\n"
        "0.0,c2s,0,0,0,1,0,0,0,65535,0\n"
        "1e300,s2c,0,1,0,1,0,0,1,65535,0\n"
        "1e300,c2s,1,1,0,0,1,0,1,65535,0\n"
        "1.7e308,s2c,1,2,0,0,0,0,1,65535,0\n",
        encoding="utf-8",
    )
    code, _, err = _run("diagnose", "--bundle", str(bundle), "--down", str(down), "--up", str(up))
    assert code == 2
    assert "Traceback" not in err
    assert "down_rtt_stdev is not finite" in err


def test_output_under_a_file_exits_2(trained, tmp_path):
    # A path component that is a file: the directory cannot be made.
    bundle, _, down, up = trained
    blocker = tmp_path / "afile"
    blocker.write_text("", encoding="utf-8")
    db = _databases(tmp_path)[1]
    code, _, err = _run("train", "--db", str(db), "--stage", "cfd", "--out", str(blocker / "bundle"))
    assert code == 2 and "Traceback" not in err and "afile" in err
    traces = tmp_path / "traces"
    traces.mkdir()
    shutil.copy(down, traces / "p.down.csv")
    shutil.copy(up, traces / "p.up.csv")
    (traces / "labels.csv").write_text("id,link,client\np,HEALTHY,HEALTHY\n", encoding="utf-8")
    code, _, err = _run("eval", "--bundle", str(bundle), "--traces", str(traces), "--out", str(blocker / "r" / "eval"))
    assert code == 2 and "Traceback" not in err and "afile" in err



def _corpus(outdir):
    return {path.name: path.read_bytes() for path in sorted(outdir.iterdir())}


def test_global_options_before_the_subcommand_are_kept(tmp_path):
    synth = ("synth", "--preset", "healthy", "--bytes", "20000", "--out")
    runs = {
        name: _run(*argv)
        for name, argv in {
            "before": ("--seed", "5", *synth, str(tmp_path / "before")),
            "after": (*synth, str(tmp_path / "after"), "--seed", "5"),
            "unseeded": (*synth, str(tmp_path / "unseeded")),
            "quiet": ("--quiet", *synth, str(tmp_path / "quiet")),
        }.items()
    }
    assert all(code == 0 for code, _, _ in runs.values())
    assert _corpus(tmp_path / "before") == _corpus(tmp_path / "after")
    assert _corpus(tmp_path / "before") != _corpus(tmp_path / "unseeded")
    assert runs["unseeded"][2] and not runs["quiet"][2]


@pytest.mark.parametrize(
    "text, named",
    [
        ('{"bytes": "lots"}', "bytes"),
        ('{"bytes": 0}', "bytes"),
        ('{"bytes": true}', "bytes"),
        ('{"seed": [1]}', "seed"),
        ('{"seed": 1.5}', "seed"),
        ('{"client": {"seed": "x"}}', "client.seed"),
        ('{"client": {"read_buffer": 1.5}}', "client.read_buffer"),
        # A buffer below one segment once ended in a conservation error, exit 1.
        ('{"client": {"read_buffer": 1000}}', "client.read_buffer"),
        ('{"client": {"write_buffer": 1000}}', "client.write_buffer"),
        ("[1]", "JSON object"),
        # Each of these once ran: SACK on, a 1 s delay, the pairs read as an object.
        ('{"client": {"sack_enabled": "false"}}', "client.sack_enabled"),
        ('{"link": {"bandwidth": 1e6, "one_way_delay": true}}', "link.one_way_delay"),
        ('{"link": [["bandwidth", 1e6], ["one_way_delay", 0.01]]}', "link must be a JSON object"),
        ('{"client": {"cwnd_growth_profile": "vegas"}}', "not a valid CwndProfile"),
        ('{"client": {"reno": true}}', "client: unknown key 'reno'"),
    ],
)
def test_malformed_scenario_exits_2(tmp_path, text, named):
    path = tmp_path / "scenario.json"
    if text.startswith("{"):
        text = '{"link": {"bandwidth": 1e6, "one_way_delay": 0.01}, ' + text[1:]
    path.write_text(text, encoding="utf-8")
    code, _, err = _run("synth", "--scenario", str(path), "--out", str(tmp_path / "out"))
    assert code == 2 and "Traceback" not in err
    assert err.startswith("error:") and named in err


def test_old_layout_bundle_exits_2_naming_lpd_json(trained, tmp_path):
    # The same stages in the layout of one directory per stage plus registry.json.
    bundle, _, down, up = trained
    lpd, cfd = (json.loads((bundle / f"{stage}.json").read_text(encoding="utf-8")) for stage in ("lpd", "cfd"))
    old = tmp_path / "old"
    for stage, parts in (("lpd", {lpd["link_profile"]: lpd}), ("cfd", cfd["modules"])):
        (old / stage).mkdir(parents=True)
        for name, part in parts.items():
            for kind in ("model", "selection"):
                (old / stage / f"{name}.{kind}.json").write_text(json.dumps(part[kind]), encoding="utf-8")
    registry = {"catalog_version": lpd["catalog_version"], "lpd_profile": lpd["link_profile"],
                "fault_registry": cfd["fault_registry"]}
    (old / "registry.json").write_text(json.dumps(registry), encoding="utf-8")
    code, _, err = _run("diagnose", "--bundle", str(old), "--down", str(down), "--up", str(up))
    assert code == 2 and "Traceback" not in err
    assert "lpd.json" in err


def test_mixed_catalog_stage_files_exit_4(trained, tmp_path):
    bundle, _, down, up = trained
    copy = tmp_path / "bundle"
    shutil.copytree(bundle, copy)
    cfd = json.loads((copy / "cfd.json").read_text(encoding="utf-8"))
    (copy / "cfd.json").write_text(json.dumps(dict(cfd, catalog_version="v0")), encoding="utf-8")
    code, _, err = _run("diagnose", "--bundle", str(copy), "--down", str(down), "--up", str(up))
    assert code == 4 and "Traceback" not in err
    assert str(copy / "cfd.json") in err and "'v0'" in err


def test_link_profile_names_no_file(tmp_path):
    link, _ = _databases(tmp_path)
    config = tmp_path / "config.json"
    config.write_text('{"link_profile": "../../esc"}', encoding="utf-8")
    out = tmp_path / "out" / "bundle"
    code, _, err = _run("train", "--config", str(config), "--db", str(link), "--stage", "lpd", "--out", str(out))
    assert code == 0, err
    assert not list(tmp_path.rglob("esc*"))
    assert [p.name for p in out.iterdir()] == ["lpd.json"]
    assert json.loads((out / "lpd.json").read_text(encoding="utf-8"))["link_profile"] == "../../esc"


# Each list once loaded and trained on all 74 features with exit 0.
@pytest.mark.parametrize("sizes, expected", [([], 2), ([0], 2), ([-3, 0], 2), ([500], 3)])
def test_candidate_sizes_selecting_nothing_exit_without_a_stage(tmp_path, sizes, expected):
    link, _ = _databases(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"lpd": {"candidate_sizes": sizes}}), encoding="utf-8")
    out = tmp_path / "bundle"
    code, _, err = _run("train", "--config", str(config), "--db", str(link), "--stage", "lpd", "--out", str(out))
    assert code == expected and "Traceback" not in err
    assert err.startswith("error:") and "candidate" in err
    assert not (out / "lpd.json").exists()


@pytest.mark.parametrize("stage, db_index, named", [("lpd", 1, "link-labeled"), ("cfd", 0, "client-labeled")])
def test_train_on_the_wrong_label_kind_exits_2(tmp_path, stage, db_index, named):
    db = _databases(tmp_path)[db_index]
    out = tmp_path / "bundle"
    code, _, err = _run("train", "--db", str(db), "--stage", stage, "--out", str(out))
    assert code == 2 and "Traceback" not in err
    assert err.startswith("error:") and named in err
    assert not out.exists()


@pytest.mark.parametrize("stage, db_index", [("lpd", 0), ("cfd", 1)])
def test_train_for_a_foreign_catalog_exits_4(tmp_path, stage, db_index):
    # A bundle made for a catalog this build lacks is one no build loads.
    db = tmp_path / "db.json"
    save_database(replace(load_database(_databases(tmp_path)[db_index]), catalog_version="v2"), db)
    config = tmp_path / "config.json"
    config.write_text('{"catalog_version": "v2"}', encoding="utf-8")
    out = tmp_path / "bundle"
    code, _, err = _run("train", "--config", str(config), "--db", str(db), "--stage", stage, "--out", str(out))
    assert code == 4 and "Traceback" not in err
    assert err.startswith("error:") and "'v2'" in err
    assert not out.exists()


def test_synth_scenario_labels_the_client_it_configures(tmp_path):
    path = tmp_path / "scenario.json"
    scenario = {"link": {"bandwidth": 1e6, "one_way_delay": 0.01}, "client": {"read_buffer": 16384}, "bytes": 20000}
    path.write_text(json.dumps(scenario), encoding="utf-8")
    code, _, err = _run("synth", "--scenario", str(path), "--out", str(tmp_path / "out"))
    assert code == 0, err
    assert (tmp_path / "out" / "labels.csv").read_text(encoding="utf-8") == "id,link,client\nscenario_000,HEALTHY,read_buf\n"


def test_degenerate_scenario_exits_2_naming_it(tmp_path):
    # A 10 b/s link exceeds the simulator's event budget, which once ended
    # in a RuntimeError traceback and exit 1.
    path = tmp_path / "scenario.json"
    scenario = {"link": {"bandwidth": 10, "one_way_delay": 0.01}, "bytes": 20000, "id": "starved"}
    path.write_text(json.dumps(scenario), encoding="utf-8")
    code, _, err = _run("synth", "--scenario", str(path), "--out", str(tmp_path / "out"))
    assert code == 2 and "Traceback" not in err
    assert "scenario 'starved'" in err and "event budget" in err


def test_failed_synth_leaves_no_directory(tmp_path):
    # The corpus directory was once made before the first pair simulated,
    # so a scenario that failed left it behind, empty.
    path = tmp_path / "scenario.json"
    path.write_text('{"link": {"bandwidth": 10, "one_way_delay": 0.01}, "bytes": 20000}', encoding="utf-8")
    out = tmp_path / "out"
    code, _, err = _run("synth", "--scenario", str(path), "--out", str(out))
    assert code == 2 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("both", [True, False], ids=["both", "neither"])
def test_synth_needs_exactly_one_of_preset_and_scenario(tmp_path, both):
    # With both flags the scenario once won silently over the preset.
    scenario = tmp_path / "scenario.json"
    scenario.write_text('{"link": {"bandwidth": 1e6, "one_way_delay": 0.01}, "bytes": 20000}', encoding="utf-8")
    out = tmp_path / "out"
    flags = ["--preset", "healthy", "--scenario", str(scenario)] if both else []
    err = StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(["synth", *flags, "--bytes", "20000", "--out", str(out)])
    assert exc.value.code == 2 and "Traceback" not in err.getvalue()
    assert "--preset" in err.getvalue() and "--scenario" in err.getvalue()
    assert not out.exists()


# Each text once gave a traceback (exit 1) or was silently read as another value.
@pytest.mark.parametrize(
    "text, named",
    [
        ('{"seed": "x"}', "seed"),
        ('{"seed": 1.7}', "seed"),
        ("[]", "JSON object"),
        ('{"fault_registry": {"a": "x"}}', "fault registry"),
        ('{"fault_registry": ["a"]}', "fault_registry"),
        ('{"fault_registry": {"read_buf": 0}}', "reserved"),
        ('{"link_profile": 5}', "link_profile"),
        ('{"lpd": []}', "lpd"),
        ('{"lpd": {"kernel": 3}}', "lpd.kernel"),
        ('{"lpd": {"cv_folds": 2.5}}', "cv_folds"),
        # cv_folds below 2 loaded, and train exited 3 as if training had failed
        ('{"lpd": {"cv_folds": 1}}', "cv_folds"),
        ('{"cfd": {"default": {"cv_folds": 0}}}', "cv_folds"),
        ('{"lpd": {"max_iter": true}}', "max_iter"),
        ('{"lpd": {"C": "10"}}', "C"),
        ('{"lpd": {"tol": true}}', "tol"),
        ('{"lpd": {"kernel": {"variant": "rbf", "sigma": true}}}', "sigma"),
        ('{"lpd": {"kernel": {"variant": "rbf", "sigma": Infinity}}}', "sigma"),
        ('{"cfd": {"default": {"fp_penalty": NaN}}}', "fp_penalty"),
        ('{"cfd": {"default": 3}}', "cfd.default"),
        ('{"cfd": {"default": {"candidate_sizes": [true]}}}', "candidate_sizes"),
        # Each of these once loaded: training rewarded false alarms, raised an
        # OverflowError, or wrote NaN and blamed the write of lpd.json.
        ('{"cfd": {"default": {"fp_penalty": -2}}}', "cfd.default.fp_penalty"),
        ('{"lpd": {"kernel": {"variant": "rbf", "sigma": 1e300}}}', "sigma"),
        ('{"lpd": {"kernel": {"variant": "rbf", "sigma": 1e-300}}}', "sigma"),
        # these loaded, and training overflowed into an identity kernel
        ('{"lpd": {"kernel": {"variant": "rbf", "sigma": 1e-160}}}', "sigma"),
        ('{"cfd": {"default": {"kernel": {"variant": "rbf", "sigma": 2e-154}}}}', "sigma"),
        ('{"lpd": {"C": 1e-310}}', "C"),
        ('{"cfd": {"default": {"C": 1e-308}}}', "C"),
        # a sigma without a variant keeps the module's kernel, which has none
        ('{"cfd": {"read_buf": {"kernel": {"sigma": 1.0}}}}', "cubic kernel"),
    ],
)
def test_malformed_config_exits_2(tmp_path, text, named):
    config = tmp_path / "config.json"
    config.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    code, _, err = _run("synth", "--config", str(config), "--preset", "healthy", "--bytes", "20000", "--out", str(out))
    assert code == 2 and "Traceback" not in err
    assert err.startswith("error:") and named in err
    assert not out.exists()


@pytest.mark.parametrize(
    "cfd, fault, kernel",
    [
        ({"read_buf": {"kernel": {}}}, "read_buf", KernelSpec("cubic")),
        ({"write_buf": {"kernel": {"sigma": 3.0}}}, "write_buf", KernelSpec("rbf", 3.0)),
        ({"write_buf": {"kernel": {"variant": "rbf"}}}, "write_buf", KernelSpec("rbf", default_sigma(16))),
        ({"write_buf": {"kernel": {"variant": "linear"}}}, "write_buf", KernelSpec("linear")),
        ({"default": {"kernel": {"variant": "rbf", "sigma": 2.0}}, "read_buf": {"kernel": {}}}, "read_buf",
         KernelSpec("rbf", 2.0)),
    ],
)
def test_kernel_override_keeps_the_layer_below(tmp_path, cfd, fault, kernel):
    # A kernel without a variant once reset the module to quadratic: {} gave
    # read_buf a quadratic kernel, and a lone sigma on write_buf exited 2.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"cfd": cfd}), encoding="utf-8")
    assert load_config(str(config), None).cfd[fault].svm.kernel == kernel


def test_train_keeps_the_module_kernel_under_an_empty_kernel_override(trained, tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"cfd": {"read_buf": {"kernel": {}}, "write_buf": {"kernel": {"sigma": 3.0}}}}', encoding="utf-8")
    client_db = trained[0].parent / "client.json"
    code, out, err = _run("train", "--config", str(config), "--db", str(client_db), "--stage", "cfd",
                          "--out", str(tmp_path / "bundle"))
    assert code == 0, err
    modules = json.loads(out)["modules"]
    assert (modules["read_buf"]["kernel"], modules["write_buf"]["kernel"]) == ("cubic", "rbf")


@pytest.mark.parametrize(
    "preset, option, value",
    [("healthy", "--bytes", "0"), ("healthy", "--bytes", "-5"),
     ("paper-matrix", "--per-class", "0"), ("paper-matrix", "--per-class", "-1")],
)
def test_synth_counts_below_one_exit_2(tmp_path, preset, option, value):
    # --bytes 0 once ended in a ValueError traceback, --per-class 0 in an
    # empty corpus and exit 0.
    out = tmp_path / "out"
    code, _, err = _run("synth", "--preset", preset, "--bytes", "20000", option, value, "--out", str(out))
    assert code == 2 and "Traceback" not in err
    assert err.startswith("error:") and option in err
    assert not out.exists()


@pytest.mark.parametrize("scenario_id", ["", ".", "..", ".hidden", "../x", "a/b", "a\\b", "a,b", "a\nb"])
def test_scenario_id_must_be_a_plain_name(tmp_path, scenario_id):
    path = tmp_path / "scenario.json"
    scenario = {"link": {"bandwidth": 1e6, "one_way_delay": 0.01}, "bytes": 20000, "id": scenario_id}
    path.write_text(json.dumps(scenario), encoding="utf-8")
    code, _, err = _run("synth", "--scenario", str(path), "--out", str(tmp_path / "sc" / "out"))
    assert code == 2 and "Traceback" not in err
    assert err.startswith("error:") and "plain name" in err
    assert [p.name for p in tmp_path.rglob("*")] == ["scenario.json"]


_FUZZ = "<fuzz>"
FUZZ_VALUES = ["1e999", "true", "null", '"x"', "[]", "{}", "-1", "1e300", "-1e300", "1e-300", "9223372036854775808"]


def _node_paths(node, path=()):
    """The path to every node of a parsed JSON document, where a list
    stands for its first and last items."""
    yield path
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _node_paths(node[key], path + (key,))
    elif isinstance(node, list) and node:
        for i in sorted({0, len(node) - 1}):
            yield from _node_paths(node[i], path + (i,))


def _fuzz(data, texts: dict) -> dict:
    """The JSON texts (file name -> text) with one of them cut at any
    offset, or with any node of one replaced by one of FUZZ_VALUES."""
    texts = dict(texts)
    if data.draw(st.integers(0, 3), label="truncate unless") == 0:
        name = data.draw(st.sampled_from(sorted(texts)), label="file")
        texts[name] = texts[name][: data.draw(st.integers(0, len(texts[name]) - 1), label="offset")]
    else:
        docs = {name: {"": json.loads(text)} for name, text in texts.items()}
        targets = [(name, ("",) + path) for name in sorted(docs) for path in _node_paths(docs[name][""])]
        name, path = data.draw(st.sampled_from(targets), label="node")
        functools.reduce(operator.getitem, path[:-1], docs[name])[path[-1]] = _FUZZ
        texts[name] = json.dumps(docs[name][""]).replace(json.dumps(_FUZZ), data.draw(st.sampled_from(FUZZ_VALUES)))
    return texts


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzzed_bundle_exits_with_a_documented_code(trained, data):
    """A stage file cut at any offset, or with any JSON node replaced,
    gives a verdict or a typed error: never a traceback."""
    bundle, _, down, up = trained
    texts = _fuzz(data, {name: (bundle / name).read_text(encoding="utf-8") for name in ("lpd.json", "cfd.json")})
    work = bundle.parent / "fuzzed"
    work.mkdir(exist_ok=True)
    for file_name, text in texts.items():
        (work / file_name).write_text(text, encoding="utf-8")
    code, _, err = _run("diagnose", "--bundle", str(work), "--down", str(down), "--up", str(up))
    assert code in (0, 2, 4, 10, 20), err
    assert "Traceback" not in err


# sequence numbers at and past the wrap, so a fuzzed trace also reaches the
# extractor's unwrapping and the reader's range check
WRAP_SEQS = ["4294967000", "4294967295", "4294967296"]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzzed_trace_exits_with_a_documented_code(trained, data):
    """A trace file cut at any offset, or with any cell, header cells
    included, replaced by a fuzz value or a sequence number near the wrap,
    gives a verdict or a typed error: never a traceback."""
    bundle, _, down, up = trained
    texts = {path: path.read_text(encoding="utf-8") for path in (down, up)}
    target = data.draw(st.sampled_from([down, up]), label="file")
    text = texts[target]
    if data.draw(st.integers(0, 3), label="truncate unless") == 0:
        texts[target] = text[: data.draw(st.integers(0, len(text) - 1), label="offset")]
    else:
        lines = text.split("\n")
        i = data.draw(st.integers(0, len(lines) - 2), label="line")
        cells = lines[i].split(",")
        cells[data.draw(st.integers(0, len(cells) - 1), label="cell")] = data.draw(
            st.sampled_from(FUZZ_VALUES + WRAP_SEQS), label="value"
        )
        lines[i] = ",".join(cells)
        texts[target] = "\n".join(lines)
    work = bundle.parent / "fuzzed_traces"
    work.mkdir(exist_ok=True)
    for path, fuzzed in texts.items():
        (work / path.name).write_text(fuzzed, encoding="utf-8")
    code, _, err = _run("diagnose", "--bundle", str(bundle), "--down", str(work / down.name), "--up", str(work / up.name))
    assert code in (0, 2, 10, 20), err
    assert "Traceback" not in err


LABELS_ROWS = [("a", "HEALTHY", "HEALTHY"), ("b", "FAULTY", "read_buf"), ("c", "HEALTHY", "sack_disabled")]
# tags, ids, separators, control characters, a byte that is not UTF-8
# (written through surrogateescape) and a cell with a comma in it
LABELS_VALUES = FUZZ_VALUES + [
    "", " ", "HEALTHY", "FAULTY", "healthy", "read_buf+write_buf", "HEALTHY+read_buf", "+", "a", "b", "id",
    "../a", "a.down", "a,b", "\r", "\x00", "\ufeffid", "\udcff",
]


@pytest.fixture(scope="module")
def labelled(trained, tmp_path_factory):
    """A corpus of three copies of the trained fixture's pair, and its labels text."""
    traces = tmp_path_factory.mktemp("labelled")
    for pair_id, _, _ in LABELS_ROWS:
        shutil.copy(trained[2], traces / f"{pair_id}.down.csv")
        shutil.copy(trained[3], traces / f"{pair_id}.up.csv")
    return traces, "\n".join(["id,link,client", *(",".join(row) for row in LABELS_ROWS)]) + "\n"


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzzed_labels_exit_with_a_documented_code(trained, labelled, data):
    """A labels file cut at any offset, without one of its lines, or with
    any cell, header cells included, replaced by a fuzz value, extracts
    and evaluates or ends in a typed error: never a traceback."""
    traces, text = labelled
    how = data.draw(st.sampled_from(["cut", "drop", "cell"]), label="damage")
    lines = text.split("\n")
    if how == "cut":
        text = text[: data.draw(st.integers(0, len(text) - 1), label="offset")]
    elif how == "drop":
        del lines[data.draw(st.integers(0, len(lines) - 2), label="line")]
        text = "\n".join(lines)
    else:
        i = data.draw(st.integers(0, len(lines) - 2), label="line")
        cells = lines[i].split(",")
        cells[data.draw(st.integers(0, len(cells) - 1), label="cell")] = data.draw(
            st.sampled_from(LABELS_VALUES), label="value"
        )
        lines[i] = ",".join(cells)
        text = "\n".join(lines)
    work = traces.parent / "fuzzed_labels"
    work.mkdir(exist_ok=True)
    labels = work / "labels.csv"
    labels.write_bytes(text.encode("utf-8", "surrogateescape"))
    kind = data.draw(st.sampled_from(["link", "client"]), label="kind")
    for argv in (
        ("extract", "--kind", kind, "--out", str(work / "db.json")),
        ("eval", "--bundle", str(trained[0]), "--out", str(work / "report" / "eval")),
    ):
        code, _, err = _run(*argv, "--traces", str(traces), "--labels", str(labels))
        assert code in (0, 2), err
        assert "Traceback" not in err


# Every key of a config, each away from its default, so each is fuzzed.
_PIPELINE = {"kernel": {"variant": "rbf", "sigma": 2.0}, "C": 5.0, "max_iter": 200, "tol": 0.002,
             "candidate_sizes": [4, 8], "cv_folds": 3, "fp_penalty": 0.5}
FUZZ_CONFIG = {
    "catalog_version": CATALOG.version, "seed": 3, "fault_registry": dict(DEFAULT_FAULT_REGISTRY),
    "link_profile": "edge", "lpd": _PIPELINE,
    "cfd": {"default": _PIPELINE, "read_buf": dict(_PIPELINE, kernel={"variant": "linear"}, candidate_sizes=[6])},
}


def _train_in(work, *argv):
    """A train run into a new bundle under work exits with a documented code."""
    shutil.rmtree(work / "bundle", ignore_errors=True)
    code, _, err = _run("train", *argv, "--out", str(work / "bundle"))
    assert code in (0, 2, 3, 4, 10, 20), err
    assert "Traceback" not in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzzed_config_exits_with_a_documented_code(trained, data):
    """A config cut at any offset, or with any JSON node replaced, trains
    both stages or ends in a typed error, with no warning."""
    bundle = trained[0]
    work = bundle.parent / "fuzzed_config"
    work.mkdir(exist_ok=True)
    (work / "config.json").write_text(_fuzz(data, {"config.json": json.dumps(FUZZ_CONFIG)})["config.json"], encoding="utf-8")
    for stage, db in (("lpd", "link.json"), ("cfd", "client.json")):
        _train_in(work, "--config", str(work / "config.json"), "--db", str(bundle.parent / db), "--stage", stage)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzzed_database_exits_with_a_documented_code(trained, data):
    """A database cut at any offset, or with any JSON node replaced,
    trains or ends in a typed error, with no warning."""
    bundle = trained[0]
    work = bundle.parent / "fuzzed_database"
    work.mkdir(exist_ok=True)
    stage, name = data.draw(st.sampled_from([("lpd", "link.json"), ("cfd", "client.json")]), label="database")
    text = _fuzz(data, {name: (bundle.parent / name).read_text(encoding="utf-8")})[name]
    (work / name).write_text(text, encoding="utf-8")
    (work / "config.json").write_text(json.dumps({"lpd": _PIPELINE, "cfd": {"default": _PIPELINE}}), encoding="utf-8")
    _train_in(work, "--config", str(work / "config.json"), "--db", str(work / name), "--stage", stage)


FUZZ_SCENARIO = {
    "link": {"bandwidth": 1e6, "one_way_delay": 0.01, "loss_rate": 0.01, "reorder_rate": 0.01},
    "client": {"sack_enabled": True, "dsack_enabled": False, "read_buffer": 16384, "write_buffer": 32768,
               "cwnd_growth_profile": "renolike", "seed": 4},
    "bytes": 20000, "seed": 5, "id": "fuzzed",
}


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzzed_scenario_loads_or_is_a_typed_error(tmp_path_factory, data):
    """A scenario file cut at any offset, or with any JSON node replaced,
    loads or is an IoFailure (synth exits 2).  It is never simulated: a
    fuzzed size such as 2**63 bytes passes and would not fit in memory."""
    path = tmp_path_factory.getbasetemp() / "fuzzed_scenario.json"
    path.write_text(_fuzz(data, {"s": json.dumps(FUZZ_SCENARIO)})["s"], encoding="utf-8")
    try:
        (scenario,) = scenario_from_json(path)
    except IoFailure as exc:
        assert str(path) in str(exc)
    else:
        assert isinstance(scenario.client.cwnd_growth_profile, CwndProfile)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_solve_without_a_support_vector_exits_3_naming_it(trained, tmp_path):
    # A tol above the starting gap of 2 once trained a NaN bias, printed
    # numpy warnings and blamed the write of lpd.json.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"lpd": {"tol": 1e300}}), encoding="utf-8")
    db = trained[0].parent / "link.json"
    out = tmp_path / "bundle"
    code, _, err = _run("train", "--config", str(config), "--db", str(db), "--stage", "lpd", "--out", str(out))
    assert code == 3 and "Traceback" not in err
    assert "no support vector" in err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("C", [1e16, 1e300])
def test_repeated_signatures_with_a_vanishing_ridge_train(trained, tmp_path, C):
    # Each signature twice: with a ridge 1/C below rounding, a pair of
    # equal rows has curvature 0, which once ended in a ZeroDivisionError
    # traceback with exit 1; WSS2 takes tau = 1e-12 for it.
    link = load_database(trained[0].parent / "link.json")
    db = tmp_path / "twice.json"
    save_database(replace(link, X=np.concatenate([link.X, link.X]), y=np.concatenate([link.y, link.y])), db)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"lpd": {"C": C}}), encoding="utf-8")
    out = tmp_path / "bundle"
    code, stdout, err = _run("train", "--config", str(config), "--db", str(db), "--stage", "lpd", "--out", str(out))
    assert code == 0 and "Traceback" not in err, err
    assert json.loads(stdout)["updates"] > 0
    assert (out / "lpd.json").exists()


def test_default_catalog_is_the_builds(monkeypatch):
    # Without a config the CLI works with this build's catalog, whatever
    # its version.
    monkeypatch.delenv(ENV_CONFIG, raising=False)
    monkeypatch.setattr(features, "_CATALOG", replace(features._CATALOG, version="v9"))
    assert load_config(None, None).catalog_version == "v9"


_EXIT_CODES = {CatalogMismatch: 4, **dict.fromkeys((ConfigError, BadHeader, MalformedRow, EmptyTrace, UnknownLabel, IoFailure), 2)}


@pytest.mark.parametrize("error", NetdiagError.__subclasses__(), ids=lambda error: error.__name__)
def test_each_error_type_ends_in_its_exit_code(monkeypatch, error):
    # Any other type is a failure to train under train and a usage error elsewhere.
    monkeypatch.delenv(ENV_CONFIG, raising=False)

    def fail(args, config):
        raise error(7, "cause") if error is MalformedRow else error("cause")

    monkeypatch.setattr(cli, "cmd_train", fail)
    monkeypatch.setattr(cli, "cmd_diagnose", fail)
    runs = [
        _run("train", "--db", "db.json", "--stage", "lpd", "--out", "bundle"),
        _run("diagnose", "--bundle", "bundle", "--down", "p.down.csv", "--up", "p.up.csv"),
    ]
    assert [code for code, _, _ in runs] == [_EXIT_CODES.get(error, 3), _EXIT_CODES.get(error, 2)]
    assert all(err.startswith("error:") and "cause" in err and not out for _, out, err in runs)


# Each file once ended in a raw UnicodeDecodeError traceback with exit 1.
@pytest.mark.parametrize("reader", ["trace", "labels", "config", "scenario"])
def test_non_utf8_file_exits_2_naming_it(trained, tmp_path, reader):
    traces = _traces(trained, tmp_path, [("a", "HEALTHY", "HEALTHY")])
    bad = {
        "trace": traces / "a.down.csv",
        "labels": traces / "labels.csv",
        "config": tmp_path / "config.json",
        "scenario": tmp_path / "scenario.json",
    }[reader]
    bad.write_bytes((bad.read_bytes() if bad.exists() else b"{}") + b"\xff\n")
    out = tmp_path / "out"
    argv = {
        "trace": ("extract", "--traces", str(traces), "--kind", "link", "--out", str(out)),
        "labels": ("extract", "--traces", str(traces), "--kind", "link", "--out", str(out)),
        "config": ("synth", "--config", str(bad), "--preset", "healthy", "--bytes", "20000", "--out", str(out)),
        "scenario": ("synth", "--scenario", str(bad), "--out", str(out)),
    }[reader]
    code, _, err = _run(*argv)
    assert code == 2 and "Traceback" not in err
    assert str(bad) in err
    assert not out.exists()



def test_operator_path_from_synth_to_eval(tmp_path):
    # synth -> extract -> train both stages -> diagnose -> eval on a real
    # paper-matrix corpus: the link rows and the report span every group.
    corpus, bundle = tmp_path / "corpus", tmp_path / "bundle"
    code, _, err = _run("synth", "--preset", "paper-matrix", "--per-class", "5", "--bytes", "32768", "--out", str(corpus))
    assert code == 0, err
    for kind, traces, rows in (("link", corpus, 10 + 25 + 5), ("client", corpus / "client", 25)):
        code, out, err = _run("extract", "--traces", str(traces), "--kind", kind, "--out", str(tmp_path / f"{kind}.json"))
        assert code == 0, err
        assert json.loads(out)["rows"] == rows
    # Training takes single faults; the compounds of `multi` are refused.
    code, _, err = _run("extract", "--traces", str(corpus), "--kind", "client", "--out", str(tmp_path / "all.json"))
    assert code == 2 and "'cf_read_buf_and_write_buf_000'" in err
    for stage, kind in (("lpd", "link"), ("cfd", "client")):
        code, _, err = _run("train", "--db", str(tmp_path / f"{kind}.json"), "--stage", stage, "--out", str(bundle))
        assert code == 0, err
    pair = corpus / "multi" / "cf_read_buf_and_write_buf_000"
    code, out, err = _run("diagnose", "--bundle", str(bundle), "--down", f"{pair}.down.csv", "--up", f"{pair}.up.csv")
    verdict = json.loads(out)
    assert code == (10 if verdict["link"] == "faulty" else 20 if verdict["client_faults"] else 0), err
    code, out, err = _run("eval", "--bundle", str(bundle), "--traces", str(corpus), "--out", str(tmp_path / "report" / "eval"))
    assert code == 0, err
    report = json.loads(out)
    assert {"conditions", "lpd", "per_fault"} <= set(report)
    assert sorted(report["conditions"]) == sorted(
        ["faulty_link", "default_client", *DEFAULT_FAULT_REGISTRY, "read_buf+write_buf"]
    )
    assert sum(row["n"] for row in report["conditions"].values()) == 40
    assert sorted(path.name for path in (tmp_path / "report").iterdir()) == ["eval.json", "eval.txt"]
