"""Two-stage cascade: training pipelines, gating, verdicts, bundles."""

from dataclasses import replace

import numpy as np
import pytest
from conftest import stage_fields
from synthetic import ClassArtifactSpec, synthetic_database
from test_preprocess import db_from

from netdiag.classifiers import (
    CfdNetwork,
    CfModule,
    LinkState,
    PipelineConfig,
    Verdict,
    build_cf_subset,
    default_cf_config,
    default_lpd_config,
    diagnose,
    fit_pipeline,
    load_bundle,
    model_predict,
    save_bundle,
    save_cfd_part,
    save_lpd_part,
    train_cfd,
    train_lpd,
)
from netdiag.cli import load_config
from netdiag.errors import (
    CatalogMismatch,
    ConfigError,
    IoFailure,
    NonFiniteInput,
    TrainingError,
)
from netdiag.features import default_catalog, extract_signature
from netdiag.preprocess import DEFAULT_FAULT_REGISTRY, LabelKind, apply_scaler, fit_scaler
from netdiag.selection import SelectionReport
from netdiag.simulate import HEALTHY_LINK, ClientParams, LinkParams, simulate_flow
from netdiag.svm import KernelSpec, SvmConfig

LPD_CFG = PipelineConfig(
    svm=SvmConfig(KernelSpec("quadratic"), C=10.0, max_iter=1000, tol=1e-3),
    candidate_sizes=(5, 10, 20),
)


def link_db(n_per_class=20, m=30, seed=0):
    informative = tuple((i, 0.8) for i in (2, 5, 11, 17))
    pos = ClassArtifactSpec(m=m, informative=informative, jitter=0.03, label=1)
    neg = ClassArtifactSpec(m=m, informative=tuple((i, 0.2) for i, _ in informative), jitter=0.03, label=-1)
    return synthetic_database([pos, neg], n_per_class, seed)


def client_db(n_per_class=12, m=40, seed=0):
    # each fault perturbs its own index block; healthy sits at the baseline
    blocks = {1: (0, 4), 2: (8, 12), 3: (16, 22), 4: (26, 30)}
    specs = [
        ClassArtifactSpec(
            m=m, informative=tuple((i, 0.5) for i in range(0, 30)), jitter=0.03, label=0
        )
    ]
    for fault, (lo, hi) in blocks.items():
        informative = tuple(
            (i, 0.9 if lo <= i < hi else 0.5) for i in range(0, 30)
        )
        specs.append(ClassArtifactSpec(m=m, informative=informative, jitter=0.03, label=fault))
    return synthetic_database([specs[0]] + specs[1:], n_per_class, seed, fault_registry=dict(DEFAULT_FAULT_REGISTRY))


def cf_configs():
    return {
        name: PipelineConfig(
            svm=SvmConfig(KernelSpec("linear"), C=10.0, max_iter=2000, tol=1e-3),
            candidate_sizes=(6,),
        )
        for name in DEFAULT_FAULT_REGISTRY
    }


def count_stacks(monkeypatch) -> list[int]:
    """The number of problems of each `solve_duals` call made from now on."""
    from netdiag import selection

    stacks = []
    real = selection.solve_duals

    def counting(grams, problems):
        states = real(grams, problems)
        stacks.append(len(states))
        return states

    monkeypatch.setattr(selection, "solve_duals", counting)
    return stacks


class TestTrainLpd:
    def test_synthetic_artifact_recovered(self):
        db = link_db()
        lpd = train_lpd(db, LPD_CFG)
        assert set(lpd.selection.chosen_indices) >= {2, 5, 11, 17}
        assert lpd.model.training_meta.converged
        preds = [model_predict(lpd, db.X[i])[1] for i in range(db.n)]
        assert np.mean(np.asarray(preds) == db.y) == 1.0

    def test_single_class_rejected(self):
        db = link_db()
        from dataclasses import replace

        bad = replace(db, y=np.ones_like(db.y))
        with pytest.raises(TrainingError, match="need >= 2 rows per class"):
            train_lpd(bad, LPD_CFG)

    def test_wrong_label_kind(self):
        with pytest.raises(ConfigError):
            train_lpd(client_db(), LPD_CFG)


class TestPipelineModel:
    @pytest.mark.parametrize("config", [default_lpd_config(seed=1), default_cf_config("read_buf", seed=1)])
    def test_model_keeps_fitted_scaler_and_chosen_columns(self, config):
        # Scaling and the column choice are pipeline steps: the stage keeps
        # the fitted scaler, and its selection names the model's columns.
        informative = ((2, 0.6), (5, 0.6), (11, 0.4), (17, 0.6))
        pos = ClassArtifactSpec(m=30, informative=informative, jitter=0.2, label=1)
        neg = ClassArtifactSpec(
            m=30, informative=tuple((i, 1.0 - t) for i, t in informative), jitter=0.2, label=-1
        )
        db = synthetic_database([pos, neg], 11, seed=1)
        model, fitted, report = fit_pipeline(db, config)
        scaler = fit_scaler(db)
        assert fitted.min.tobytes() == scaler.min.tobytes()
        assert fitted.max.tobytes() == scaler.max.tobytes()
        assert model.support_vectors.shape[1] == len(report.chosen_indices)
        rows = apply_scaler(db.X, scaler)[:, list(report.chosen_indices)]
        assert all((rows == sv).all(axis=1).any() for sv in model.support_vectors)

    @pytest.mark.xfail(
        strict=True,
        reason="CV leak (ROADMAP item 4): the rows are scaled and t-ranked with every row before the folds "
        "are cut, so each fold's chosen prefix has seen its test rows",
    )
    def test_cv_accuracy_is_chance_on_labels_independent_of_the_rows(self):
        config = PipelineConfig(SvmConfig(KernelSpec("linear"), C=10.0, max_iter=1000, tol=1e-3), (5,), cv_folds=5)
        rng = np.random.default_rng(0)
        accuracies = []
        for _ in range(20):
            X, y = rng.uniform(size=(40, 74)), rng.permutation([1] * 20 + [-1] * 20)
            *_, report = fit_pipeline(db_from(X, y), config)
            accuracies.append(report.cv_accuracy[0])
        assert abs(np.mean(accuracies) - 0.5) <= 0.08


class TestGoldenSelection:
    def test_lpd_default_selection_pinned(self):
        # Overlapping classes, so the CV accuracies differ between sizes and
        # a solver change that moves any fold's decisions shows here.  The
        # expected values predate the second-order solver and did not move.
        informative = ((2, 0.6), (5, 0.6), (11, 0.4), (17, 0.6))
        pos = ClassArtifactSpec(m=30, informative=informative, jitter=0.2, label=1)
        neg = ClassArtifactSpec(
            m=30, informative=tuple((i, 1.0 - t) for i, t in informative), jitter=0.2, label=-1
        )
        db = synthetic_database([pos, neg], 20, seed=1)
        *_, report = fit_pipeline(db, default_lpd_config(seed=1))
        assert report.candidate_sizes == (5, 10, 15, 20, 25)
        assert report.cv_accuracy == (0.775, 0.85, 0.875, 0.9, 0.875)
        assert report.chosen_q == 20
        assert report.chosen_indices == (
            17, 5, 25, 3, 28, 9, 11, 2, 0, 24, 16, 14, 6, 12, 8, 18, 7, 22, 15, 21
        )

    def test_lpd_unequal_folds_pinned(self):
        # 22 rows in 5 folds: training folds of 17 and 18 rows, so the CV
        # problems of one candidate size differ in size.
        informative = ((2, 0.6), (5, 0.6), (11, 0.4), (17, 0.6))
        pos = ClassArtifactSpec(m=30, informative=informative, jitter=0.2, label=1)
        neg = ClassArtifactSpec(
            m=30, informative=tuple((i, 1.0 - t) for i, t in informative), jitter=0.2, label=-1
        )
        db = synthetic_database([pos, neg], 11, seed=1)
        *_, report = fit_pipeline(db, default_lpd_config(seed=1))
        assert report == SelectionReport(
            candidate_sizes=(5, 10, 15, 20, 25),
            cv_accuracy=(0.73, 0.95, 0.8099999999999999, 0.9, 0.9099999999999999),
            cv_objective=(0.73, 0.95, 0.8099999999999999, 0.9, 0.9099999999999999),
            chosen_indices=(17, 9, 18, 8, 6, 15, 26, 28, 3, 7),
        )

    def test_cfd_default_selections_pinned(self):
        # Default modules: linear, rbf and cubic kernels with fp_penalty 1.0.
        net = train_cfd(client_db())
        assert {m.fault_name: m.selection for m in net.modules} == {
            "sack_disabled": SelectionReport(
                candidate_sizes=(12,),
                cv_accuracy=(1.0,),
                cv_objective=(1.0,),
                chosen_indices=(0, 2, 3, 1, 14, 15, 19, 10, 36, 7, 13, 16),
            ),
            "dsack_disabled": SelectionReport(
                candidate_sizes=(32,),
                cv_accuracy=(1.0,),
                cv_objective=(1.0,),
                chosen_indices=(
                    9, 11, 8, 10, 25, 1, 18, 31, 35, 38, 21, 24, 7, 27, 36, 19,
                    15, 34, 4, 17, 3, 5, 30, 29, 13, 39, 26, 23, 12, 32, 22, 20,
                ),
            ),
            "read_buf": SelectionReport(
                candidate_sizes=(24,),
                cv_accuracy=(0.9099999999999999,),
                cv_objective=(0.9099999999999999,),
                chosen_indices=(
                    17, 20, 21, 19, 16, 18, 1, 15, 34, 26, 11, 31, 0, 2, 14, 25, 23, 27, 24, 33, 7, 28, 39, 8
                ),
            ),
            "write_buf": SelectionReport(
                candidate_sizes=(16,),
                cv_accuracy=(1.0,),
                cv_objective=(1.0,),
                chosen_indices=(26, 28, 27, 29, 24, 15, 14, 7, 6, 20, 31, 38, 10, 32, 19, 25),
            ),
        }


class TestCfModules:
    def test_subset_relabeling(self):
        db = client_db()
        sub = build_cf_subset(db, 3)
        assert sorted(set(sub.y.tolist())) == [-1, 1]
        assert (sub.y == 1).sum() == 12 and (sub.y == -1).sum() == 12
        assert sub.label_kind is LabelKind.LINK

    def test_missing_class(self):
        db = client_db()
        with pytest.raises(TrainingError, match="fault class 9 or healthy class missing"):
            build_cf_subset(db, 9)

    def test_train_network_of_four(self):
        db = client_db()
        net = train_cfd(db, cf_configs())
        assert len(net.modules) == 4
        assert [m.fault_index for m in net.modules] == [1, 2, 3, 4]
        names = {m.fault_name for m in net.modules}
        assert names == set(DEFAULT_FAULT_REGISTRY)

    def test_library_and_cli_default_banks_agree(self):
        # The CLI's default bank once seeded every module's folds with the
        # bank seed, and train_cfd with a seed derived from the fault name.
        db = client_db()
        library = train_cfd(db, seed=7)
        cli = train_cfd(db, load_config(None, 7).cfd, seed=7)
        assert [m.selection for m in cli.modules] == [m.selection for m in library.modules]

    def test_small_sample_protocol_trains(self):
        # eleven rows per fault class suffice for convergence
        db = client_db(n_per_class=11)
        net = train_cfd(db, cf_configs())
        assert all(m.model.training_meta.converged for m in net.modules)

    def test_module_independence(self):
        # The bank is fitted in one call, yet each module equals its own
        # fit_pipeline run.  Kernels, tolerances, sweep caps, fold counts
        # and seeds differ between modules, and read_buf has three
        # candidate sizes, so its final fit waits for its grid's scores.
        def config(variant, tol, max_iter, sizes, **kw):
            sigma = 1.5 if variant == "rbf" else None
            return PipelineConfig(
                svm=SvmConfig(KernelSpec(variant, sigma), C=10.0, max_iter=max_iter, tol=tol),
                candidate_sizes=sizes,
                **kw,
            )

        cfgs = {
            "sack_disabled": config("linear", 1e-3, 2000, (6,)),
            "dsack_disabled": config("rbf", 1e-6, 2, (8,), seed=3),
            "read_buf": config("cubic", 1e-2, 500, (4, 10, 20), fp_penalty=1.0),
            "write_buf": config("quadratic", 1e-5, 1000, (12,), cv_folds=4),
        }
        db = client_db()
        net = train_cfd(db, cfgs)
        assert len(net.modules[2].selection.candidate_sizes) == 3
        assert {m.model.training_meta.converged for m in net.modules} == {True, False}
        for module in net.modules:
            alone = CfModule(module.fault_index, module.fault_name, *fit_pipeline(
                build_cf_subset(db, module.fault_index), cfgs[module.fault_name]
            ))
            assert stage_fields(module) == stage_fields(alone)

    def test_default_bank_is_one_stack(self, monkeypatch):
        # Every default module has one candidate size: four 5-fold grids and
        # four final fits, 24 problems in one call.
        stacks = count_stacks(monkeypatch)
        train_cfd(client_db())
        assert stacks == [24]

    def test_default_lpd_is_one_stack(self, monkeypatch):
        # 160 rows of 74 features keep six default sizes: 6 x 5 CV problems
        # and the final fit of each size, 36 problems in one call.
        stacks = count_stacks(monkeypatch)
        train_lpd(link_db(n_per_class=80, m=74), default_lpd_config())
        assert stacks == [36]

    @pytest.mark.parametrize(
        "change, cause",
        [
            (lambda db, cfgs: (db, dict(cfgs, read_buf=replace(cfgs["read_buf"], cv_folds=30))), "k=30 folds but only"),
            (lambda db, cfgs: (replace(db, y=np.where(db.y == 3, 0, db.y)), cfgs), "fault class 3 or healthy class missing"),
        ],
        ids=["more_folds_than_rows", "class_without_rows"],
    )
    def test_module_error_names_module(self, change, cause):
        db, cfgs = change(client_db(), cf_configs())
        with pytest.raises(TrainingError, match=f"^module 'read_buf': {cause}"):
            train_cfd(db, cfgs)

    def test_bank_in_fault_index_order_without_duplicates(self):
        net = train_cfd(client_db(), cf_configs())
        assert CfdNetwork(tuple(reversed(net.modules))).modules == net.modules
        assert list(net.fault_registry.items()) == sorted(DEFAULT_FAULT_REGISTRY.items(), key=lambda kv: kv[1])
        with pytest.raises(ConfigError, match="duplicate"):
            CfdNetwork(net.modules + net.modules[:1])

    def test_empty_registry_rejected(self):
        db = client_db()
        from dataclasses import replace

        with pytest.raises(ConfigError):
            train_cfd(replace(db, fault_registry={}), {})


def _votes(gate, *modules):
    """The link state and client faults of a verdict with the given votes."""
    decisions = (("lpd", float(gate), gate), *((name, 0.5 * vote, vote) for name, vote in modules))
    verdict = Verdict(decisions)
    return verdict.link, verdict.client_faults


class TestCollective:
    """A verdict's link state and client faults are read from its votes."""

    def test_all_negative_is_healthy(self):
        assert _votes(-1, ("a", -1), ("b", -1)) == (LinkState.HEALTHY, frozenset())

    def test_multiple_positives_reported(self):
        votes = [("sack_disabled", -1), ("read_buf", 1), ("write_buf", 1)]
        assert _votes(-1, *votes) == (LinkState.HEALTHY, frozenset({"read_buf", "write_buf"}))

    def test_single_positive(self):
        assert _votes(-1, ("dsack_disabled", 1), ("read_buf", -1)) == (LinkState.HEALTHY, frozenset({"dsack_disabled"}))


class TestVerdictType:
    def test_faulty_link_must_stop(self):
        verdict = Verdict((("lpd", 1.0, 1),))
        assert (verdict.link, verdict.client_faults) == (LinkState.FAULTY, frozenset())
        assert verdict.to_dict()["pipeline_note"] == "link_fault_stop"
        assert verdict.summary() == "link: FAULTY - resolve link before client diagnosis"

    def test_json_shape(self):
        v = Verdict((("lpd", -1.0, -1), ("read_buf", 0.5, 1)))
        d = v.to_dict()
        assert d["link"] == "healthy" and d["client_faults"] == ["read_buf"]
        assert d["pipeline_note"] == "full_diagnosis"
        assert d["decisions"][0] == {"stage": "lpd", "D": -1.0, "class": -1}


def train_sim_bundle(tmp_path=None, per_class=12, bytes_=250_000, seed=5):
    from netdiag.scenarios import preset_paper_matrix

    scenarios = preset_paper_matrix(per_class, seed, bytes_)
    catalog = default_catalog()
    link_rows, client_rows = [], []
    for sc in scenarios:
        if sc.group == "multi":
            continue
        sig = extract_signature(sc.simulate(), catalog)
        if sc.group == "link":
            link_rows.append((sig.values, sc.link_label))
        else:
            client_rows.append((sig.values, sc.client_label))
    from netdiag.preprocess import encode_labels

    link = encode_labels(link_rows, catalog.feature_names, LabelKind.LINK, catalog.version)
    client = encode_labels(client_rows, catalog.feature_names, LabelKind.CLIENT, catalog.version)
    lpd = train_lpd(link, default_lpd_config(seed=1))
    cfd = train_cfd(client, seed=1)
    return lpd, cfd, catalog


@pytest.fixture(scope="module")
def sim_bundle():
    return train_sim_bundle()


class TestDiagnose:
    def test_gate_property(self, sim_bundle):
        lpd, cfd, catalog = sim_bundle
        pair = simulate_flow(
            LinkParams(bandwidth=80e6, one_way_delay=0.01, loss_rate=0.05),
            ClientParams(seed=91),
            250_000,
            seed=404,
        )
        verdict = diagnose(lpd, cfd, pair, catalog)
        assert verdict.link is LinkState.FAULTY
        assert verdict.client_faults == frozenset()
        assert verdict.to_dict()["pipeline_note"] == "link_fault_stop"
        assert [d[0] for d in verdict.per_module_decisions] == ["lpd"]

    def test_healthy_null_case(self, sim_bundle):
        lpd, cfd, catalog = sim_bundle
        pair = simulate_flow(HEALTHY_LINK, ClientParams(seed=92), 250_000, seed=405)
        verdict = diagnose(lpd, cfd, pair, catalog)
        assert verdict.link is LinkState.HEALTHY
        assert verdict.client_faults == frozenset()
        assert len(verdict.per_module_decisions) == 5

    def test_sack_disabled_detected(self, sim_bundle):
        lpd, cfd, catalog = sim_bundle
        pair = simulate_flow(
            HEALTHY_LINK,
            ClientParams(sack_enabled=False, dsack_enabled=False, seed=93),
            250_000,
            seed=406,
        )
        verdict = diagnose(lpd, cfd, pair, catalog)
        assert verdict.link is LinkState.HEALTHY
        assert verdict.client_faults == frozenset({"sack_disabled"})

    def test_catalog_mismatch(self, sim_bundle):
        lpd, cfd, catalog = sim_bundle
        from dataclasses import replace

        wrong = replace(catalog, version="v0")
        pair = simulate_flow(HEALTHY_LINK, ClientParams(seed=94), 250_000, seed=407)
        with pytest.raises(CatalogMismatch):
            diagnose(lpd, cfd, pair, wrong)

    def test_module_order_irrelevant(self, sim_bundle):
        lpd, cfd, catalog = sim_bundle
        reordered = CfdNetwork(modules=tuple(reversed(cfd.modules)))
        pair = simulate_flow(HEALTHY_LINK, ClientParams(read_buffer=16384, seed=95), 250_000, seed=408)
        a = diagnose(lpd, cfd, pair, catalog)
        b = diagnose(lpd, reordered, pair, catalog)
        assert a == b


class TestBundle:
    def test_round_trip(self, tmp_path, sim_bundle):
        lpd, cfd, catalog = sim_bundle
        save_bundle(tmp_path / "bundle", lpd, cfd, catalog.version)
        lpd2, cfd2, version = load_bundle(tmp_path / "bundle")
        assert version == catalog.version
        assert sorted(p.name for p in (tmp_path / "bundle").iterdir()) == ["cfd.json", "lpd.json"]
        assert (stage_fields(lpd2), lpd2.link_profile) == (stage_fields(lpd), lpd.link_profile)
        assert [(m.fault_index, m.fault_name, stage_fields(m)) for m in cfd2.modules] == [
            (m.fault_index, m.fault_name, stage_fields(m)) for m in cfd.modules
        ]
        # Saving what was loaded writes the same bytes.
        save_bundle(tmp_path / "again", lpd2, cfd2, version)
        for name in ("lpd.json", "cfd.json"):
            assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "bundle" / name).read_bytes()
        pair = simulate_flow(HEALTHY_LINK, ClientParams(write_buffer=16384, seed=96), 250_000, seed=409)
        assert diagnose(lpd, cfd, pair, catalog) == diagnose(lpd2, cfd2, pair, catalog)

    def test_adding_fifth_module_keeps_existing_bytes(self, tmp_path):
        db = client_db()
        cfgs = cf_configs()
        net4 = train_cfd(db, cfgs)
        registry5 = dict(DEFAULT_FAULT_REGISTRY, extra_fault=5)
        # retraining an extended registry re-uses identical per-module data
        from dataclasses import replace

        rng = np.random.default_rng(0)
        extra_rows = rng.uniform(size=(6, db.m))
        db5 = replace(
            db,
            X=np.vstack([db.X, extra_rows]),
            y=np.concatenate([db.y, np.full(6, 5)]),
            fault_registry=registry5,
        )
        cfgs5 = dict(cfgs, extra_fault=cfgs["read_buf"])
        net5 = train_cfd(db5, cfgs5)
        for m4 in net4.modules:
            m5 = next(m for m in net5.modules if m.fault_name == m4.fault_name)
            assert stage_fields(m5) == stage_fields(m4)

    def test_incomplete_bundle_rejected(self, tmp_path):
        db = client_db()
        net = train_cfd(db, cf_configs())
        save_cfd_part(tmp_path / "partial", net, "v1")
        with pytest.raises(IoFailure, match="lpd.json"):
            load_bundle(tmp_path / "partial")

    def test_corrupt_other_stage_rejected_on_update(self, tmp_path):
        net = train_cfd(client_db(), cf_configs())
        bundle = tmp_path / "bundle"
        bundle.mkdir()
        (bundle / "lpd.json").write_text("{", encoding="utf-8")
        with pytest.raises(IoFailure, match="lpd.json"):
            save_cfd_part(bundle, net, "v1")
        assert sorted(p.name for p in bundle.iterdir()) == ["lpd.json"]

    def test_refused_save_leaves_stage_in_place(self, tmp_path):
        bundle = tmp_path / "bundle"
        save_cfd_part(bundle, train_cfd(client_db(), cf_configs()), "v1")
        before = (bundle / "cfd.json").read_bytes()
        with pytest.raises(CatalogMismatch):
            save_lpd_part(bundle, train_lpd(link_db(), LPD_CFG), "v2")
        assert (bundle / "cfd.json").read_bytes() == before
        assert sorted(p.name for p in bundle.iterdir()) == ["cfd.json"]

    def test_bundle_of_another_catalog_refused_on_load(self, tmp_path):
        # A bundle built whole for another catalog once loaded; only the CLI
        # compared its version with the build's.
        bundle = tmp_path / "bundle"
        save_bundle(bundle, train_lpd(link_db(), LPD_CFG), train_cfd(client_db(), cf_configs()), "v0")
        with pytest.raises(CatalogMismatch, match="lpd.json"):
            load_bundle(bundle)

    def test_nan_model_refused_stage_in_place(self, tmp_path):
        from dataclasses import replace

        net = train_cfd(client_db(), cf_configs())
        bundle = tmp_path / "bundle"
        save_cfd_part(bundle, net, "v1")
        before = (bundle / "cfd.json").read_bytes()
        bad = replace(net.modules[0], model=replace(net.modules[0].model, bias=float("nan")))
        with pytest.raises(NonFiniteInput, match="cfd.json"):
            save_cfd_part(bundle, replace(net, modules=(bad, *net.modules[1:])), "v1")
        assert (bundle / "cfd.json").read_bytes() == before
        assert sorted(p.name for p in bundle.iterdir()) == ["cfd.json"]

    @pytest.mark.parametrize("how", ["write", "replace"])
    @pytest.mark.parametrize("stage", ["lpd", "cfd"])
    def test_failed_stage_write_keeps_old_stage(self, tmp_path, break_writes, stage, how):
        bundle = tmp_path / "bundle"
        save_bundle(bundle, train_lpd(link_db(), LPD_CFG), train_cfd(client_db(), cf_configs()), "v1")
        before = {p.name: p.read_bytes() for p in bundle.iterdir()}
        break_writes(f"{stage}.json", how)
        with pytest.raises(IoFailure, match=f"{stage}.json"):
            if stage == "lpd":
                save_lpd_part(bundle, train_lpd(link_db(seed=1), LPD_CFG, link_profile="b"), "v1")
            else:
                save_cfd_part(bundle, train_cfd(client_db(seed=1), cf_configs()), "v1")
        assert {p.name: p.read_bytes() for p in bundle.iterdir()} == before

    @pytest.mark.parametrize("crash", [False, True], ids=["error", "crash"])
    @pytest.mark.parametrize("stage", ["lpd", "cfd"])
    def test_each_failed_step_leaves_old_or_new_bundle(self, tmp_path, fail_step, stage, crash):
        # Each save changes a field stored beside the models: the link
        # profile, or the fault registry (one fault fewer).
        import shutil

        from conftest import Crash

        def snapshot(bundle):
            lpd, cfd, _ = load_bundle(bundle)
            if stage == "lpd":
                return lpd.link_profile, stage_fields(lpd)
            return cfd.fault_registry, {m.fault_name: stage_fields(m) for m in cfd.modules}

        # A loadable bundle holds models of the catalog's width.
        m = default_catalog().m
        template = tmp_path / "template"
        save_bundle(
            template, train_lpd(link_db(m=m), LPD_CFG, link_profile="a"), train_cfd(client_db(m=m), cf_configs()), "v1"
        )
        if stage == "lpd":
            new_lpd = train_lpd(link_db(seed=1, m=m), LPD_CFG, link_profile="b")
            save = lambda bundle: save_lpd_part(bundle, new_lpd, "v1")  # noqa: E731
        else:
            registry = {k: v for k, v in DEFAULT_FAULT_REGISTRY.items() if k != "write_buf"}
            new_cfd = train_cfd(replace(client_db(seed=1, m=m), fault_registry=registry), cf_configs())
            save = lambda bundle: save_cfd_part(bundle, new_cfd, "v1")  # noqa: E731
        old = snapshot(template)
        shutil.copytree(template, tmp_path / "expected")
        save(tmp_path / "expected")
        new = snapshot(tmp_path / "expected")
        assert old[0] != new[0] and old[1] != new[1]
        k = 0
        while True:
            bundle = tmp_path / f"bundle{k}"
            shutil.copytree(template, bundle)
            with fail_step(k, crash) as steps:
                try:
                    save(bundle)
                    failed = False
                except (IoFailure, OSError, Crash):
                    failed = True
            loaded = snapshot(bundle)
            assert loaded in (old, new), f"step {k} of {steps}"
            if not failed:  # no step k, or its failure was handled
                assert loaded == new
                if k >= len(steps):
                    break
            elif not crash:
                assert loaded == old, f"step {k} of {steps}"
            # The next save deletes the temporary file that a crash left.
            save(bundle)
            assert snapshot(bundle) == new
            assert sorted(p.name for p in bundle.iterdir()) == ["cfd.json", "lpd.json"]
            k += 1
        assert set(steps) == {"mkdir", "open", "replace"}
