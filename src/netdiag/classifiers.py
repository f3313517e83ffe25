"""Two-stage diagnostic cascade.

Stage one is a binary link classifier: +1 means the access link itself
is degraded and client diagnosis is pointless until it is fixed.  Stage
two is a parallel bank of per-fault binary modules, each trained on the
healthy-client class versus one fault class.  Each stage holds its SVM
`model`, the `scaler` fitted on its training rows and its `selection`,
whose `chosen_indices` are the model's catalog columns.  A verdict is
its decisions: the link gate's, then, if the link passed, one per module
in fault-index order.  The link state and the collective client
verdict, the set of modules voting +1 (empty for a healthy client), are
read from them.

On disk a trained bundle is a directory of one JSON file per stage,
each written whole through a temporary file and a rename:

    lpd.json  {"catalog_version", "link_profile", "model", "selection"}
    cfd.json  {"catalog_version", "fault_registry",
               "modules": {fault_name: {"model", "selection"}}}

The link classifier and each fault module are stored as one record,
written by `_fit_to_dict` and read by `_fit_from_dict` alone:

    {"model": {"kernel": {"variant", "sigma" (rbf only)}, "C", "bias",
               "dual_coef", "support_vectors", "feature_subset",
               "scaler": {"min", "max"},
               "training_meta": {"n", "iterations_used",
                                 "final_kkt_residual", "converged",
                                 "updates"}},
     "selection": {"candidate_sizes", "cv_accuracy", "cv_objective"}}

The scaler's min and max hold one training extremum per feature of
this build's catalog, the feature_subset one distinct catalog index (a
chosen column) per support-vector column, and each support vector is a
scaled row, in [0, 1].  The selection holds one CV accuracy and
objective per candidate size, and the model's column count is one of
the sizes.  The stored feature_subset is the selection's chosen_indices
and the scaler the stage's.  Keys of older bundles are ignored: a
model's catalog_version, a selection's chosen_q and chosen_indices; a
missing training_meta.updates reads as 0.  The catalog version lives
only in the stage files; `load_bundle` refuses a stage built for a
catalog other than this build's.
"""

from __future__ import annotations

import enum
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .errors import CatalogMismatch, ConfigError, IoFailure, TrainingError
from .features import FeatureCatalog, default_catalog, extract_signature
from .preprocess import (
    HEALTHY_CLIENT,
    LabelKind,
    ScalerParams,
    SignatureDatabase,
    apply_scaler,
    parse_bool,
    parse_fields,
    parse_indices,
    parse_integer,
    parse_numbers,
    parse_real,
    parse_registry,
    read_artifact,
    scale_database,
    write_artifact,
)
from .rng import derive_seed
from .selection import (  # noqa: F401  (wrapper_select: perfbench/layers.py wraps classifiers.wrapper_select)
    DEFAULT_CANDIDATE_SIZES,
    CvGrid,
    PipelineConfig,
    SelectionReport,
    cv_grid,
    rank_features,
    solve_grids,
    wrapper_select,
)
from .svm import (
    KernelSpec,
    SvmConfig,
    SvmModel,
    TrainingMeta,
    decision_value,
    default_sigma,
)
from .trace import TracePair


def default_lpd_config(seed: int = 0) -> PipelineConfig:
    return PipelineConfig(
        svm=SvmConfig(kernel=KernelSpec("quadratic"), C=10.0, max_iter=1000, tol=1e-3),
        candidate_sizes=DEFAULT_CANDIDATE_SIZES,
        cv_folds=5,
        seed=seed,
    )


# Per-fault module defaults: kernel shape and subset size tuned per fault.
DEFAULT_CF_SETTINGS = {
    "sack_disabled": ("linear", 12),
    "dsack_disabled": ("rbf", 32),
    "read_buf": ("cubic", 24),
    "write_buf": ("rbf", 16),
}


def default_cf_config(fault_name: str, seed: int = 0) -> PipelineConfig:
    """The default module of a fault in a bank seeded with `seed`; its
    folds are drawn from a seed of its own, derived from the fault name."""
    variant, q = DEFAULT_CF_SETTINGS.get(fault_name, ("rbf", 16))
    sigma = default_sigma(q) if variant == "rbf" else None
    return PipelineConfig(
        svm=SvmConfig(kernel=KernelSpec(variant, sigma), C=10.0, max_iter=2000, tol=1e-3),
        candidate_sizes=(q,),
        cv_folds=5,
        seed=derive_seed(seed, fault_name),
        fp_penalty=1.0,
    )


def prepare_pipeline(db: SignatureDatabase, config: PipelineConfig) -> tuple[CvGrid, ScalerParams]:
    """scale -> rank -> the CV grid of the candidate sizes on the scaled
    rows, and the scaler fitted on them.

    The input must be a two-class database of raw rows with labels
    +1/-1.  Every input error of the pipeline is raised here.
    """
    scaled, scaler = scale_database(db)
    return cv_grid(scaled, rank_features(scaled), config), scaler


def fit_pipeline(db: SignatureDatabase, config: PipelineConfig) -> tuple[SvmModel, ScalerParams, SelectionReport]:
    """scale -> rank -> choose the subset size by CV -> train on the chosen
    columns of the scaled rows.  The model, the fitted scaler and the
    selection naming the chosen columns are a pure function of the
    training rows."""
    grid, scaler = prepare_pipeline(db, config)
    [(model, selection)] = solve_grids([grid])
    return model, scaler, selection


def model_predict(stage: LpdClassifier | CfModule, raw_vector: np.ndarray) -> tuple[float, int]:
    """Decision value and class of a stage for a raw full-length vector."""
    columns = np.asarray(stage.selection.chosen_indices, dtype=np.int64)
    d = decision_value(stage.model, apply_scaler(raw_vector, stage.scaler)[columns])
    return d, (1 if d >= 0 else -1)


@dataclass(frozen=True)
class LpdClassifier:
    """Stage-one link classifier for one link profile."""

    model: SvmModel
    scaler: ScalerParams
    selection: SelectionReport
    link_profile: str


@dataclass(frozen=True)
class CfModule:
    """One per-fault binary module of the stage-two bank."""

    fault_index: int
    fault_name: str
    model: SvmModel
    scaler: ScalerParams
    selection: SelectionReport


@dataclass(frozen=True)
class CfdNetwork:
    """The stage-two bank; its modules are kept in fault-index order."""

    modules: tuple[CfModule, ...]

    def __post_init__(self):
        modules = tuple(sorted(self.modules, key=lambda m: m.fault_index))
        if len({m.fault_index for m in modules}) != len(modules):
            raise ConfigError("duplicate fault indices in module bank")
        object.__setattr__(self, "modules", modules)

    @property
    def fault_registry(self) -> dict[str, int]:
        return {m.fault_name: m.fault_index for m in self.modules}


class LinkState(enum.Enum):
    FAULTY = "faulty"
    HEALTHY = "healthy"


@dataclass(frozen=True)
class Verdict:
    """The (stage, D, class) decisions of one cascade run: "lpd" first,
    then, if it passed the link, each module's in fault-index order."""

    per_module_decisions: tuple[tuple[str, float, int], ...]

    @property
    def link(self) -> LinkState:
        return LinkState.FAULTY if self.per_module_decisions[0][2] == 1 else LinkState.HEALTHY

    @property
    def client_faults(self) -> frozenset[str]:
        return frozenset(name for name, _, vote in self.per_module_decisions[1:] if vote == 1)

    def to_dict(self) -> dict:
        return {
            "link": self.link.value,
            "client_faults": sorted(self.client_faults),
            "decisions": [
                {"stage": s, "D": d, "class": c} for s, d, c in self.per_module_decisions
            ],
            "pipeline_note": "link_fault_stop" if self.link is LinkState.FAULTY else "full_diagnosis",
        }

    def summary(self) -> str:
        if self.link is LinkState.FAULTY:
            return "link: FAULTY - resolve link before client diagnosis"
        if not self.client_faults:
            return "link: healthy, client: healthy"
        return "link: healthy, client faults: " + ", ".join(sorted(self.client_faults))


def train_lpd(
    db: SignatureDatabase,
    config: PipelineConfig,
    link_profile: str = "default",
) -> LpdClassifier:
    """Full stage-one pipeline on a link-labeled database of raw rows."""
    if db.label_kind is not LabelKind.LINK:
        raise ConfigError("link classifier needs a link-labeled database")
    return LpdClassifier(*fit_pipeline(db, config), link_profile=link_profile)


def build_cf_subset(db: SignatureDatabase, fault_index: int) -> SignatureDatabase:
    """Rows of one fault class (+1) against the healthy class (-1)."""
    if db.label_kind is not LabelKind.CLIENT:
        raise ConfigError("fault modules need a client-labeled database")
    mask = (db.y == HEALTHY_CLIENT) | (db.y == fault_index)
    y = np.where(db.y[mask] == fault_index, 1, -1).astype(np.int64)
    if not (y == 1).any() or not (y == -1).any():
        raise TrainingError(f"fault class {fault_index} or healthy class missing")
    return replace(db, X=db.X[mask].copy(), y=y, fault_registry=None)


@contextmanager
def _module_errors(name: str):
    """Prefix the message of an exception raised in the block with the
    name of the module it concerns."""
    try:
        yield
    except Exception as exc:
        exc.args = (f"module {name!r}: {exc}",)
        raise


def train_cfd(db: SignatureDatabase, configs: dict[str, PipelineConfig] | None = None, seed: int = 0) -> CfdNetwork:
    """Train every module in the registry, each independently seeded (see
    `default_cf_config`).  The whole bank is one `solve_grids` call, and
    each module's result is the one `fit_pipeline` gives it alone."""
    if db.label_kind is not LabelKind.CLIENT:
        raise ConfigError("fault modules need a client-labeled database")
    prepared = []
    for name, index in db.fault_registry.items():
        config = (configs or {}).get(name) or default_cf_config(name, seed=seed)
        with _module_errors(name):
            prepared.append(prepare_pipeline(build_cf_subset(db, index), config))
    grids, scalers = zip(*prepared)
    modules = [
        CfModule(index, name, model, scaler, selection)
        for (name, index), scaler, (model, selection) in zip(db.fault_registry.items(), scalers, solve_grids(grids))
    ]
    return CfdNetwork(modules=tuple(modules))


def diagnose(lpd: LpdClassifier, cfd: CfdNetwork, pair: TracePair, catalog: FeatureCatalog) -> Verdict:
    """Extract one signature, gate on the link model, then run the bank."""
    values = extract_signature(pair, catalog).values
    gate = ("lpd", *model_predict(lpd, values))
    if gate[2] == 1:
        return Verdict((gate,))
    return Verdict((gate, *((m.fault_name, *model_predict(m, values)) for m in cfd.modules)))


_STAGE_KEYS = {
    "lpd": {"catalog_version": str, "link_profile": str, "model": dict, "selection": dict},
    "cfd": {"catalog_version": str, "fault_registry": object, "modules": dict},
}


def _stage_file(bundle: Path, stage: str) -> Path:
    return bundle / f"{stage}.json"


def _save_stage(bundle, stage: str, payload: dict, catalog_version: str) -> None:
    """Write the stage file of `stage` with payload and catalog_version.

    The other stage's file is read first, so a save for another catalog
    is refused with the bundle as it was.  The file is replaced whole, so
    a failure or crash leaves the old stage or the new one; the next save
    deletes the temporary file a crash left.
    """
    bundle = Path(bundle)
    other = _stage_file(bundle, "cfd" if stage == "lpd" else "lpd")
    if other.exists():
        keys = _STAGE_KEYS[other.stem]
        version = read_artifact(other, "bundle stage", lambda d: parse_fields(d, "stage", keys)["catalog_version"])
        if version != catalog_version:
            raise CatalogMismatch(f"bundle already built for catalog {version!r}, not {catalog_version!r}")
    try:
        bundle.mkdir(parents=True, exist_ok=True)
        for path in bundle.glob(f".{stage}.json.*.tmp"):
            path.unlink()
    except OSError as exc:
        raise IoFailure(f"cannot write {bundle}: {exc}") from exc
    write_artifact(_stage_file(bundle, stage), {"catalog_version": catalog_version, **payload})


_SCORE_KEYS = ("candidate_sizes", "cv_accuracy", "cv_objective")


def _fit_to_dict(stage: LpdClassifier | CfModule) -> dict:
    """The stored record of a stage (see the module docstring): its model with the selection's chosen columns
    and the stage's scaler, and the selection's CV scores."""
    model, selection = stage.model, stage.selection
    stored = {
        "kernel": {key: value for key, value in asdict(model.kernel).items() if value is not None},
        "C": model.C,
        "bias": model.bias,
        "dual_coef": model.dual_coef.tolist(),
        "support_vectors": model.support_vectors.tolist(),
        "feature_subset": list(selection.chosen_indices),
        "scaler": {"min": stage.scaler.min.tolist(), "max": stage.scaler.max.tolist()},
        "training_meta": asdict(model.training_meta),
    }
    return {"model": stored, "selection": {key: list(getattr(selection, key)) for key in _SCORE_KEYS}}


def save_lpd_part(bundle, lpd: LpdClassifier, catalog_version: str) -> None:
    """Write the link-classifier half of a bundle, lpd.json."""
    payload = {"link_profile": lpd.link_profile, **_fit_to_dict(lpd)}
    _save_stage(bundle, "lpd", payload, catalog_version)


def save_cfd_part(bundle, cfd: CfdNetwork, catalog_version: str) -> None:
    """Write the fault-module half of a bundle, cfd.json."""
    modules = {m.fault_name: _fit_to_dict(m) for m in cfd.modules}
    _save_stage(bundle, "cfd", {"fault_registry": cfd.fault_registry, "modules": modules}, catalog_version)


def save_bundle(path, lpd: LpdClassifier, cfd: CfdNetwork, catalog_version: str) -> None:
    """Write a complete bundle directory."""
    save_lpd_part(path, lpd, catalog_version)
    save_cfd_part(path, cfd, catalog_version)


def _fit_from_dict(d: dict) -> tuple[SvmModel, ScalerParams, SelectionReport]:
    """The inverse of `_fit_to_dict`: a stage's model, scaler and
    selection, every field checked as the module docstring states; a
    refused field is a ValueError or a TypeError."""
    stored, scores, m = d["model"], d["selection"], default_catalog().m
    smin, smax = (parse_numbers(stored["scaler"][key], f"scaler {key}") for key in ("min", "max"))
    if not smin.shape == smax.shape == (m,):
        raise ValueError(f"the scaler's min and max hold {smin.size} and {smax.size} features, not the catalog's {m}")
    dual_coef = parse_numbers(stored["dual_coef"], "dual_coef")
    support_vectors = parse_numbers(stored["support_vectors"], "support_vectors", ndim=2)
    if support_vectors.ndim != 2 or len(dual_coef) != len(support_vectors):
        raise ValueError(
            f"dual_coef of shape {dual_coef.shape} does not match support_vectors of shape {support_vectors.shape}"
        )
    if np.any((support_vectors < 0.0) | (support_vectors > 1.0)):
        raise ValueError("a support vector lies outside [0, 1], where the stage's scaler maps every row")
    subset = parse_indices(stored["feature_subset"], m, "feature_subset")
    if len(subset) != support_vectors.shape[1]:
        raise ValueError(f"feature_subset has {len(subset)} indices for {support_vectors.shape[1]} support-vector columns")
    sizes = parse_indices(scores["candidate_sizes"], what="candidate_sizes")
    if 0 in sizes or len(subset) not in sizes:
        raise ValueError(f"the model's {len(subset)} columns are not one of the positive candidate_sizes {list(sizes)}")
    cv = [tuple(parse_numbers(scores[key], key).tolist()) for key in _SCORE_KEYS[1:]]
    if any(len(values) != len(sizes) for values in cv):
        raise ValueError(f"cv_accuracy and cv_objective need one entry per candidate size {list(sizes)}")
    kernel, meta = stored["kernel"], stored["training_meta"]
    model = SvmModel(
        kernel=KernelSpec(kernel["variant"], kernel.get("sigma")),
        C=parse_real(stored["C"], "C"),
        bias=parse_real(stored["bias"], "bias"),
        dual_coef=dual_coef,
        support_vectors=support_vectors,
        training_meta=TrainingMeta(
            n=parse_integer(meta["n"], "training_meta.n", 0),
            iterations_used=parse_integer(meta["iterations_used"], "training_meta.iterations_used", 0),
            final_kkt_residual=parse_real(meta["final_kkt_residual"], "training_meta.final_kkt_residual"),
            converged=parse_bool(meta["converged"], "training_meta.converged"),
            updates=parse_integer(meta.get("updates", 0), "training_meta.updates", 0),
        ),
    )
    return model, ScalerParams(min=smin, max=smax), SelectionReport(sizes, *cv, subset)


def _cfd_from_dict(d: dict) -> CfdNetwork:
    registry, parts = parse_registry(d["fault_registry"]), d["modules"]
    if set(parts) != set(registry):
        raise ValueError(f"the modules do not match the fault registry {sorted(registry)}")
    modules = []
    for name, index in registry.items():
        with _module_errors(name):
            modules.append(CfModule(index, name, *_fit_from_dict(parts[name])))
    return CfdNetwork(modules=tuple(modules))


def _read_stage(bundle, stage: str):
    """The stage `stage` of a bundle.  Its catalog version must be this
    build's, and is checked before the modules, whose scalers must have
    the width of this build's catalog."""
    file, version = _stage_file(Path(bundle), stage), default_catalog().version

    def parse(d):
        d = parse_fields(d, "stage", _STAGE_KEYS[stage])
        if d["catalog_version"] != version:
            raise CatalogMismatch(f"{file} is built for catalog {d['catalog_version']!r}; this build provides {version!r}")
        return LpdClassifier(*_fit_from_dict(d), d["link_profile"]) if stage == "lpd" else _cfd_from_dict(d)

    return read_artifact(file, f"{stage} stage", parse)


def load_bundle(path) -> tuple[LpdClassifier, CfdNetwork, str]:
    """The two stages of a bundle and their catalog version, which is
    this build's."""
    return _read_stage(path, "lpd"), _read_stage(path, "cfd"), default_catalog().version
