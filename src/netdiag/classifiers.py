"""Two-stage diagnostic cascade.

Stage one is a binary link classifier: +1 means the access link itself
is degraded and client diagnosis is pointless until it is fixed.  Stage
two is a parallel bank of per-fault binary modules, each trained on the
healthy-client class versus one fault class, each with its own scaler
and feature subset.  A verdict is its decisions: the link gate's, then,
if the link passed, one per module in fault-index order.  The link state
and the collective client verdict, the set of modules voting +1 (empty
for a healthy client), are read from them.

On disk a trained bundle is a directory of one JSON file per stage,
each written whole through a temporary file and a rename:

    lpd.json  {"catalog_version", "link_profile", "model", "selection"}
    cfd.json  {"catalog_version", "fault_registry",
               "modules": {fault_name: {"model", "selection"}}}

The link classifier and each fault module are stored as one record,
{"model", "selection"}.  The model carries the fitted scaler and the
chosen columns (its feature_subset); the selection holds only
{"candidate_sizes", "cv_accuracy", "cv_objective"}, one CV score per
candidate size, and the model's column count must be one of the sizes.
The catalog version lives only in the stage files; `load_bundle` refuses
a stage built for a catalog other than this build's.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import CatalogMismatch, ConfigError, IoFailure, MissingClass
from .features import FeatureCatalog, default_catalog, extract_signature
from .preprocess import (
    HEALTHY_CLIENT,
    LabelKind,
    SignatureDatabase,
    apply_scaler,
    parse_fields,
    parse_indices,
    parse_numbers,
    parse_registry,
    read_artifact,
    scale_database,
    write_artifact,
)
from .rng import derive_seed
from .selection import (  # noqa: F401  (wrapper_select: perfbench/layers.py wraps classifiers.wrapper_select)
    DEFAULT_CANDIDATE_SIZES,
    CvGrid,
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
    decision_value,
    default_sigma,
    model_from_dict,
    model_to_dict,
)
from .trace import TracePair


@dataclass(frozen=True)
class PipelineConfig:
    """Everything needed to turn a database of raw rows into a model."""

    svm: SvmConfig
    candidate_sizes: tuple[int, ...]
    cv_folds: int = 5
    seed: int = 0
    fp_penalty: float = 0.0


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


def prepare_pipeline(db: SignatureDatabase, config: PipelineConfig) -> CvGrid:
    """scale -> rank -> the CV grid of the candidate sizes, which keeps the
    scaled rows and the fitted scaler.

    The input must be a two-class database of raw rows with labels
    +1/-1.  Every input error of the pipeline is raised here.
    """
    scaled, scaler = scale_database(db)
    ranking = rank_features(scaled, positive_label=1, negative_label=-1)
    return cv_grid(
        scaled,
        ranking,
        config.candidate_sizes,
        folds=config.cv_folds,
        svm_config=config.svm,
        seed=config.seed,
        fp_penalty=config.fp_penalty,
        scaler=scaler,
    )


def fit_pipelines(grids: Sequence[CvGrid]) -> list[tuple[SvmModel, SelectionReport]]:
    """Choose the subset size of each prepared pipeline, then train its
    model on the chosen features; one (SvmModel, SelectionReport) per
    pipeline, in input order.

    Every pipeline's CV problems and the final fit of each of its
    candidate sizes are solved in one lockstep stack, since no problem
    waits for a CV result; only the chosen size's final fit is kept.
    Each problem takes the path it takes alone, so a pipeline's result
    does not depend on the others.  A model carries its fitted scaler and
    chosen feature indices, so it is a pure function of its pipeline's
    training rows.
    """
    return [grid.fit(states) for grid, states in zip(grids, solve_grids(grids))]


def fit_pipeline(db: SignatureDatabase, config: PipelineConfig) -> tuple[SvmModel, SelectionReport]:
    """The one-pipeline case of `fit_pipelines`: scale -> rank -> choose
    subset size -> train on the chosen columns of the scaled rows."""
    return fit_pipelines([prepare_pipeline(db, config)])[0]


def model_predict(model: SvmModel, raw_vector: np.ndarray) -> tuple[float, int]:
    """Decision value and class for a raw full-length signature vector."""
    x = np.asarray(raw_vector, dtype=np.float64)
    if model.scaler is not None:
        x = apply_scaler(x, model.scaler)
    x = x[np.asarray(model.feature_subset, dtype=np.int64)]
    d = decision_value(model, x)
    return d, (1 if d >= 0 else -1)


@dataclass(frozen=True)
class LpdClassifier:
    """Stage-one link classifier for one link profile."""

    model: SvmModel
    selection: SelectionReport
    link_profile: str


@dataclass(frozen=True)
class CfModule:
    """One per-fault binary module of the stage-two bank."""

    fault_index: int
    fault_name: str
    model: SvmModel
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
    model, report = fit_pipeline(db, config)
    return LpdClassifier(model=model, selection=report, link_profile=link_profile)


def build_cf_subset(db: SignatureDatabase, fault_index: int) -> SignatureDatabase:
    """Rows of one fault class (+1) against the healthy class (-1)."""
    if db.label_kind is not LabelKind.CLIENT:
        raise ConfigError("fault modules need a client-labeled database")
    mask = (db.y == HEALTHY_CLIENT) | (db.y == fault_index)
    y = np.where(db.y[mask] == fault_index, 1, -1).astype(np.int64)
    if not (y == 1).any() or not (y == -1).any():
        raise MissingClass(f"fault class {fault_index} or healthy class missing")
    return replace(db, X=db.X[mask].copy(), y=y, label_kind=LabelKind.LINK, fault_registry=None)


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
    `default_cf_config`); the whole bank is one `fit_pipelines` call."""
    if db.label_kind is not LabelKind.CLIENT:
        raise ConfigError("fault modules need a client-labeled database")
    registry = db.fault_registry or {}
    if not registry:
        raise ConfigError("fault registry is empty; nothing to train")
    grids = []
    for name, index in registry.items():
        config = (configs or {}).get(name) or default_cf_config(name, seed=seed)
        with _module_errors(name):
            grids.append(prepare_pipeline(build_cf_subset(db, index), config))
    modules = [
        CfModule(fault_index=index, fault_name=name, model=model, selection=report)
        for (name, index), (model, report) in zip(registry.items(), fit_pipelines(grids))
    ]
    return CfdNetwork(modules=tuple(modules))


def diagnose(lpd: LpdClassifier, cfd: CfdNetwork, pair: TracePair, catalog: FeatureCatalog) -> Verdict:
    """Extract one signature, gate on the link model, then run the bank."""
    values = extract_signature(pair, catalog).values
    gate = ("lpd", *model_predict(lpd.model, values))
    if gate[2] == 1:
        return Verdict((gate,))
    return Verdict((gate, *((m.fault_name, *model_predict(m.model, values)) for m in cfd.modules)))


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


def _fit_to_dict(model: SvmModel, selection: SelectionReport) -> dict:
    """The stored record of one module: its model and the CV scores of the
    selection that chose the model's columns."""
    scores = {
        "candidate_sizes": list(selection.candidate_sizes),
        "cv_accuracy": list(selection.cv_accuracy),
        "cv_objective": list(selection.cv_objective),
    }
    return {"model": model_to_dict(model), "selection": scores}


def save_lpd_part(bundle, lpd: LpdClassifier, catalog_version: str) -> None:
    """Write the link-classifier half of a bundle, lpd.json."""
    payload = {"link_profile": lpd.link_profile, **_fit_to_dict(lpd.model, lpd.selection)}
    _save_stage(bundle, "lpd", payload, catalog_version)


def save_cfd_part(bundle, cfd: CfdNetwork, catalog_version: str) -> None:
    """Write the fault-module half of a bundle, cfd.json."""
    modules = {m.fault_name: _fit_to_dict(m.model, m.selection) for m in cfd.modules}
    _save_stage(bundle, "cfd", {"fault_registry": cfd.fault_registry, "modules": modules}, catalog_version)


def save_bundle(path, lpd: LpdClassifier, cfd: CfdNetwork, catalog_version: str) -> None:
    """Write a complete bundle directory."""
    save_lpd_part(path, lpd, catalog_version)
    save_cfd_part(path, cfd, catalog_version)


def _fit_from_dict(d: dict) -> tuple[SvmModel, SelectionReport]:
    """The inverse of `_fit_to_dict`: a model with a scaler, whose column
    count is one of the distinct positive candidate sizes, and one CV
    accuracy and objective per size.  Other selection keys are ignored,
    such as the chosen_q and chosen_indices that once repeated the
    model's columns."""
    model, stored = model_from_dict(d["model"]), d["selection"]
    if model.scaler is None:
        raise ValueError("the model has no scaler")
    sizes, q = parse_indices(stored["candidate_sizes"], what="candidate_sizes"), len(model.feature_subset)
    if np.any((model.support_vectors < 0.0) | (model.support_vectors > 1.0)):
        raise ValueError("a support vector lies outside [0, 1], where the model's scaler maps every row")
    if 0 in sizes or q not in sizes:
        raise ValueError(f"the model's {q} columns are not one of the positive candidate_sizes {list(sizes)}")
    scores = [tuple(parse_numbers(stored[key], key).tolist()) for key in ("cv_accuracy", "cv_objective")]
    if any(len(values) != len(sizes) for values in scores):
        raise ValueError(f"cv_accuracy and cv_objective need one entry per candidate size {list(sizes)}")
    return model, SelectionReport(sizes, *scores, model.feature_subset)


def _lpd_from_dict(d) -> tuple[str, LpdClassifier]:
    d = parse_fields(d, "stage", _STAGE_KEYS["lpd"])
    return d["catalog_version"], LpdClassifier(*_fit_from_dict(d), d["link_profile"])


def _cfd_from_dict(d) -> tuple[str, CfdNetwork]:
    d = parse_fields(d, "stage", _STAGE_KEYS["cfd"])
    registry, parts = parse_registry(d["fault_registry"]), d["modules"]
    if set(parts) != set(registry):
        raise ValueError(f"the modules do not match the fault registry {sorted(registry)}")
    modules = []
    for name, index in registry.items():
        with _module_errors(name):
            modules.append(CfModule(index, name, *_fit_from_dict(parts[name])))
    return d["catalog_version"], CfdNetwork(modules=tuple(modules))


def load_bundle(path) -> tuple[LpdClassifier, CfdNetwork, str]:
    """The two stages of a bundle and their catalog version, which must be
    the version of this build's catalog."""
    version = default_catalog().version
    stages = []
    for stage, parse in (("lpd", _lpd_from_dict), ("cfd", _cfd_from_dict)):
        file = _stage_file(Path(path), stage)
        stored, stage = read_artifact(file, f"{file.stem} stage", parse)
        if stored != version:
            raise CatalogMismatch(f"{file} is built for catalog {stored!r}; this build provides {version!r}")
        stages.append(stage)
    return (*stages, version)
