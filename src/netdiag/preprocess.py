"""Signature databases: label encoding, staging, and 0-1 rescaling.

A database moves through three stages: preliminary (raw statistics),
scaled (every feature linearly mapped to [0, 1] using training extrema),
and optimum (column subset chosen by feature selection).  The fitted
scaler travels with every trained model so diagnosis-time vectors are
mapped with the training extrema and clamped into [0, 1].

On disk a database is one JSON artifact file (see write_artifact) holding
its stage, catalog version, scaler, selected feature indices, fault
registry, feature names, rows `X` and labels `y`.  JSON writes each float
with float.__repr__, so `X` reloads bit for bit.
"""

from __future__ import annotations

import enum
import json
import os
import secrets
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatch,
    IoFailure,
    NonFiniteInput,
    StageError,
    TooFewRows,
    UnknownLabel,
)

LINK_FAULTY = +1
LINK_HEALTHY = -1
HEALTHY_CLIENT = 0  # client-label index reserved for the no-fault class

DEFAULT_FAULT_REGISTRY = {
    "sack_disabled": 1,
    "dsack_disabled": 2,
    "read_buf": 3,
    "write_buf": 4,
}


class Stage(enum.Enum):
    PRELIMINARY = "preliminary"
    SCALED = "scaled"
    OPTIMUM = "optimum"


class LabelKind(enum.Enum):
    LINK = "link"
    CLIENT = "client"


@dataclass(frozen=True)
class ScalerParams:
    """Per-feature training extrema."""

    min: np.ndarray
    max: np.ndarray

    def __post_init__(self):
        if self.min.shape != self.max.shape:
            raise DimensionMismatch("scaler min/max length mismatch")
        if np.any(self.min > self.max):
            raise ValueError("scaler with min > max")

    @property
    def m(self) -> int:
        return int(self.min.shape[0])


@dataclass(frozen=True, eq=False)
class SignatureDatabase:
    stage: Stage
    feature_names: tuple[str, ...]
    X: np.ndarray  # n x m, float64
    y: np.ndarray  # n, int
    label_kind: LabelKind
    catalog_version: str
    scaler: ScalerParams | None = None
    selected_features: tuple[int, ...] | None = None
    fault_registry: dict[str, int] | None = None

    def __post_init__(self):
        if self.X.ndim != 2 or self.X.shape[0] != self.y.shape[0]:
            raise DimensionMismatch("X/y shape mismatch")
        if self.X.shape[1] != len(self.feature_names):
            raise DimensionMismatch("feature_names length != columns")
        if self.stage is Stage.OPTIMUM and self.selected_features is None:
            raise StageError("optimum database requires selected_features")

    @property
    def n(self) -> int:
        return int(self.X.shape[0])

    @property
    def m(self) -> int:
        return int(self.X.shape[1])


def encode_labels(
    rows,
    feature_names,
    kind: LabelKind,
    catalog_version: str,
    fault_registry: dict[str, int] | None = None,
) -> SignatureDatabase:
    """Build the preliminary database from (vector, tag) rows.

    Link tags: FAULTY -> +1, HEALTHY -> -1.  Client tags: HEALTHY -> 0,
    fault names resolve through the registry.
    """
    registry = dict(fault_registry) if fault_registry else (
        dict(DEFAULT_FAULT_REGISTRY) if kind is LabelKind.CLIENT else {}
    )
    X = []
    y = []
    for values, tag in rows:
        X.append(np.asarray(values, dtype=np.float64))
        if kind is LabelKind.LINK:
            if tag == "FAULTY":
                y.append(LINK_FAULTY)
            elif tag == "HEALTHY":
                y.append(LINK_HEALTHY)
            else:
                raise UnknownLabel(tag)
        else:
            if tag == "HEALTHY":
                y.append(HEALTHY_CLIENT)
            elif tag in registry:
                y.append(registry[tag])
            else:
                raise UnknownLabel(tag)
    return SignatureDatabase(
        stage=Stage.PRELIMINARY,
        feature_names=tuple(feature_names),
        X=np.vstack(X) if X else np.empty((0, len(feature_names))),
        y=np.asarray(y, dtype=np.int64),
        label_kind=kind,
        catalog_version=catalog_version,
        fault_registry=registry if kind is LabelKind.CLIENT else None,
    )


def fit_scaler(db: SignatureDatabase) -> ScalerParams:
    """Column-wise extrema of the training rows."""
    if db.stage is not Stage.PRELIMINARY:
        raise StageError(f"scaler must be fitted on a preliminary database, got {db.stage.value}")
    if db.n < 2:
        raise TooFewRows(f"need at least 2 rows to fit a scaler, got {db.n}")
    return ScalerParams(min=db.X.min(axis=0), max=db.X.max(axis=0))


def apply_scaler(x: np.ndarray, s: ScalerParams) -> np.ndarray:
    """Map to [0, 1] per feature; constant features -> 0; clamp outside."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != s.m:
        raise DimensionMismatch(f"vector has {x.shape[-1]} features, scaler has {s.m}")
    span = s.max - s.min
    with np.errstate(invalid="ignore", divide="ignore"):
        out = (x - s.min) / span
    out = np.where(span > 0, out, 0.0)
    return np.clip(out, 0.0, 1.0)


def scale_database(db: SignatureDatabase, scaler: ScalerParams | None = None) -> SignatureDatabase:
    """Preliminary -> scaled.  Re-scaling a scaled database is rejected."""
    if db.stage is not Stage.PRELIMINARY:
        raise StageError(f"cannot scale a {db.stage.value} database")
    if scaler is None:
        scaler = fit_scaler(db)
    return replace(db, stage=Stage.SCALED, X=apply_scaler(db.X, scaler), scaler=scaler)


def scaler_to_dict(scaler: ScalerParams | None) -> dict:
    """JSON form of a scaler, as stored in model and database files; no
    scaler is two empty lists."""
    if scaler is None:
        return {"min": [], "max": []}
    return {"min": scaler.min.tolist(), "max": scaler.max.tolist()}


def scaler_from_dict(d: dict) -> ScalerParams | None:
    """Inverse of scaler_to_dict; a malformed scaler is a TypeError."""
    smin = np.asarray(d["min"], dtype=np.float64)
    smax = np.asarray(d["max"], dtype=np.float64)
    if smin.ndim != 1 or smin.shape != smax.shape:
        raise TypeError("scaler min and max must be number lists of one length")
    if not (np.isfinite(smin).all() and np.isfinite(smax).all()):
        raise ValueError("scaler min and max must be finite")
    return ScalerParams(min=smin, max=smax) if smin.size else None


def save_database(db: SignatureDatabase, path) -> None:
    write_artifact(
        path,
        {
            "stage": db.stage.value,
            "catalog_version": db.catalog_version,
            "scaler": scaler_to_dict(db.scaler),
            "selected_features": list(db.selected_features) if db.selected_features else [],
            "fault_registry": dict(db.fault_registry) if db.fault_registry else {},
            "feature_names": list(db.feature_names),
            "X": db.X.tolist(),
            "y": db.y.tolist(),
        },
    )


def write_artifact(path, payload) -> None:
    """Write payload as a one-line JSON artifact file with sorted keys (no
    indentation, so the C encoder runs).  NaN and infinities have no JSON
    form: they are a NonFiniteInput, raised before the file is opened."""
    try:
        text = json.dumps(payload, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteInput(f"cannot write {path}: {exc}") from exc
    write_text(path, text + "\n")


def write_text(path, text: str) -> None:
    """Replace the file at path with text, through a temporary file in the
    same directory and os.replace: a crash leaves the old file or the new
    one, never a part of either.  An OSError is an IoFailure."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8", newline="\n") as f:
            f.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def read_artifact(path, what: str, parse):
    """parse() of the JSON in an artifact file; an unreadable or malformed
    file (bad JSON, missing keys, wrong types) is an IoFailure naming it."""
    try:
        return parse(json.loads(Path(path).read_text(encoding="utf-8")))
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    except (ValueError, KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise IoFailure(f"malformed {what} file {path}: {exc!r}") from exc


def parse_registry(registry: dict) -> dict[str, int]:
    """A stored fault registry: fault name -> distinct integer index, none
    of them the healthy-client index."""
    indices = parse_indices(list(registry.values()), what="fault registry indices")
    if HEALTHY_CLIENT in indices:
        raise ValueError(f"fault registry index {HEALTHY_CLIENT} is reserved for the healthy client")
    return dict(zip((str(k) for k in registry), indices))


def parse_integer(value, name: str, minimum: int | None = None) -> int:
    """value if it is an integer (not a bool) of at least minimum; a float,
    which int() would truncate, or any other value is a ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    return value


def parse_indices(values, limit: int | None = None, what: str = "indices") -> tuple[int, ...]:
    """Stored indices as a tuple: a list of distinct integers in [0, limit).
    A float or a bool (which int() would truncate), a duplicate or an
    index out of range is a ValueError."""
    bound = float("inf") if limit is None else limit
    if not (
        isinstance(values, list)
        and all(type(i) is int and 0 <= i < bound for i in values)
        and len(set(values)) == len(values)
    ):
        raise ValueError(f"{what} {values!r} are not distinct integers in [0, {bound})")
    return tuple(values)


def _database_from_dict(d) -> SignatureDatabase:
    """A stored database with every field's type checked and the scaler
    rebuilt.  Labels must be integers (no bools or floats, which int64 would
    truncate) of the database's kind, and X exactly one finite row of
    len(feature_names) numbers per label."""
    for key, kind in (("stage", str), ("catalog_version", str), ("scaler", dict),
                      ("selected_features", list), ("fault_registry", dict),
                      ("feature_names", list), ("X", list), ("y", list)):
        if not isinstance(d[key], kind):
            raise TypeError(f"{key!r} is a {type(d[key]).__name__}, not a {kind.__name__}")
    names, y = d["feature_names"], d["y"]
    if not all(isinstance(name, str) for name in names):
        raise TypeError("feature_names must be strings")
    if not all(type(label) is int for label in y):
        raise TypeError("labels y must be integers")
    X = np.asarray(d["X"] or np.empty((0, len(names))), dtype=np.float64)
    if X.shape != (len(y), len(names)):
        raise ValueError(f"X of shape {X.shape} is not {len(y)} rows of {len(names)} features")
    if not np.isfinite(X).all():
        raise ValueError("X must be finite")
    stage = Stage(d["stage"])
    scaler = scaler_from_dict(d["scaler"])
    selected = parse_indices(d["selected_features"], scaler.m if scaler is not None else None, "selected_features")
    if stage is Stage.OPTIMUM and len(selected) != len(names):
        raise ValueError(f"optimum database has {len(selected)} selected features for {len(names)} columns")
    registry = parse_registry(d["fault_registry"])
    known = {HEALTHY_CLIENT, *registry.values()} if registry else {LINK_FAULTY, LINK_HEALTHY}
    if not known.issuperset(y):
        raise ValueError(f"labels {sorted(set(y) - known)} are not among {sorted(known)}")
    return SignatureDatabase(
        stage=stage,
        feature_names=tuple(names),
        X=X,
        y=np.asarray(y, dtype=np.int64),
        label_kind=LabelKind.CLIENT if registry else LabelKind.LINK,
        catalog_version=d["catalog_version"],
        scaler=scaler,
        selected_features=selected or None,
        fault_registry=registry or None,
    )


def load_database(path) -> SignatureDatabase:
    return read_artifact(path, "database", _database_from_dict)
