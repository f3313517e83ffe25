"""Signature databases, and the one reader of every file an operator hands in.

A database holds raw signature rows: their labels, the feature names,
the catalog version and, for client labels, the fault registry.  Scaling
(every feature linearly mapped to [0, 1] using training extrema) and the
choice of columns are steps of the training pipeline, not states of a
database: their results live on the CV grid and on the trained model.
The fitted scaler travels with every model, so diagnosis-time vectors
are mapped with the training extrema and clamped into [0, 1].

On disk a database is one JSON artifact file (see write_artifact) with
exactly five keys: catalog version, fault registry, feature names, rows
`X` and labels `y`.  JSON writes each float with float.__repr__, so `X`
reloads bit for bit.

Every file the operator hands in is read here (the input contract).  A
trace and a labels file go through `read_text`; a config, a scenario, a
database and a bundle stage file through `read_artifact` (JSON), whose
fields go through the typed parsers `parse_fields`, `parse_integer`,
`parse_real`, `parse_bool`, `parse_numbers`, `parse_indices` and
`parse_registry`; the dataclasses they fill check their own ranges.  A
file that cannot be read or is not UTF-8, bad JSON and a refused field
are an `IoFailure` naming the file; a bad trace is a `BadHeader`,
`MalformedRow` or `EmptyTrace`, a bad labels file a `ConfigError`.  The
CLI exits 2 on each, 4 on a `CatalogMismatch`, 3 on a failure to train.
"""

from __future__ import annotations

import enum
import json
import os
import secrets
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatch,
    IoFailure,
    NonFiniteInput,
    TooFewRows,
    UnknownLabel,
)

LINK_FAULTY = +1
LINK_HEALTHY = -1
HEALTHY_CLIENT = 0  # client-label index reserved for the no-fault class

# The JSON types a stored number may have; bool, a subclass of int, is not one.
_NUMBER_TYPES = {int, float}

DEFAULT_FAULT_REGISTRY = {
    "sack_disabled": 1,
    "dsack_disabled": 2,
    "read_buf": 3,
    "write_buf": 4,
}


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
    feature_names: tuple[str, ...]
    X: np.ndarray  # n x m, float64
    y: np.ndarray  # n, int
    label_kind: LabelKind
    catalog_version: str
    fault_registry: dict[str, int] | None = None

    def __post_init__(self):
        if self.X.ndim != 2 or self.X.shape[0] != self.y.shape[0]:
            raise DimensionMismatch("X/y shape mismatch")
        if self.X.shape[1] != len(self.feature_names):
            raise DimensionMismatch("feature_names length != columns")

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
    """Build a database from (vector, tag) rows, each tag read by `read_tag`."""
    registry = dict(fault_registry) if fault_registry else (
        dict(DEFAULT_FAULT_REGISTRY) if kind is LabelKind.CLIENT else {}
    )
    X = [np.asarray(values, dtype=np.float64) for values, _ in rows]
    y = [read_tag(tag, kind, registry) for _, tag in rows]
    return SignatureDatabase(
        feature_names=tuple(feature_names),
        X=np.vstack(X) if X else np.empty((0, len(feature_names))),
        y=np.asarray(y, dtype=np.int64),
        label_kind=kind,
        catalog_version=catalog_version,
        fault_registry=registry if kind is LabelKind.CLIENT else None,
    )


def read_tag(tag: str, kind: LabelKind, registry: dict[str, int]) -> int:
    """The label of a tag.  Link tags: FAULTY -> +1, HEALTHY -> -1.  Client
    tags: HEALTHY -> 0, fault names resolve through the registry."""
    if kind is LabelKind.LINK:
        label = {"FAULTY": LINK_FAULTY, "HEALTHY": LINK_HEALTHY}.get(tag)
    else:
        label = HEALTHY_CLIENT if tag == "HEALTHY" else registry.get(tag)
    if label is None:
        raise UnknownLabel(tag)
    return label


def fit_scaler(db: SignatureDatabase) -> ScalerParams:
    """Column-wise extrema of the training rows."""
    if db.n < 2:
        raise TooFewRows(f"need at least 2 rows to fit a scaler, got {db.n}")
    return ScalerParams(min=db.X.min(axis=0), max=db.X.max(axis=0))


def apply_scaler(x: np.ndarray, s: ScalerParams) -> np.ndarray:
    """Map to [0, 1] per feature; constant features -> 0; clamp outside."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != s.m:
        raise DimensionMismatch(f"vector has {x.shape[-1]} features, scaler has {s.m}")
    span = s.max - s.min
    out = np.zeros(x.shape)
    np.divide(x - s.min, span, out=out, where=span > 0)
    return np.clip(out, 0.0, 1.0, out=out)


def scale_database(db: SignatureDatabase) -> tuple[SignatureDatabase, ScalerParams]:
    """The rows of db mapped to [0, 1] by the scaler fitted on them, and
    that scaler."""
    scaler = fit_scaler(db)
    return replace(db, X=apply_scaler(db.X, scaler)), scaler


def scaler_to_dict(scaler: ScalerParams | None) -> dict:
    """JSON form of a scaler, as stored in model files; no scaler is two
    empty lists."""
    if scaler is None:
        return {"min": [], "max": []}
    return {"min": scaler.min.tolist(), "max": scaler.max.tolist()}


def scaler_from_dict(d: dict) -> ScalerParams | None:
    """Inverse of scaler_to_dict; a malformed scaler is a TypeError."""
    smin, smax = parse_numbers(d["min"], "scaler min"), parse_numbers(d["max"], "scaler max")
    if smin.shape != smax.shape:
        raise TypeError("scaler min and max must be number lists of one length")
    return ScalerParams(min=smin, max=smax) if smin.size else None


def save_database(db: SignatureDatabase, path) -> None:
    write_artifact(
        path,
        {
            "catalog_version": db.catalog_version,
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


def read_text(path, newline: str | None = None) -> str:
    """The text of the file at path (newline as for open()); an OSError or
    text that is not UTF-8 is an IoFailure naming the file."""
    try:
        with open(path, encoding="utf-8", newline=newline) as f:
            return f.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise IoFailure(f"{path}: not UTF-8 text: {exc}") from exc


def read_artifact(path, what: str, parse):
    """parse() of the JSON in an artifact file; an unreadable or malformed
    file (bad JSON, missing keys, wrong types) is an IoFailure naming it."""
    try:
        return parse(json.loads(read_text(path)))
    except (ValueError, KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise IoFailure(f"malformed {what} file {path}: {exc!r}") from exc


def parse_fields(raw, where: str, allowed: dict[str, type]) -> dict:
    """raw if it is a JSON object whose keys are all in allowed, each value
    of the type allowed gives its key (object: any); else an error naming where."""
    if not isinstance(raw, dict):
        raise TypeError(f"{where} must be a JSON object, got {type(raw).__name__}")
    for key, value in raw.items():
        if key not in allowed:
            raise ValueError(f"{where}: unknown key {key!r}")
        if not isinstance(value, allowed[key]):
            raise TypeError(f"{where}.{key} is a {type(value).__name__}, not a {allowed[key].__name__}")
    return raw


def parse_registry(registry) -> dict[str, int]:
    """A stored fault registry: a JSON object of fault name -> distinct
    integer index, none of them the healthy-client index."""
    if not isinstance(registry, dict):
        raise TypeError(f"fault_registry must be a JSON object, got {type(registry).__name__}")
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


def parse_real(value, name: str, minimum: float | None = None) -> float:
    """value as a float if it is a finite number (not a bool or an integer
    beyond the float range) of at least minimum; else a ValueError naming it."""
    if type(value) not in _NUMBER_TYPES or not abs(value) <= sys.float_info.max:
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")
    return float(value)


def parse_bool(value, name: str) -> bool:
    """value if it is true or false; anything else, which bool() would read as one, is a ValueError."""
    if type(value) is not bool:
        raise ValueError(f"{name} must be true or false, got {value!r}")
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


def parse_numbers(values, what: str, ndim: int = 1) -> np.ndarray:
    """Stored numbers as a float64 array: a list of finite numbers, or for
    ndim 2 a list of such lists of one length.  A string or a bool among
    them (which float64 would read as a number) is a TypeError."""
    rows = values if ndim == 2 else [values]
    if not (
        isinstance(values, list)
        and all(type(row) is list and _NUMBER_TYPES.issuperset(map(type, row)) for row in rows)
    ):
        raise TypeError(f"{what} must be a list of {'number lists' if ndim == 2 else 'numbers'}")
    array = np.asarray(values, dtype=np.float64)
    if not np.isfinite(array).all():
        raise ValueError(f"{what} must be finite")
    return array


_DATABASE_KEYS = {"catalog_version": str, "fault_registry": object, "feature_names": list, "X": list, "y": list}


def _database_from_dict(d) -> SignatureDatabase:
    """A stored database with every field's type checked.  Labels must be
    integers (no bools or floats, which int64 would truncate) of the
    database's kind, and X exactly one row of len(feature_names) finite
    numbers per label.  Any other set of keys is refused: a database that
    an older version wrote with its scaler and chosen columns holds rows
    that are already scaled, and training must not scale them twice."""
    parse_fields(d, "database", _DATABASE_KEYS)
    registry = parse_registry(d["fault_registry"])
    names, y = d["feature_names"], d["y"]
    if not all(isinstance(name, str) for name in names):
        raise TypeError("feature_names must be strings")
    if not all(type(label) is int for label in y):
        raise TypeError("labels y must be integers")
    X = parse_numbers(d["X"], "X", ndim=2) if d["X"] else np.empty((0, len(names)))
    if X.shape != (len(y), len(names)):
        raise ValueError(f"X of shape {X.shape} is not {len(y)} rows of {len(names)} features")
    known = {HEALTHY_CLIENT, *registry.values()} if registry else {LINK_FAULTY, LINK_HEALTHY}
    if not known.issuperset(y):
        raise ValueError(f"labels {sorted(set(y) - known)} are not among {sorted(known)}")
    return SignatureDatabase(
        feature_names=tuple(names),
        X=X,
        y=np.asarray(y, dtype=np.int64),
        label_kind=LabelKind.CLIENT if registry else LabelKind.LINK,
        catalog_version=d["catalog_version"],
        fault_registry=registry or None,
    )


def load_database(path) -> SignatureDatabase:
    return read_artifact(path, "database", _database_from_dict)
