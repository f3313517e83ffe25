"""Label encoding, scaling, stored-number checks, database persistence and
the one reader of operator files."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import netdiag

from netdiag.errors import DimensionMismatch, IoFailure, NonFiniteInput, TrainingError, UnknownLabel
from netdiag.preprocess import (
    DEFAULT_FAULT_REGISTRY,
    LabelKind,
    ScalerParams,
    SignatureDatabase,
    apply_scaler,
    encode_labels,
    fit_scaler,
    load_database,
    parse_bool,
    parse_fields,
    parse_indices,
    parse_numbers,
    parse_real,
    parse_registry,
    read_text,
    save_database,
    scale_database,
)


def db_from(X, y, registry=None):
    X = np.asarray(X, dtype=np.float64)
    return SignatureDatabase(
        feature_names=tuple(f"s{i}" for i in range(X.shape[1])),
        X=X,
        y=np.asarray(y, dtype=np.int64),
        catalog_version="v1",
        fault_registry=registry,
    )


class TestEncodeLabels:
    def test_link_tags(self):
        rows = [([1.0, 2.0], "FAULTY"), ([3.0, 4.0], "HEALTHY")]
        db = encode_labels(rows, ("a", "b"), LabelKind.LINK, "v1")
        assert db.y.tolist() == [1, -1]
        assert db.fault_registry is None and db.label_kind is LabelKind.LINK

    def test_client_tags_registry(self):
        registry = {"sack_disabled": 1, "dsack_disabled": 2, "read_buf": 3, "write_buf": 4}
        rows = [([0.0], "HEALTHY"), ([1.0], "sack_disabled"), ([2.0], "write_buf")]
        db = encode_labels(rows, ("a",), LabelKind.CLIENT, "v1", registry)
        assert db.y.tolist() == [0, 1, 4]
        assert db.label_kind is LabelKind.CLIENT

    def test_default_registry(self):
        db = encode_labels([([0.0], "read_buf")], ("a",), LabelKind.CLIENT, "v1")
        assert db.y.tolist() == [DEFAULT_FAULT_REGISTRY["read_buf"]]

    def test_unknown_tag(self):
        with pytest.raises(UnknownLabel):
            encode_labels([([0.0], "gremlins")], ("a",), LabelKind.CLIENT, "v1")
        with pytest.raises(UnknownLabel):
            encode_labels([([0.0], "sack_disabled")], ("a",), LabelKind.LINK, "v1")


class TestScaler:
    def test_extrema(self):
        db = db_from([[2.0], [4.0], [10.0]], [1, -1, 1])
        s = fit_scaler(db)
        assert s.min.tolist() == [2.0] and s.max.tolist() == [10.0]

    def test_constant_column(self):
        db = db_from([[5.0], [5.0], [5.0]], [1, -1, 1])
        s = fit_scaler(db)
        assert s.min.tolist() == [5.0] and s.max.tolist() == [5.0]
        assert apply_scaler(np.array([5.0]), s).tolist() == [0.0]

    def test_matches_column_scan_oracle(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(20, 6)) * 100
        db = db_from(X, [1, -1] * 10)
        s = fit_scaler(db)
        for j in range(6):
            lo, hi = X[0, j], X[0, j]
            for i in range(20):
                lo, hi = min(lo, X[i, j]), max(hi, X[i, j])
            assert s.min[j] == lo and s.max[j] == hi

    def test_too_few_rows(self):
        with pytest.raises(TrainingError, match="need at least 2 rows to fit a scaler"):
            fit_scaler(db_from([[1.0]], [1]))

    def test_endpoints(self):
        s = ScalerParams(min=np.array([2.0]), max=np.array([10.0]))
        assert apply_scaler(np.array([2.0]), s).tolist() == [0.0]
        assert apply_scaler(np.array([10.0]), s).tolist() == [1.0]

    def test_clamping_out_of_range(self):
        s = ScalerParams(min=np.array([0.0]), max=np.array([10.0]))
        assert apply_scaler(np.array([25.0]), s).tolist() == [1.0]
        assert apply_scaler(np.array([-5.0]), s).tolist() == [0.0]

    @settings(max_examples=200, deadline=None)
    @given(
        bounds=arrays(np.float64, (2, 6), elements=st.sampled_from([-3.0, -0.0, 0.0, 1.0, 2.5, 1e300, -1e300])),
        x=arrays(np.float64, st.sampled_from([(6,), (4, 6)]),
                 elements=st.one_of(st.floats(-1e6, 1e6), st.sampled_from([-0.0, 2.5, 1e300, -1e300]))),
    )
    def test_matches_masked_formula(self, bounds, x):
        # constant columns (min == max), signed zeros, values outside the range
        s = ScalerParams(min=bounds.min(axis=0), max=bounds.max(axis=0))
        with np.errstate(invalid="ignore", divide="ignore"):
            want = (x - s.min) / (s.max - s.min)
        want = np.clip(np.where(s.max - s.min > 0, want, 0.0), 0.0, 1.0)
        got = apply_scaler(x, s)
        assert got.shape == x.shape and np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_dimension_mismatch(self):
        s = ScalerParams(min=np.zeros(2), max=np.ones(2))
        with pytest.raises(DimensionMismatch):
            apply_scaler(np.zeros(3), s)


class TestScalingInvariants:
    @settings(max_examples=50, deadline=None)
    @given(
        X=arrays(
            np.float64,
            st.tuples(st.integers(2, 12), st.integers(1, 6)),
            elements=st.floats(-1e6, 1e6, allow_nan=False),
        )
    )
    def test_fit_apply_properties(self, X):
        y = np.array([1, -1] * ((X.shape[0] + 1) // 2))[: X.shape[0]]
        db = db_from(X, y)
        scaled, scaler = scale_database(db)
        assert scaler.min.tobytes() == fit_scaler(db).min.tobytes()
        assert scaler.max.tobytes() == fit_scaler(db).max.tobytes()
        Z = scaled.X
        assert np.all((Z >= 0) & (Z <= 1))
        for j in range(X.shape[1]):
            if X[:, j].max() > X[:, j].min():
                assert Z[:, j].min() == 0.0 and Z[:, j].max() == 1.0
                # monotone per feature: no inversions in x-order (float rounding
                # may collapse sub-ulp differences, never reorder)
                order = np.argsort(X[:, j], kind="stable")
                assert np.all(np.diff(Z[order, j]) >= 0)
                ties = X[:, j] == X[0, j]
                assert len(set(Z[ties, j])) == 1
            else:
                assert np.all(Z[:, j] == 0.0)


def assert_same_database(a: SignatureDatabase, b: SignatureDatabase) -> None:
    """Every stored field equal, X bit for bit."""
    assert (a.feature_names, a.label_kind, a.catalog_version, a.fault_registry) == (
        b.feature_names, b.label_kind, b.catalog_version, b.fault_registry)
    assert a.X.dtype == b.X.dtype == np.float64 and a.X.shape == b.X.shape and a.X.tobytes() == b.X.tobytes()
    assert a.y.dtype == b.y.dtype == np.int64 and np.array_equal(a.y, b.y)


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(6, 4)) * 1e5
        X[0, 0], X[1, 1] = 5e-324, -0.0  # the smallest subnormal and a signed zero
        prelim = db_from(X, [1, -1, 1, -1, 1, -1])
        scaled, _ = scale_database(prelim)
        for db in (prelim, scaled, db_from(np.empty((0, 4)), [])):
            save_database(db, tmp_path / "db.json")
            assert_same_database(load_database(tmp_path / "db.json"), db)
        assert [p.name for p in tmp_path.iterdir()] == ["db.json"]

    def test_client_registry_round_trip(self, tmp_path):
        db = db_from([[1.0], [2.0]], [0, 3], registry=dict(DEFAULT_FAULT_REGISTRY))
        path = tmp_path / "db.json"
        save_database(db, path)
        again = load_database(path)
        assert_same_database(again, db)
        assert again.label_kind is LabelKind.CLIENT

    def test_nan_scaler_refused_before_writing(self, tmp_path):
        # NaN has no JSON form.
        db = db_from([[1.0], [np.nan]], [1, -1])
        with pytest.raises(NonFiniteInput, match="db.json"):
            save_database(db, tmp_path / "db.json")
        assert list(tmp_path.iterdir()) == []

    def test_database_file_schema(self, tmp_path):
        import json

        db = db_from([[1.0], [2.0]], [1, -1])
        save_database(db, tmp_path / "db.json")
        assert [p.name for p in tmp_path.iterdir()] == ["db.json"]
        stored = json.loads((tmp_path / "db.json").read_text())
        assert stored == {
            "catalog_version": "v1",
            "fault_registry": {},
            "feature_names": ["s0"],
            "X": [[1.0], [2.0]],
            "y": [1, -1],
        }

    @pytest.mark.parametrize("how", ["write", "replace"])
    def test_failed_save_keeps_old_database(self, tmp_path, break_writes, how):
        # A client database saved over a link database changes every field
        # the old layout kept apart: the rows and the fault registry.
        old, _ = scale_database(db_from([[1.0, 2.0], [2.0, 1.0], [3.0, 3.0]], [1, -1, 1]))
        path = tmp_path / "db.json"
        save_database(old, path)
        new = db_from([[4.0, 5.0], [6.0, 7.0]], [0, 3], registry=dict(DEFAULT_FAULT_REGISTRY))
        break_writes("db.json", how)
        with pytest.raises(IoFailure, match="db.json"):
            save_database(new, path)
        assert_same_database(load_database(path), old)
        assert [p.name for p in tmp_path.iterdir()] == ["db.json"]


class TestStoredIndices:
    @pytest.mark.parametrize("values", [[], [0], [3, 1, 2], [9]])
    def test_distinct_integers_in_range_load(self, values):
        assert parse_indices(values, limit=10) == tuple(values)

    @pytest.mark.parametrize(
        "values", [[0.9, True, 3], [1.0], [True], [2, 2], [-1], [10], (1, 2), [[1]], ["1"]]
    )
    def test_anything_int_would_truncate_is_refused(self, values):
        with pytest.raises((ValueError, TypeError)):
            parse_indices(values, limit=10)

    def test_fractional_selected_index_is_io_failure(self, tmp_path):
        # selected_features is not a database key: a file carrying it is
        # refused, whatever its indices.
        import json

        save_database(db_from([[1.0, 2.0], [2.0, 1.0]], [1, -1]), tmp_path / "db.json")
        stored = json.loads((tmp_path / "db.json").read_text())
        stored["selected_features"] = [0.9, True]
        (tmp_path / "db.json").write_text(json.dumps(stored))
        with pytest.raises(IoFailure, match="db.json"):
            load_database(tmp_path / "db.json")


class TestStoredNumbers:
    @pytest.mark.parametrize("values, ndim", [([], 1), ([0, -1.5, 2**60], 1), ([], 2), ([[1, 2.5], [3, 4]], 2)])
    def test_number_lists_load_exactly(self, values, ndim):
        assert np.array_equal(parse_numbers(values, "v", ndim), np.asarray(values, dtype=np.float64))

    @pytest.mark.parametrize(
        "values, ndim",
        [(["0.5"], 1), ([True, 1.0], 1), ([None], 1), ([[1.0]], 1), ("12", 1), ([1.0, 2.0], 2), ([["0.5"]], 2),
         ([[1.0], [False]], 2), ([(1.0,)], 2)],
    )
    def test_anything_float64_would_convert_is_refused(self, values, ndim):
        with pytest.raises(TypeError, match="v must be a list"):
            parse_numbers(values, "v", ndim)

    @pytest.mark.parametrize("values, ndim", [([float("nan")], 1), ([[1.0], [float("-inf")]], 2)])
    def test_non_finite_is_refused(self, values, ndim):
        with pytest.raises(ValueError, match="v must be finite"):
            parse_numbers(values, "v", ndim)


class TestTypedFields:
    @pytest.mark.parametrize("value", [0, -3, 2.5, 2**63, 1e300, -1e300, 1e-300])
    def test_finite_numbers_are_reals(self, value):
        assert parse_real(value, "v") == float(value) and type(parse_real(value, "v")) is float

    # bool and int() of a string would read these as numbers; 10**400 has no float
    @pytest.mark.parametrize("value", [True, False, "10", None, [1.0], float("inf"), float("nan"), 10**400, -(10**400)])
    def test_anything_else_is_refused_by_name(self, value):
        with pytest.raises(ValueError, match="v must be a finite number"):
            parse_real(value, "v")

    def test_real_below_its_minimum_is_refused(self):
        assert parse_real(0, "v", minimum=0.0) == 0.0
        with pytest.raises(ValueError, match="v must be at least 0"):
            parse_real(-2, "v", minimum=0.0)

    @pytest.mark.parametrize("value", ["false", "no", 0, 1, None, []])
    def test_only_true_and_false_are_booleans(self, value):
        assert parse_bool(True, "b") is True and parse_bool(False, "b") is False
        with pytest.raises(ValueError, match="b must be true or false"):
            parse_bool(value, "b")

    def test_fields_of_a_json_object(self):
        allowed = {"name": str, "any": object}
        assert parse_fields({"name": "x", "any": [1]}, "w", allowed) == {"name": "x", "any": [1]}
        assert parse_fields({}, "w", allowed) == {}
        with pytest.raises(TypeError, match="w must be a JSON object, got list"):
            parse_fields([["name", "x"]], "w", allowed)
        with pytest.raises(ValueError, match="w: unknown key 'nmae'"):
            parse_fields({"nmae": "x"}, "w", allowed)
        with pytest.raises(TypeError, match="w.name is a int, not a str"):
            parse_fields({"name": 5}, "w", allowed)

    def test_registry_must_be_an_object(self):
        with pytest.raises(TypeError, match="fault_registry must be a JSON object"):
            parse_registry([["read_buf", 3]])


class TestReadText:
    def test_newline_is_opens(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"a\r\nb\rc\n")
        assert read_text(path) == "a\nb\nc\n"
        assert read_text(path, newline="") == "a\r\nb\rc\n"

    @pytest.mark.parametrize("content", [None, b"\xff\n"], ids=["missing", "not_utf8"])
    def test_unreadable_file_is_io_failure_naming_it(self, tmp_path, content):
        path = tmp_path / "t.csv"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(IoFailure, match="t.csv"):
            read_text(path)


def _file_reads(tree):
    """Line numbers of open(...), x.open(...), x.read_text(...) and json.loads(...) calls."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Name) and f.id == "open") or (
                isinstance(f, ast.Attribute)
                and (f.attr in ("open", "read_text") or (f.attr == "loads" and getattr(f.value, "id", None) == "json"))
            ):
                yield node.lineno


def test_only_preprocess_reads_files():
    # Every operator file goes through preprocess.read_text, so each is
    # refused alike when it cannot be read (module docstring).
    package = Path(netdiag.__file__).parent
    reads = [
        f"{path.name}:{line}"
        for path in sorted(package.glob("*.py"))
        if path.name != "preprocess.py"
        for line in _file_reads(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert reads == []
