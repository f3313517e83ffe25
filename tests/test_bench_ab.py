"""The summary arithmetic of bench/ab.py on canned perfbench output."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("ab", Path(__file__).resolve().parent.parent / "bench" / "ab.py")
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

BETTER = {"op_ms_p50": "lower", "ops_per_s": "higher", "peak_rss_mib": "lower", "svm.solve_ms": "lower"}


def canned(op_ms_p50: float, ops_per_s: float, fingerprint: str = "ab12", failed: int = 0) -> str:
    """A perfbench stdout: comment lines, then the result line."""
    metrics = {
        "op_ms_p50": {"value": op_ms_p50, "unit": "ms"},
        "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
        "svm.solve_ms": {"value": 0.0, "unit": "ms"},  # a layer the workload does not run
    }
    result = {"correct": failed == 0, "attempted": 40, "failed": failed, "metrics": metrics}
    return "\n".join([
        "# perfbench workload=synth seed=1 seconds=30 trace=0 size=full",
        "# ops attempted=40 failed=0 error_rate=0.000000",
        f"# fingerprint {fingerprint}",
        "# op_ms_p50 = 1 ms",
        json.dumps(result),
        "",
    ])


def test_parse_run_reads_the_result_line_and_fingerprint():
    run = ab.parse_run(canned(12.5, 80.0, fingerprint="45cbeb04", failed=1))
    assert run == {
        "metrics": {"op_ms_p50": 12.5, "ops_per_s": 80.0, "svm.solve_ms": 0.0},
        "correct": False,
        "attempted": 40,
        "failed": 1,
        "fingerprint": "45cbeb04",
    }


def test_schedule_runs_the_parent_first_on_even_pairs():
    assert ab.schedule([7, 8, 9]) == [(7, ("parent", "change")), (8, ("change", "parent")), (9, ("parent", "change"))]


def test_summary_counts_wins_gap_and_parent_iqr_in_the_better_direction():
    parent = [ab.parse_run(canned(ms, rate)) for ms, rate in [(10.0, 100.0), (11.0, 90.0), (12.0, 95.0), (13.0, 85.0)]]
    change = [ab.parse_run(canned(ms, rate)) for ms, rate in [(8.0, 120.0), (9.0, 90.0), (12.5, 80.0), (14.0, 99.0)]]
    summary = ab.summarize({"parent": parent, "change": change}, BETTER)
    assert set(summary) == {"op_ms_p50", "ops_per_s"}  # no run reports peak_rss_mib; svm.solve_ms reads 0
    op = summary["op_ms_p50"]
    # exclusive quartiles of 10, 11, 12, 13: positions 1.25, 2.5 and 3.75
    assert op["parent"] == {"median": 11.5, "q1": 10.25, "q3": 12.75}
    assert op["change"]["median"] == 10.75
    assert op["change_wins"] == 2  # 8 < 10 and 9 < 11
    assert op["median_gap"] == pytest.approx(0.75)
    assert op["parent_iqr"] == pytest.approx(2.5)
    rate = summary["ops_per_s"]
    assert rate["change_wins"] == 2  # 120 > 100 and 99 > 85; the tie 90 = 90 is no win
    assert rate["median_gap"] == pytest.approx(94.5 - 92.5)  # higher is better: change median minus parent's


def _runs(parent: list[tuple[float, float]], change: list[tuple[float, float]]) -> dict:
    return {side: [ab.parse_run(canned(ms, rate)) for ms, rate in pairs] for side, pairs in (("parent", parent), ("change", change))}


def test_bounded_metrics_get_relative_move_within_bound_and_resolved():
    # parent op_ms_p50 10..13: median 11.5, IQR 2.5; ops_per_s 85..100: median 92.5, IQR 12.5
    runs = _runs([(10.0, 100.0), (11.0, 90.0), (12.0, 95.0), (13.0, 85.0)],
                 [(14.0, 96.0), (15.0, 84.0), (15.0, 92.0), (16.0, 91.0)])
    summary = ab.summarize(runs, BETTER, {"op_ms_p50": 0.25, "ops_per_s": 0.2})
    op = summary["op_ms_p50"]
    assert op["relative_move"] == pytest.approx(15.0 / 11.5 - 1)  # 30 % slower: worse, so positive
    assert op["within_bound"] is False
    assert op["resolved"] is True  # a gap of 3.5 against an IQR of 2.5, though the change is worse
    rate = summary["ops_per_s"]
    assert rate["relative_move"] == pytest.approx(1 - 91.5 / 92.5)  # higher is better: a lower rate is positive
    assert rate["within_bound"] is True
    assert rate["resolved"] is False  # a gap of 1 inside an IQR of 12.5: unresolved, not unchanged
    assert "relative_move" not in ab.summarize(runs, BETTER)["op_ms_p50"]  # no bound, no verdict


def test_a_change_that_beats_every_parent_run_is_resolved_inside_the_iqr():
    # parent median 11.5 with IQR 7.75; every change run is below every parent run
    runs = _runs([(10.0, 1.0), (11.0, 1.0), (12.0, 1.0), (20.0, 1.0)], [(9.0, 1.0), (9.5, 1.0), (9.8, 1.0), (9.9, 1.0)])
    op = ab.summarize(runs, BETTER, {"op_ms_p50": 0.25})["op_ms_p50"]
    assert op["median_gap"] == pytest.approx(11.5 - 9.65) and op["median_gap"] < op["parent_iqr"]
    assert op["relative_move"] == pytest.approx(9.65 / 11.5 - 1)
    assert op["within_bound"] is True and op["resolved"] is True


def test_workload_entry_keeps_runs_and_compares_fingerprints():
    runs = {
        "parent": [ab.parse_run(canned(10.0 / 3, 1.0, "f1")), ab.parse_run(canned(2.0, 1.0, "f2"))],
        "change": [ab.parse_run(canned(1.0, 2.0, "f1")), ab.parse_run(canned(1.0, 2.0, "f3"))],
    }
    entry = ab.workload_entry([5, 6], runs, BETTER)
    assert entry["pairs"] == 2
    assert entry["per_run"]["parent"]["op_ms_p50"] == [3.3333, 2.0]  # rounded to 4 decimals
    assert entry["per_run"]["change"]["failed"] == [0, 0]
    assert entry["summary"]["op_ms_p50"]["change_wins"] == 2
    assert entry["fingerprints"]["change"] == ["f1", "f3"]
    assert entry["fingerprints_equal_on_every_seed"] is False


def _checkout(root: Path, files: dict[str, str]) -> Path:
    package = root / "src" / "netdiag"
    package.mkdir(parents=True)
    for name, text in files.items():
        (package / name).write_text(text, encoding="utf-8")
    return root


def test_entry_records_each_checkouts_src_lines(tmp_path, monkeypatch):
    parent = _checkout(tmp_path / "parent", {"a.py": "x = 1\ny = 2\n", "b.py": "z = 3\n", "notes.txt": "n\n" * 9})
    change = _checkout(tmp_path / "change", {"a.py": "x = 1\n"})
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [{"name": "op_ms_p50", "better": "lower", "bound": 0.25}]}))
    monkeypatch.setattr(ab, "run_perfbench", lambda checkout, *rest: ab.parse_run(canned(2.0 if checkout == parent else 1.0, 1.0)))
    out = tmp_path / "BENCH.json"
    assert ab.main([str(parent), str(change), "--workload", "synth", "--seeds", "1", "2", "--seconds", "1", "--out", str(out)]) == 0
    entry = json.loads(out.read_text(encoding="utf-8"))["workloads"]["synth"]
    assert entry["src_lines"] == {"parent": 3, "change": 1}
    assert entry["src_lines_by_module"] == {"parent": {"a": 2, "b": 1}, "change": {"a": 1}}
    op = entry["summary"]["op_ms_p50"]
    assert op["change_wins"] == 2
    assert op["relative_move"] == -0.5 and op["within_bound"] is True
