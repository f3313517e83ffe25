"""Verdict scoring: per-condition accuracy, the link gate's confusion
and per-fault confusion.

evaluate_verdicts runs the cascade over labeled trace pairs and scores
each verdict exactly; render_report prints the result as text tables.
The link gate's row counts every pair, with a faulty link as positive,
so a gate error shows there and not only as faults left unscored.  A
rate whose denominator is zero has no value: it is None in the report
and "n/a" in the table.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .classifiers import CfdNetwork, LinkState, LpdClassifier, diagnose
from .features import default_catalog
from .scenarios import format_client_tag
from .trace import TracePair


@dataclass(frozen=True)
class GroundTruth:
    link_faulty: bool
    client_faults: frozenset[str]

    def condition(self) -> str:
        if self.link_faulty:
            return "faulty_link"
        if not self.client_faults:
            return "default_client"
        return format_client_tag(self.client_faults)


def confusion(outcomes: Iterable[tuple[bool, bool]]) -> dict:
    """The confusion counts and rates of (expected, detected) outcomes."""
    counts = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
    for expected, detected in outcomes:
        counts[("tp" if detected else "fn") if expected else ("fp" if detected else "tn")] += 1
    tp, fp, tn, fn = counts.values()
    n = tp + fp + tn + fn
    return {
        **counts,
        "accuracy": (tp + tn) / n if n else None,
        "false_positive_rate": fp / (fp + tn) if fp + tn else None,
    }


def evaluate_verdicts(
    labeled_pairs: Iterable[tuple[TracePair, GroundTruth]], lpd: LpdClassifier, cfd: CfdNetwork
) -> dict:
    """Per-condition exact-verdict accuracy, the link gate's confusion and
    per-fault confusion, taking the labeled pairs one at a time.  A fault
    is scored on the pairs of a healthy link that the gate passed."""
    catalog = default_catalog()
    by_condition: dict[str, list[bool]] = {}
    gate: list[tuple[bool, bool]] = []
    per_fault: dict[str, list[tuple[bool, bool]]] = {m.fault_name: [] for m in cfd.modules}
    for pair, truth in labeled_pairs:
        verdict = diagnose(lpd, cfd, pair, catalog)
        flagged = verdict.link is LinkState.FAULTY
        correct = flagged if truth.link_faulty else not flagged and verdict.client_faults == truth.client_faults
        by_condition.setdefault(truth.condition(), []).append(correct)
        gate.append((truth.link_faulty, flagged))
        if not truth.link_faulty and not flagged:
            for name, outcomes in per_fault.items():
                outcomes.append((name in truth.client_faults, name in verdict.client_faults))
    conditions = {
        cond: {"n": len(flags), "accuracy": float(np.mean(flags))}
        for cond, flags in sorted(by_condition.items())
    }
    return {
        "conditions": conditions,
        "lpd": confusion(gate),
        "per_fault": {name: confusion(outcomes) for name, outcomes in per_fault.items()},
    }


def _percent(rate: float | None, width: int) -> str:
    return f"{'n/a':>{width + 1}}" if rate is None else f"{rate * 100:{width}.2f}%"


def _confusion_table(title: str, rows: dict) -> list[str]:
    width = max([len(title)] + [len(name) for name in rows])
    lines = [f"{title:<{width}}  {'tp':>4} {'fp':>4} {'tn':>4} {'fn':>4}  accuracy  fp_rate"]
    for name, cm in rows.items():
        lines.append(
            f"{name:<{width}}  {cm['tp']:>4} {cm['fp']:>4} {cm['tn']:>4} {cm['fn']:>4}"
            f"  {_percent(cm['accuracy'], 7)}  {_percent(cm['false_positive_rate'], 6)}"
        )
    return lines


def render_report(report: dict) -> str:
    """Aligned-column text tables of an evaluate_verdicts report."""
    lines = []
    width = max([len("condition")] + [len(c) for c in report["conditions"]])
    lines.append(f"{'condition':<{width}}  {'n':>5}  accuracy")
    for cond, row in report["conditions"].items():
        lines.append(f"{cond:<{width}}  {row['n']:>5}  {_percent(row['accuracy'], 7)}")
    lines.append("")
    lines += _confusion_table("fault", report["per_fault"])
    lines.append("")
    lines += _confusion_table("link gate", {"lpd": report["lpd"]})
    return "\n".join(lines) + "\n"
