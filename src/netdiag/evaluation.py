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
from .features import FeatureCatalog
from .trace import TracePair


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def n(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def accuracy(self) -> float | None:
        return (self.tp + self.tn) / self.n if self.n else None

    @property
    def false_positive_rate(self) -> float | None:
        denom = self.fp + self.tn
        return self.fp / denom if denom else None

    def to_dict(self) -> dict:
        return {
            "tp": self.tp,
            "fp": self.fp,
            "tn": self.tn,
            "fn": self.fn,
            "accuracy": self.accuracy,
            "false_positive_rate": self.false_positive_rate,
        }


@dataclass(frozen=True)
class GroundTruth:
    link_faulty: bool
    client_faults: frozenset[str]

    def condition(self) -> str:
        if self.link_faulty:
            return "faulty_link"
        if not self.client_faults:
            return "default_client"
        return "+".join(sorted(self.client_faults))


def evaluate_verdicts(
    labeled_pairs: Iterable[tuple[TracePair, GroundTruth]],
    lpd: LpdClassifier,
    cfd: CfdNetwork,
    catalog: FeatureCatalog,
) -> dict:
    """Per-condition exact-verdict accuracy, the link gate's confusion and
    per-fault confusion, taking the labeled pairs one at a time."""
    by_condition: dict[str, list[bool]] = {}
    gate_counts = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
    fault_names = [m.fault_name for m in cfd.modules]
    fault_counts = {name: {"tp": 0, "fp": 0, "tn": 0, "fn": 0} for name in fault_names}
    for pair, truth in labeled_pairs:
        verdict = diagnose(lpd, cfd, pair, catalog)
        if truth.link_faulty:
            correct = verdict.link is LinkState.FAULTY
        else:
            correct = verdict.link is LinkState.HEALTHY and verdict.client_faults == truth.client_faults
        by_condition.setdefault(truth.condition(), []).append(correct)
        flagged = verdict.link is LinkState.FAULTY
        gate_counts[("tp" if flagged else "fn") if truth.link_faulty else ("fp" if flagged else "tn")] += 1
        if not truth.link_faulty and verdict.link is LinkState.HEALTHY:
            for name in fault_names:
                expected = name in truth.client_faults
                detected = name in verdict.client_faults
                key = "tp" if expected and detected else "fn" if expected else "fp" if detected else "tn"
                fault_counts[name][key] += 1
    conditions = {
        cond: {"n": len(flags), "accuracy": float(np.mean(flags))}
        for cond, flags in sorted(by_condition.items())
    }
    per_fault = {
        name: ConfusionMatrix(**counts).to_dict() for name, counts in fault_counts.items()
    }
    return {"conditions": conditions, "lpd": ConfusionMatrix(**gate_counts).to_dict(), "per_fault": per_fault}


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
