"""Evaluation machinery: per-class P/R/F1, PR curves with AP, McNemar's test.

McNemar's statistic has one degree of freedom, so its chi-square tail is the
closed form erfc(sqrt(x / 2)) from ``math``, keeping the toolkit free of a
stats dependency.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from .corpus import Label
from .tensor.checkpoint import numbered_lines


# ---------------------------------------------------------------------------
# classification scores
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConfusionCounts:
    """One class's confusion counts.  With two labels they fix every score of
    both classes: the other class's counts are these mirrored."""

    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    @property
    def accuracy(self) -> float:
        return (self.tp + self.tn) / self.total

    def prf1(self) -> tuple[float, float, float]:
        """(precision, recall, f1) for this class.

        Zero-denominator conventions: precision 0 without positive predictions,
        recall 0 without gold positives, f1 0 when p + r = 0.
        """
        if self.total == 0:
            raise ValueError("cannot score empty prediction lists")
        precision = self.tp / (self.tp + self.fp) if (self.tp + self.fp) > 0 else 0.0
        recall = self.tp / (self.tp + self.fn) if (self.tp + self.fn) > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if (precision + recall) > 0 else 0.0
        return precision, recall, f1

    def mirrored(self) -> "ConfusionCounts":
        """The other class's counts: its true positives are this class's true negatives."""
        return ConfusionCounts(tp=self.tn, fp=self.fn, fn=self.fp, tn=self.tp)

    @property
    def macro_f1(self) -> float:
        """Unweighted mean of the two classes' F1 scores."""
        return (self.prf1()[2] + self.mirrored().prf1()[2]) / 2.0


def confusion_counts(preds: Sequence, golds: Sequence, target) -> ConfusionCounts:
    if len(preds) != len(golds):
        raise ValueError(f"length mismatch: {len(preds)} preds vs {len(golds)} golds")
    # (predicted target, gold target) -> articles
    cells = Counter((p == target, g == target) for p, g in zip(preds, golds))
    return ConfusionCounts(tp=cells[True, True], fp=cells[True, False],
                           fn=cells[False, True], tn=cells[False, False])


# ---------------------------------------------------------------------------
# precision-recall curve and average precision
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrCurve:
    """(recall, precision) points at descending score thresholds, plus AP."""

    points: tuple[tuple[float, float], ...]
    ap: float


def pr_curve(scores: Sequence[float], golds: Sequence) -> PrCurve:
    """Precision-recall curve for the clickbait class from clickbait scores.

    Ties share one threshold; AP is the non-interpolated rank sum
    sum_k P(k) * (R(k) - R(k-1)) over the distinct thresholds.
    """
    if len(scores) != len(golds):
        raise ValueError(f"length mismatch: {len(scores)} scores vs {len(golds)} golds")
    positives = [g == Label.CLICKBAIT for g in golds]
    n_pos = sum(positives)
    if n_pos == 0:
        raise ValueError("PR curve needs at least one positive (clickbait) gold label")
    order = sorted(range(len(scores)), key=lambda i: -float(scores[i]))
    points: list[tuple[float, float]] = []
    ap = 0.0
    tp = 0
    seen = 0
    prev_recall = 0.0
    i = 0
    while i < len(order):
        j = i
        threshold = float(scores[order[i]])
        while j < len(order) and float(scores[order[j]]) == threshold:
            tp += positives[order[j]]
            seen += 1
            j += 1
        precision = tp / seen
        recall = tp / n_pos
        points.append((recall, precision))
        ap += precision * (recall - prev_recall)
        prev_recall = recall
        i = j
    return PrCurve(points=tuple(points), ap=ap)


# ---------------------------------------------------------------------------
# McNemar's paired test
# ---------------------------------------------------------------------------

def chi2_sf(x: float) -> float:
    """Chi-square survival function P(X >= x) with one degree of freedom."""
    if x < 0:
        raise ValueError("x must be non-negative")
    return math.erfc(math.sqrt(x / 2))


def mcnemar(preds_a: Sequence, preds_b: Sequence, golds: Sequence) -> tuple[float, float]:
    """Continuity-corrected McNemar statistic and chi-square p-value (1 dof).

    b counts items model A gets right and model B wrong, c the converse; with
    no discordant items the statistic is 0 and p is 1.
    """
    if not (len(preds_a) == len(preds_b) == len(golds)):
        raise ValueError(
            f"length mismatch: {len(preds_a)}, {len(preds_b)}, {len(golds)}"
        )
    b = c = 0
    for pa, pb, g in zip(preds_a, preds_b, golds):
        a_ok = pa == g
        b_ok = pb == g
        if a_ok and not b_ok:
            b += 1
        elif b_ok and not a_ok:
            c += 1
    if b + c == 0:
        return 0.0, 1.0
    statistic = (abs(b - c) - 1) ** 2 / (b + c)
    return statistic, chi2_sf(statistic)


# ---------------------------------------------------------------------------
# aggregate report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvalReport:
    """The clickbait class's counts and, when scores were given, its PR curve;
    every reported score derives from them.  ``mcnemar_vs`` maps the name of a
    compared prediction file to McNemar's (statistic, p)."""

    counts: ConfusionCounts
    curve: PrCurve | None = None
    mcnemar_vs: dict[str, tuple[float, float]] = field(default_factory=dict)

    def per_class(self) -> tuple[tuple[Label, ConfusionCounts], ...]:
        return ((Label.CLICKBAIT, self.counts), (Label.NON_CLICKBAIT, self.counts.mirrored()))


def evaluate(
    preds: Sequence, golds: Sequence, scores: Sequence[float] | None = None
) -> EvalReport:
    """Full per-class report; adds the PR curve and AP when scores are given
    and some gold label is clickbait, the curve's positive class."""
    if len(golds) == 0:
        raise ValueError("cannot evaluate an empty gold list")
    counts = confusion_counts(preds, golds, Label.CLICKBAIT)
    has_curve = scores is not None and counts.tp + counts.fn > 0
    return EvalReport(counts, pr_curve(scores, golds) if has_curve else None)


def render_report(report: EvalReport) -> str:
    """Aligned text table: one row per class plus macro F1 and accuracy."""
    lines = [
        f"{'class':<15} {'precision':>9} {'recall':>9} {'f1':>9}",
    ]
    for label, counts in report.per_class():
        p, r, f1 = counts.prf1()
        lines.append(f"{label.to_string():<15} {p:>9.4f} {r:>9.4f} {f1:>9.4f}")
    lines.append(f"{'macro f1':<15} {'':>9} {'':>9} {report.counts.macro_f1:>9.4f}")
    lines.append(f"{'accuracy':<15} {'':>9} {'':>9} {report.counts.accuracy:>9.4f}")
    if report.curve is not None:
        lines.append(f"{'ap':<15} {'':>9} {'':>9} {report.curve.ap:>9.4f}")
    for other, (stat, p) in report.mcnemar_vs.items():
        lines.append(f"mcnemar vs {other}: statistic={stat:.4f} p={p:.6f}")
    return "\n".join(lines) + "\n"


def report_to_dict(report: EvalReport) -> dict:
    """Flat machine-readable key-value form of the report."""
    out: dict[str, float | int] = {"n": report.counts.total, "accuracy": report.counts.accuracy,
                                   "macro_f1": report.counts.macro_f1}
    for label, counts in report.per_class():
        key = label.to_string().replace("-", "_")
        out[f"{key}_precision"], out[f"{key}_recall"], out[f"{key}_f1"] = counts.prf1()
        out[f"{key}_tp"] = counts.tp
        out[f"{key}_fp"] = counts.fp
        out[f"{key}_fn"] = counts.fn
        out[f"{key}_tn"] = counts.tn
    if report.curve is not None:
        out["ap"] = report.curve.ap
    for other, (stat, p) in report.mcnemar_vs.items():
        out[f"mcnemar_{other}_statistic"] = stat
        out[f"mcnemar_{other}_p"] = p
    return out


# ---------------------------------------------------------------------------
# prediction files
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PredictionRow:
    id: str
    gold: Label | None  # None for predictions over unlabeled corpora
    pred: Label
    score: float  # clickbait score in [0, 1]
    line: int = field(default=0, compare=False)  # its line in the file it was read from


_NO_GOLD = "-"


def save_predictions(rows: Sequence[PredictionRow], path) -> None:
    """One tab-separated line per article: id, gold, pred, clickbait score."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            gold = row.gold.to_string() if row.gold is not None else _NO_GOLD
            fh.write(f"{row.id}\t{gold}\t{row.pred.to_string()}\t{row.score!r}\n")


def load_predictions(path) -> list[PredictionRow]:
    """The rows of a prediction file; a malformed line, or an article id on
    a second line, raises ValueError naming the file and the line(s)."""
    rows: list[PredictionRow] = []
    first_line: dict[str, int] = {}  # article id -> the line it is on
    for line_no, line in numbered_lines(path):
        line = line.rstrip("\r\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise ValueError(f"{path}:{line_no}: expected 4 fields, got {len(parts)}")
        first = first_line.setdefault(parts[0], line_no)
        if first != line_no:
            raise ValueError(f"{path}:{line_no}: article id {parts[0]!r} repeats line {first}")
        try:
            score = float(parts[3])
        except ValueError:
            score = math.nan
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"{path}:{line_no}: score {parts[3]!r} is not a number in [0, 1]")
        gold = None if parts[1] == _NO_GOLD else _label(path, line_no, "gold", parts[1])
        rows.append(PredictionRow(parts[0], gold, _label(path, line_no, "predicted", parts[2]),
                                  score, line_no))
    return rows


def _label(path, line_no: int, column: str, text: str) -> Label:
    try:
        return Label.from_string(text)
    except ValueError:
        raise ValueError(f"{path}:{line_no}: {column} label {text!r} is neither "
                         "'clickbait' nor 'non-clickbait'") from None


def export_pr_curve(curve: PrCurve, path) -> None:
    """(recall, precision) pairs as tab-separated text for external plotting."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("recall\tprecision\n")
        for recall, precision in curve.points:
            fh.write(f"{recall!r}\t{precision!r}\n")


def save_report(report: EvalReport, text_path, json_path) -> None:
    with open(text_path, "w", encoding="utf-8") as fh:
        fh.write(render_report(report))
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(report_to_dict(report), fh, indent=2)
        fh.write("\n")
