"""Correctness checks on what the CLI wrote, and fingerprints of it.

The checks read the files with their own parsers, not with the package's
loaders, so a defect in a loader cannot hide a defect in a writer.  Each check
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

CLICKBAIT = "clickbait"
NON_CLICKBAIT = "non-clickbait"

# How each family turns its clickbait score into a label.
#   argmax:     clickbait iff score > 0.5 (ties go to non-clickbait)
#   similarity: the score is (1 - s) / 2 for title-content similarity s, and
#               the article is non-clickbait iff s >= 0.75
#   ensemble:   clickbait iff the combined score >= the threshold 0.5
LABEL_RULES = {
    "rf": "argmax",
    "svm": "argmax",
    "bilstm": "argmax",
    "encoder-head": "argmax",
    "contrastive": "similarity",
    "ensemble": "ensemble",
}
SIMILARITY_THRESHOLD = 0.75
ENSEMBLE_THRESHOLD = 0.5
_BOUNDARY_SLACK = 1e-9  # recovered similarities this close to 0.75 are not judged


def _expected_clickbait(rule: str, score: float) -> bool | None:
    if rule == "argmax":
        return score > 0.5
    if rule == "ensemble":
        return score >= ENSEMBLE_THRESHOLD
    similarity = 1.0 - 2.0 * score
    if abs(similarity - SIMILARITY_THRESHOLD) <= _BOUNDARY_SLACK:
        return None
    return similarity < SIMILARITY_THRESHOLD


def check_predictions(path, ids: list[str], golds: list[str], rule: str) -> list[str]:
    """One row per input article, in input order; scores in [0, 1]; labels by rule."""
    path = Path(path)
    if not path.exists():
        return [f"{path.name}: missing"]
    lines = path.read_text(encoding="utf-8").splitlines()
    problems = []
    if len(lines) != len(ids):
        problems.append(f"{path.name}: {len(lines)} rows for {len(ids)} articles")
    for line_no, (line, want_id, want_gold) in enumerate(zip(lines, ids, golds), start=1):
        fields = line.split("\t")
        if len(fields) != 4:
            problems.append(f"{path.name}:{line_no}: {len(fields)} fields")
            continue
        got_id, gold, pred, raw_score = fields
        if got_id != want_id:
            problems.append(f"{path.name}:{line_no}: id {got_id!r}, expected {want_id!r}")
        if gold != want_gold:
            problems.append(f"{path.name}:{line_no}: gold {gold!r}, expected {want_gold!r}")
        if pred not in (CLICKBAIT, NON_CLICKBAIT):
            problems.append(f"{path.name}:{line_no}: label {pred!r}")
            continue
        try:
            score = float(raw_score)
        except ValueError:
            problems.append(f"{path.name}:{line_no}: score {raw_score!r}")
            continue
        if not 0.0 <= score <= 1.0:
            problems.append(f"{path.name}:{line_no}: score {score!r} outside [0, 1]")
            continue
        expected = _expected_clickbait(rule, score)
        if expected is not None and expected != (pred == CLICKBAIT):
            problems.append(f"{path.name}:{line_no}: label {pred!r} breaks the {rule} rule at {score!r}")
    return problems


def read_losses(run_dir) -> list[str]:
    """The loss values of ``training.log``, as written."""
    path = Path(run_dir) / "training.log"
    if not path.exists():
        return []
    return [line.split(":", 1)[1].strip() for line in path.read_text(encoding="utf-8").splitlines()]


def check_losses(run_dir, expected_epochs: int) -> list[str]:
    """Finite training losses, one per epoch."""
    path = Path(run_dir) / "training.log"
    if not path.exists():
        return [f"{path}: missing"]
    losses = read_losses(run_dir)
    problems = []
    if len(losses) != expected_epochs:
        problems.append(f"{path}: {len(losses)} losses for {expected_epochs} epochs")
    for raw in losses:
        try:
            finite = math.isfinite(float(raw))
        except ValueError:
            finite = False
        if not finite:
            problems.append(f"{path}: loss {raw!r} is not finite")
    return problems


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
