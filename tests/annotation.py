"""Annotation agreement: per-item majority labels and Cohen's kappa over
aligned annotator label lists.  No command uses them, so they live with the
tests that check them."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from baitline.corpus import Label


@dataclass(frozen=True)
class AnnotationSet:
    """Aligned per-annotator label lists over the same items."""

    item_ids: tuple[str, ...]
    annotator_labels: tuple[tuple[Label, ...], ...]

    def __post_init__(self):
        n = len(self.item_ids)
        if n < 1:
            raise ValueError("annotation set needs at least one item")
        for i, labels in enumerate(self.annotator_labels):
            if len(labels) != n:
                raise ValueError(
                    f"annotator {i} has {len(labels)} labels, expected {n}"
                )

    def majority_labels(self) -> list[Label]:
        """Per-item majority over annotators (annotator count must be odd)."""
        per_item = list(zip(*self.annotator_labels))
        return [majority_label(list(votes)) for votes in per_item]

    def pairwise_kappas(self) -> list[float]:
        ks = []
        for i in range(len(self.annotator_labels)):
            for j in range(i + 1, len(self.annotator_labels)):
                ks.append(cohens_kappa(self.annotator_labels[i], self.annotator_labels[j]))
        return ks

    def mean_pairwise_kappa(self) -> float:
        ks = self.pairwise_kappas()
        if not ks:
            raise ValueError("need at least two annotators")
        return sum(ks) / len(ks)


def majority_label(votes: Sequence[Label]) -> Label:
    """Label holding strictly more than half of an odd number of votes."""
    if len(votes) == 0 or len(votes) % 2 == 0:
        raise ValueError(f"majority vote needs an odd vote count, got {len(votes)}")
    clickbait = sum(1 for v in votes if v is Label.CLICKBAIT)
    return Label.CLICKBAIT if clickbait * 2 > len(votes) else Label.NON_CLICKBAIT


def cohens_kappa(a: Iterable[Label], b: Iterable[Label]) -> float:
    """Chance-corrected agreement between two aligned label lists.

    kappa = (p_o - p_e) / (1 - p_e) with marginal-product chance agreement;
    the degenerate p_e = 1 case (both raters constant and identical) is
    defined as 1.0.
    """
    a = list(a)
    b = list(b)
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    if not a:
        raise ValueError("kappa of empty label lists is undefined")
    n = len(a)
    observed = sum(1 for x, y in zip(a, b) if x == y) / n
    a_cb = sum(1 for x in a if x is Label.CLICKBAIT) / n
    b_cb = sum(1 for y in b if y is Label.CLICKBAIT) / n
    expected = a_cb * b_cb + (1 - a_cb) * (1 - b_cb)
    if expected == 1.0:
        return 1.0
    return (observed - expected) / (1 - expected)
