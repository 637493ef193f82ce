import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from baitline.corpus import Label
from baitline.metrics import (
    PredictionRow,
    chi2_sf,
    confusion_counts,
    evaluate,
    export_pr_curve,
    load_predictions,
    mcnemar,
    pr_curve,
    render_report,
    report_to_dict,
    save_predictions,
    save_report,
)

CB = Label.CLICKBAIT
NCB = Label.NON_CLICKBAIT


class TestChiSquareTail:
    def test_against_erfc_identity(self):
        # for 1 dof: sf(x) = erfc(sqrt(x/2))
        for x in (0.1, 0.5, 1.0, 2.0, 4.0833, 7.7, 15.0):
            assert chi2_sf(x) == pytest.approx(math.erfc(math.sqrt(x / 2)), rel=1e-10)

    def test_tabulated_critical_values(self):
        assert chi2_sf(3.841) == pytest.approx(0.05, abs=5e-4)
        assert chi2_sf(6.635) == pytest.approx(0.01, abs=1e-4)
        assert chi2_sf(10.828) == pytest.approx(0.001, abs=1e-5)

    def test_edge_cases(self):
        assert chi2_sf(0.0) == 1.0
        with pytest.raises(ValueError):
            chi2_sf(-1.0)


class TestPrf1:
    def test_hand_fixture(self):
        # tp=2, fp=1, fn=2, tn=1
        golds = [CB, CB, CB, CB, NCB, NCB]
        preds = [CB, CB, NCB, NCB, CB, NCB]
        p, r, f1 = confusion_counts(preds, golds, CB).prf1()
        assert (p, r, f1) == pytest.approx((0.6667, 0.5, 0.5714), abs=1e-4)
        counts = confusion_counts(preds, golds, CB)
        assert (counts.tp, counts.fp, counts.fn, counts.tn) == (2, 1, 2, 1)

    def test_perfect(self):
        golds = [CB, NCB, CB]
        assert confusion_counts(golds, golds, CB).prf1() == (1.0, 1.0, 1.0)

    def test_zero_conventions(self):
        golds = [NCB, NCB]
        preds = [NCB, NCB]
        p, r, f1 = confusion_counts(preds, golds, CB).prf1()  # no predictions, no positives
        assert (p, r, f1) == (0.0, 0.0, 0.0)

    def test_count_identities(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            golds = [Label(int(v)) for v in rng.integers(0, 2, n)]
            preds = [Label(int(v)) for v in rng.integers(0, 2, n)]
            for target in (CB, NCB):
                c = confusion_counts(preds, golds, target)
                assert c.tp + c.fn == sum(1 for g in golds if g == target)
                assert c.tp + c.fp == sum(1 for p in preds if p == target)
                assert c.total == n

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion_counts([CB], [CB, NCB], CB)


class TestMacroF1:
    def test_reference_row(self, data_dir):
        rows = load_predictions(data_dir / "preds_contrastive_reference.tsv")
        golds = [r.gold for r in rows]
        preds = [r.pred for r in rows]
        assert round(confusion_counts(preds, golds, CB).macro_f1, 4) == 0.9199

    def test_all_correct(self):
        golds = [CB, NCB]
        assert confusion_counts(golds, golds, CB).macro_f1 == 1.0

    def test_class_swap_invariance(self):
        golds = [CB, CB, NCB, NCB, CB]
        preds = [CB, NCB, NCB, CB, CB]
        flip = {CB: NCB, NCB: CB}
        flipped = confusion_counts([flip[p] for p in preds], [flip[g] for g in golds], CB)
        assert confusion_counts(preds, golds, CB).macro_f1 == pytest.approx(
            flipped.macro_f1, abs=1e-12
        )


def brute_force_ap(scores, golds):
    """Enumerate every distinct threshold; counts recomputed from scratch."""
    positives = [g == CB for g in golds]
    n_pos = sum(positives)
    thresholds = sorted(set(scores), reverse=True)
    ap = 0.0
    prev_recall = 0.0
    for threshold in thresholds:
        selected = [i for i, s in enumerate(scores) if s >= threshold]
        tp = sum(1 for i in selected if positives[i])
        precision = tp / len(selected)
        recall = tp / n_pos
        ap += precision * (recall - prev_recall)
        prev_recall = recall
    return ap


class TestPrCurve:
    def test_hand_ranked_example(self):
        golds = [CB, NCB, CB]
        scores = [0.9, 0.8, 0.7]
        curve = pr_curve(scores, golds)
        assert curve.ap == pytest.approx(1 * 0.5 + (2 / 3) * 0.5, abs=1e-12)
        assert curve.ap == pytest.approx(0.8333, abs=1e-4)
        assert curve.points[0] == (0.5, 1.0)

    def test_perfect_ranking(self):
        golds = [CB, CB, NCB, NCB]
        scores = [0.9, 0.8, 0.2, 0.1]
        assert pr_curve(scores, golds).ap == 1.0

    def test_ap_one_iff_separation(self):
        golds = [CB, NCB, CB]
        assert pr_curve([0.9, 0.5, 0.8], golds).ap == 1.0
        assert pr_curve([0.9, 0.85, 0.8], golds).ap < 1.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            n = int(rng.integers(2, 101))
            golds = [Label(int(v)) for v in rng.integers(0, 2, n)]
            if not any(g == CB for g in golds):
                golds[0] = CB
            scores = np.round(rng.random(n), 2).tolist()  # force ties
            assert pr_curve(scores, golds).ap == brute_force_ap(scores, golds)

    def test_recall_non_decreasing_final_recall_one(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(2, 60))
            golds = [Label(int(v)) for v in rng.integers(0, 2, n)]
            if not any(g == CB for g in golds):
                golds[0] = CB
            scores = rng.random(n).tolist()
            curve = pr_curve(scores, golds)
            recalls = [pt[0] for pt in curve.points]
            assert all(r2 >= r1 for r1, r2 in zip(recalls, recalls[1:]))
            assert recalls[-1] == 1.0
            assert 0.0 <= curve.ap <= 1.0

    def test_no_positives_rejected(self):
        with pytest.raises(ValueError):
            pr_curve([0.5, 0.4], [NCB, NCB])


class TestMcNemar:
    def test_hand_fixture(self):
        golds = [CB] * 12
        preds_a = [CB] * 10 + [NCB] * 2
        preds_b = [NCB] * 10 + [CB] * 2
        stat, p = mcnemar(preds_a, preds_b, golds)
        assert stat == pytest.approx(49 / 12, abs=1e-12)
        assert stat == pytest.approx(4.0833, abs=1e-4)
        assert p == pytest.approx(0.0433, abs=5e-4)

    def test_identical_predictions(self):
        golds = [CB, NCB, CB]
        preds = [CB, CB, NCB]
        assert mcnemar(preds, preds, golds) == (0.0, 1.0)

    def test_swap_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(1, 50))
            golds = [Label(int(v)) for v in rng.integers(0, 2, n)]
            pa = [Label(int(v)) for v in rng.integers(0, 2, n)]
            pb = [Label(int(v)) for v in rng.integers(0, 2, n)]
            assert mcnemar(pa, pb, golds) == mcnemar(pb, pa, golds)

    def test_reference_fixture_band(self, data_dir):
        rows_c = load_predictions(data_dir / "preds_contrastive_reference.tsv")
        rows_f = load_predictions(data_dir / "preds_finetuned_reference.tsv")
        golds = [r.gold for r in rows_c]
        stat, p = mcnemar([r.pred for r in rows_f], [r.pred for r in rows_c], golds)
        assert p <= 0.001

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mcnemar([CB], [CB, NCB], [CB, NCB])


class TestReferenceFixtures:
    def test_contrastive_row_reproduced(self, data_dir):
        rows = load_predictions(data_dir / "preds_contrastive_reference.tsv")
        golds = [r.gold for r in rows]
        preds = [r.pred for r in rows]
        assert len(rows) == 1507
        assert sum(1 for g in golds if g == CB) == 441
        p, r, f1 = confusion_counts(preds, golds, CB).prf1()
        assert round(f1, 4) == 0.8852
        assert round(p, 4) == 0.9153
        assert round(r, 4) == 0.8571
        p2, r2, f2 = confusion_counts(preds, golds, NCB).prf1()
        assert round(f2, 4) == 0.9546

    def test_finetuned_row_confusion(self, data_dir):
        rows = load_predictions(data_dir / "preds_finetuned_reference.tsv")
        golds = [r.gold for r in rows]
        preds = [r.pred for r in rows]
        counts = confusion_counts(preds, golds, CB)
        assert (counts.tp, counts.fp, counts.fn, counts.tn) == (318, 19, 123, 1047)


@st.composite
def labelled_predictions(draw):
    """(preds, golds, scores): golds of both classes or of one; predictions drawn,
    of one class, or all wrong; scores with ties whenever a gold is clickbait."""
    golds = draw(st.lists(st.sampled_from([CB, NCB]), min_size=1, max_size=40))
    if draw(st.booleans()):
        golds = [golds[0]] * len(golds)
    kind = draw(st.sampled_from(["drawn", "one class", "all wrong"]))
    if kind == "all wrong":
        preds = [NCB if g is CB else CB for g in golds]
    else:
        preds = draw(st.lists(st.sampled_from([CB, NCB]), min_size=len(golds),
                              max_size=len(golds)))
        if kind == "one class":
            preds = [preds[0]] * len(preds)
    scores = None
    if CB in golds:
        scores = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                               min_size=len(golds), max_size=len(golds)))
    return preds, golds, scores


class TestEvaluateReport:
    def golds_preds_scores(self):
        golds = [CB, CB, CB, CB, NCB, NCB]
        preds = [CB, CB, NCB, NCB, CB, NCB]
        scores = [0.9, 0.8, 0.4, 0.3, 0.7, 0.2]
        return golds, preds, scores

    @given(labelled_predictions())
    def test_matches_component_ops(self, case):
        """Every value of the report, which derives all of them from the clickbait
        class's counts and the PR curve, equals the one its own function computes."""
        preds, golds, scores = case
        expected = {"n": len(golds),
                    "accuracy": sum(1 for p, g in zip(preds, golds) if p == g) / len(golds),
                    "macro_f1": confusion_counts(preds, golds, CB).macro_f1}
        for target, key in ((CB, "clickbait"), (NCB, "non_clickbait")):
            p, r, f1 = confusion_counts(preds, golds, target).prf1()
            c = confusion_counts(preds, golds, target)
            expected.update({f"{key}_precision": p, f"{key}_recall": r, f"{key}_f1": f1,
                             f"{key}_tp": c.tp, f"{key}_fp": c.fp, f"{key}_fn": c.fn,
                             f"{key}_tn": c.tn})
        if scores is not None:
            expected["ap"] = pr_curve(scores, golds).ap
        assert list(report_to_dict(evaluate(preds, golds, scores)).items()) == \
            list(expected.items())

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate([], [])

    def test_deterministic(self):
        golds, preds, scores = self.golds_preds_scores()
        a = evaluate(preds, golds, scores)
        b = evaluate(preds, golds, scores)
        assert report_to_dict(a) == report_to_dict(b)

    def test_render_contains_table(self):
        golds, preds, scores = self.golds_preds_scores()
        text = render_report(evaluate(preds, golds, scores))
        assert "clickbait" in text
        assert "non-clickbait" in text
        assert "macro f1" in text
        assert "ap" in text

    def test_save_report_files(self, tmp_path):
        import json

        golds, preds, scores = self.golds_preds_scores()
        report = evaluate(preds, golds, scores)
        save_report(report, tmp_path / "report.txt", tmp_path / "report.json")
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["n"] == 6
        assert payload["clickbait_tp"] == 2
        assert "macro_f1" in payload


class TestPredictionFiles:
    def test_round_trip(self, tmp_path):
        rows = [
            PredictionRow("a1", CB, NCB, 0.25),
            PredictionRow("a2", NCB, NCB, 0.125),
            PredictionRow("a3", None, CB, 0.75),
        ]
        path = tmp_path / "preds.tsv"
        save_predictions(rows, path)
        assert load_predictions(path) == rows

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "preds.tsv"
        path.write_text("only\ttwo\n", encoding="utf-8")
        with pytest.raises(ValueError, match="4 fields"):
            load_predictions(path)

    def test_pr_curve_export(self, tmp_path):
        curve = pr_curve([0.9, 0.8, 0.7], [CB, NCB, CB])
        path = tmp_path / "pr.tsv"
        export_pr_curve(curve, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "recall\tprecision"
        assert len(lines) == 1 + len(curve.points)
