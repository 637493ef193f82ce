"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Paper-scale score reproduction is out of reach at desk scale by design; these
checks are property- and oracle-based instead.
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from baitline.classical import RandomForestConfig, train_random_forest
from baitline.cli import run
from baitline.config import MODEL_FAMILIES, read_model
from baitline.corpus import Label, corpus_stats, load_corpus, save_corpus, split_by_source
from baitline.ensemble import EnsembleConfig, ensemble_predict, fit_weights
from baitline.metrics import load_predictions, macro_f1, mcnemar, pr_curve, prf1
from baitline.neural.encoder import Params
from baitline.neural.lstm import BiLstmClassifier, BiLstmConfig
from baitline.neural.siamese import (
    SiameseConfig,
    SiameseEncoder,
    contrastive_loss_graph,
)
from baitline.tensor import (
    Tensor,
    bilstm_sequence,
    concat,
    cosine_similarity,
    cross_entropy,
    dropout,
    embedding_lookup,
    l2_normalize,
    matmul,
    max_pool_over_time,
    mean_over_time,
    multiply,
    narrow,
    pooled_encode,
    relu,
    reshape,
    sigmoid,
    softmax,
    stack_steps,
    tanh,
    tmean,
)

from annotation import cohens_kappa
from gradcheck import check_gradients, tsum
from synthetic import generate_topic_pair_corpus
from test_classical import exhaustive_best_split, reference_oob_score, split_alone
from test_cli import rerun_files
from test_metrics import brute_force_ap
from test_neural import capped_vocab, contrastive_loss, cosine_dissimilarity

CB = Label.CLICKBAIT
NCB = Label.NON_CLICKBAIT


def report_line(name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {name}: {status}{suffix}")
    assert passed, f"{name}: {detail}"


class TestAutodiffAcceptance:
    def test_every_primitive_and_full_graphs(self):
        started = time.monotonic()
        rng = np.random.default_rng(100)
        total_coords = 0
        worst = 0.0

        def check(forward, params, max_coords=None):
            nonlocal total_coords, worst
            report = check_gradients(
                forward, params, rtol=1e-4, atol=1e-6, h=1e-5,
                max_coords_per_param=max_coords, rng=np.random.default_rng(7),
            )
            assert report.passed, report.failures[:3]
            total_coords += report.n_checked
            worst = max(worst, report.max_rel_error)

        # one check per registered primitive
        a = Tensor(rng.normal(size=(5, 6)))
        b = Tensor(rng.normal(size=(6,)))
        check(lambda: tsum(a + b), {"a": a, "b": b})
        check(lambda: tsum(a - b), {"a": a, "b": b})
        check(lambda: tsum(multiply(a, a + b)), {"a": a, "b": b})
        m1 = Tensor(rng.normal(size=(6, 7)))
        m2 = Tensor(rng.normal(size=(7, 5)))
        check(lambda: tsum(matmul(m1, m2)), {"m1": m1, "m2": m2})
        c1 = Tensor(rng.normal(size=(4, 3)))
        c2 = Tensor(rng.normal(size=(4, 5)))
        check(lambda: tsum(multiply(concat([c1, c2], axis=1), concat([c1, c2], axis=1))),
              {"c1": c1, "c2": c2})
        nx = Tensor(rng.normal(size=(5, 8)))
        check(lambda: tsum(multiply(narrow(nx, 1, 2, 4), narrow(nx, 1, 2, 4))), {"nx": nx})
        rx = Tensor(rng.normal(size=(4, 6)))
        check(lambda: tsum(multiply(reshape(rx, (8, 3)), reshape(rx, (8, 3)))), {"rx": rx})
        s1 = Tensor(rng.normal(size=(3, 4)))
        s2 = Tensor(rng.normal(size=(3, 4)))
        check(lambda: tsum(multiply(stack_steps([s1, s2]), stack_steps([s2, s1]))),
              {"s1": s1, "s2": s2})
        t = Tensor(rng.normal(size=(6, 6)))
        check(lambda: tsum(tanh(t)), {"t": t})
        check(lambda: tsum(sigmoid(t)), {"t": t})
        t_off = Tensor(rng.normal(size=(6, 6)) + 0.4)
        check(lambda: tsum(relu(t_off)), {"t_off": t_off})
        sm = Tensor(rng.normal(size=(6, 5)))
        check(lambda: tsum(multiply(softmax(sm, axis=-1), sm)), {"sm": sm})
        table = Tensor(rng.normal(size=(9, 5)))
        ids = rng.integers(0, 9, size=(4, 6))
        lookup_mask = np.ones((4, 6), dtype=np.int64)
        lookup_mask[:, -2:] = 0
        check(lambda: tsum(tanh(embedding_lookup(table, ids, lookup_mask))),
              {"table": table})
        px = Tensor(rng.normal(size=(4, 5, 6)))
        pool_mask = (rng.random((4, 5)) > 0.25).astype(np.int64)
        pool_mask[:, 0] = 1
        check(lambda: tsum(max_pool_over_time(px, pool_mask)), {"px": px})
        check(lambda: tsum(multiply(mean_over_time(px, pool_mask),
                                    mean_over_time(px, pool_mask))), {"px": px})
        lu = Tensor(rng.normal(size=(5, 7)))
        check(lambda: tsum(multiply(l2_normalize(lu), lu)), {"lu": lu})
        cu = Tensor(rng.normal(size=(5, 7)))
        cv = Tensor(rng.normal(size=(5, 7)))
        check(lambda: tsum(cosine_similarity(cu, cv)), {"cu": cu, "cv": cv})
        dx = Tensor(rng.normal(size=(6, 6)))
        check(lambda: tsum(dropout(dx, 0.5, train=False)), {"dx": dx})
        # train-mode dropout with a frozen mask: recreating the same-seeded
        # stream each call keeps the forward deterministic
        check(
            lambda: tsum(dropout(dx, 0.4, train=True, rng=np.random.default_rng(55))),
            {"dx": dx},
        )
        logits = Tensor(rng.normal(size=(6, 3)))
        onehot = np.eye(3)[rng.integers(0, 3, size=6)]
        check(lambda: cross_entropy(softmax(logits, axis=-1), onehot), {"logits": logits})
        mx = Tensor(rng.normal(size=(5, 5)))
        check(lambda: tmean(multiply(mx, mx)), {"mx": mx})
        # both directions of a layer over ragged rows, one of them all padding
        lstm_rng = np.random.default_rng(101)
        sx = Tensor(lstm_rng.normal(size=(3, 5, 4)))
        directions = {
            f"{side}{name}": Tensor(lstm_rng.uniform(-0.5, 0.5, size=shape))
            for side in ("fwd_", "rev_")
            for name, shape in (("w", (4, 12)), ("u", (3, 12)), ("b", (12,)))
        }
        fwd_weights = [directions[f"fwd_{name}"] for name in "wub"]
        rev_weights = [directions[f"rev_{name}"] for name in "wub"]
        seq_mask = np.array([[1, 1, 1, 1, 1], [1, 1, 1, 0, 0], [0, 0, 0, 0, 0]])
        seq_probe = Tensor(lstm_rng.normal(size=(3, 5, 6)))
        check(lambda: tsum(multiply(bilstm_sequence(sx, fwd_weights, rev_weights, seq_mask),
                                    seq_probe)),
              {"sx": sx, **directions})
        # the fused pooled encoder over ragged rows with gaps
        pool_rng = np.random.default_rng(102)
        encoder_weights = {
            name: Tensor(pool_rng.uniform(-0.8, 0.8, size=shape))
            for name, shape in (("table", (9, 5)), ("proj_w", (5, 4)), ("ctx_w", (5, 4)),
                                ("proj_b", (4,)))
        }
        gap_mask = np.array([[1, 0, 1, 1, 0, 1], [0, 0, 1, 0, 0, 0], [1, 1, 1, 1, 0, 0]])
        gap_ids = pool_rng.integers(0, 9, size=(3, 6))
        pool_probe = Tensor(pool_rng.normal(size=(3, 4)))
        check(lambda: tsum(multiply(pooled_encode(*encoder_weights.values(), gap_ids, gap_mask),
                                    pool_probe)),
              encoder_weights)

        # full contrastive graph
        config = SiameseConfig(vocab_size=60, embed_dim=10, out_dim=6, max_len=8, seed=8)
        encoder = SiameseEncoder(config, Params(np.random.default_rng(8)),
                                 capped_vocab(config.vocab_size))
        t_ids = rng.integers(2, 60, size=(2, 8))
        c_ids = rng.integers(2, 60, size=(2, 8))
        y = np.array([1, 0])

        def contrastive_forward():
            v_t = encoder.encode_graph(t_ids)
            v_c = encoder.encode_graph(c_ids)
            return contrastive_loss_graph(v_t, v_c, y, config.margin)

        check(contrastive_forward, encoder.params(), max_coords=60)

        # full dual-branch BiLSTM graph
        lstm_config = BiLstmConfig(
            title_vocab_size=30, content_vocab_size=30, embed_dim=6,
            title_units=3, content_units=4, dense1=8, dense2=6,
            dropout_rate=0.0, title_max_len=4, content_max_len=6, seed=9,
        )
        model = BiLstmClassifier(lstm_config, Params(np.random.default_rng(9)), capped_vocab(30),
                                 capped_vocab(30))
        # padding is id 0, so the ragged rows end in zeros
        bt_ids = rng.integers(1, 32, size=(2, 4)) * np.array([[1, 1, 1, 0], [1, 1, 0, 0]])
        bc_ids = rng.integers(1, 32, size=(2, 6)) * np.array([[1, 1, 1, 1, 0, 0], [1, 1, 1, 1, 1, 1]])
        bl_onehot = np.array([[1.0, 0.0], [0.0, 1.0]])

        def bilstm_forward():
            probs = model.forward(bt_ids, bc_ids)
            return cross_entropy(probs, bl_onehot)

        check(bilstm_forward, model.params(), max_coords=8)

        elapsed = time.monotonic() - started
        report_line(
            "autodiff-gradients",
            total_coords >= 1000 and elapsed < 60.0,
            f"{total_coords} coordinates, max rel err {worst:.2e}, {elapsed:.1f}s",
        )


class TestLossExactness:
    def test_eq1_eq2_exactness(self):
        u = np.array([1.0, 0.0])
        v = np.array([0.0, 1.0])
        case_same_label1 = contrastive_loss(u, u, [1])
        case_same_label0 = contrastive_loss(u, u, [0])
        case_orth_label0 = contrastive_loss(u, v, [0])
        exact = (
            abs(case_same_label1 - 0.0) <= 1e-12
            and abs(case_same_label0 - 1.0) <= 1e-12
            and abs(case_orth_label0 - 0.0) <= 1e-12
        )

        rng = np.random.default_rng(200)
        bounds_ok = True
        non_negative = True
        n_batches = 10_000
        for _ in range(n_batches):
            n = 4
            a = rng.normal(size=(n, 6))
            b = rng.normal(size=(n, 6))
            a /= np.linalg.norm(a, axis=1, keepdims=True)
            b /= np.linalg.norm(b, axis=1, keepdims=True)
            deltas = cosine_dissimilarity(a, b)
            if np.any(deltas < -1e-12) or np.any(deltas > 2.0 + 1e-12):
                bounds_ok = False
                break
            y = rng.integers(0, 2, size=n)
            if contrastive_loss(a, b, y) < 0.0:
                non_negative = False
                break
        report_line(
            "loss-exactness",
            exact and bounds_ok and non_negative,
            f"trivial cases ({case_same_label1:.1e}, {case_same_label0}, "
            f"{case_orth_label0:.1e}), {n_batches} random batches",
        )


class TestOracleEquivalence:
    def test_best_split_exhaustive(self):
        rng = np.random.default_rng(300)
        mismatches = 0
        for _ in range(200):
            n = int(rng.integers(2, 51))
            d = int(rng.integers(1, 5))
            rows = np.round(rng.normal(size=(n, d)) * 3, 1)
            labels = rng.integers(0, 2, size=n)
            weights = np.array([1.0, float(rng.uniform(0.5, 2.0))])
            got = split_alone(rows, labels, range(d), weights)
            expected = exhaustive_best_split(rows, labels, range(d), weights)
            if got != expected:
                mismatches += 1
        report_line("oracle-best-split", mismatches == 0,
                    f"200 random instances <=50x4, {mismatches} mismatches")

    def test_ap_brute_force(self):
        rng = np.random.default_rng(301)
        mismatches = 0
        for _ in range(200):
            n = int(rng.integers(2, 101))
            golds = [Label(int(v)) for v in rng.integers(0, 2, n)]
            if not any(g == CB for g in golds):
                golds[0] = CB
            scores = np.round(rng.random(n), 2).tolist()
            if pr_curve(scores, golds).ap != brute_force_ap(scores, golds):
                mismatches += 1
        report_line("oracle-average-precision", mismatches == 0,
                    f"200 random score sets <=100, {mismatches} mismatches")

    def test_oob_independent_recomputation(self):
        # class means 1 sd apart: the out-of-bag score (0.8) sits well below the
        # in-bag fit, so scoring a tree on another tree's rows shows
        rng = np.random.default_rng(302)
        X = np.vstack([
            rng.normal(loc=-0.5, size=(40, 5)),
            rng.normal(loc=0.5, size=(40, 5)),
        ])
        y = np.array([0] * 40 + [1] * 40)
        config = RandomForestConfig(n_estimators=20, seed=11)
        model = train_random_forest(X, y, config)
        recomputed = reference_oob_score(model.trees, X, y, config)
        report_line("oracle-oob-score", model.oob_score == recomputed,
                    f"stored {model.oob_score:.6f} == recomputed {recomputed:.6f}")


class TestStatisticsFixtures:
    def test_fixture_values(self):
        golds = [CB] * 12
        preds_a = [CB] * 10 + [NCB] * 2
        preds_b = [NCB] * 10 + [CB] * 2
        stat, p = mcnemar(preds_a, preds_b, golds)
        mcnemar_ok = abs(stat - 4.0833) <= 1e-4 and abs(p - 0.0433) <= 5e-4

        a = [CB] * 5 + [NCB] * 3 + [CB, NCB]
        b = [CB] * 5 + [NCB] * 3 + [NCB, CB]
        kappa = cohens_kappa(a, b)
        kappa_ok = abs(kappa - 0.5833) <= 1e-4

        golds_f = [CB, CB, CB, CB, NCB, NCB]
        preds_f = [CB, CB, NCB, NCB, CB, NCB]
        p_, r_, f1_ = prf1(preds_f, golds_f, CB)
        prf1_ok = (
            abs(p_ - 0.6667) <= 1e-4 and abs(r_ - 0.5) <= 1e-4 and abs(f1_ - 0.5714) <= 1e-4
        )
        report_line(
            "statistics-fixtures",
            mcnemar_ok and kappa_ok and prf1_ok,
            f"mcnemar ({stat:.4f}, {p:.4f}), kappa {kappa:.4f}, "
            f"prf1 ({p_:.4f}, {r_:.4f}, {f1_:.4f})",
        )


class TestContrastiveSeparation:
    def test_synthetic_desk_pipeline(self, tmp_path):
        started = time.monotonic()
        corpus = generate_topic_pair_corpus(600, seed=11, name="accept600")
        corpus_path = tmp_path / "accept600.jsonl"
        save_corpus(corpus, corpus_path)
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps({
            "alfa-news": "train", "beta-press": "train",
            "gama-post": "train", "delta-zilnic": "test",
        }), encoding="utf-8")
        train_path = tmp_path / "train.jsonl"
        test_path = tmp_path / "test.jsonl"
        assert run(["split", "--corpus", str(corpus_path), "--manifest", str(manifest_path),
                    "--out-train", str(train_path), "--out-test", str(test_path)]) == 0
        run_dir = tmp_path / "contrastive-run"
        assert run(["train", "--model", "contrastive", "--profile", "desk",
                    "--corpus", str(train_path), "--out", str(run_dir), "--seed", "3"]) == 0
        preds_path = tmp_path / "preds.tsv"
        assert run(["predict", "--model-dir", str(run_dir), "--corpus", str(test_path),
                    "--out", str(preds_path)]) == 0

        bundle = SiameseEncoder.load(run_dir, read_model(run_dir / "model.json"))
        test = load_corpus(test_path)
        sims_cb, sims_ncb = [], []
        for art, s in zip(test, bundle.scores(test.articles)):
            (sims_cb if art.label is CB else sims_ncb).append(s)
        separation = float(np.mean(sims_ncb) - np.mean(sims_cb))

        rows = load_predictions(preds_path)
        score = macro_f1([r.pred for r in rows], [r.gold for r in rows])
        elapsed = time.monotonic() - started
        report_line(
            "contrastive-separation",
            separation >= 0.3 and score >= 0.9 and elapsed < 300.0,
            f"separation {separation:.3f}, macro F1 {score:.4f}, {elapsed:.1f}s",
        )


REAL_CORPUS_ENV = "BAITLINE_REAL_CORPUS"
REFERENCE_TRAIN_SOURCES = {"cancan", "protv", "wowbiz"}
REFERENCE_TEST_SOURCES = {"libertatea", "viva", "digi24"}


@pytest.mark.skipif(
    REAL_CORPUS_ENV not in os.environ,
    reason=f"set {REAL_CORPUS_ENV} to the corpus export path to enable",
)
class TestReferenceCorpus:
    """Distribution checks against the public Romanian clickbait corpus."""

    def load(self):
        return load_corpus(Path(os.environ[REAL_CORPUS_ENV]))

    def source_sets(self, corpus):
        by_lower = {s.lower(): s for s in corpus.sources()}
        train = {by_lower[s] for s in REFERENCE_TRAIN_SOURCES if s in by_lower}
        test = {by_lower[s] for s in REFERENCE_TEST_SOURCES if s in by_lower}
        return train, test

    def test_distribution_and_statistics(self):
        corpus = self.load()
        totals_ok = (
            len(corpus) == 8313
            and corpus.count(CB) == 3720
            and corpus.count(NCB) == 4593
        )
        train_sources, test_sources = self.source_sets(corpus)
        train, test = split_by_source(corpus, train_sources, test_sources)
        split_ok = (
            len(train) == 6806 and train.count(CB) == 3279 and train.count(NCB) == 3527
            and len(test) == 1507 and test.count(CB) == 441 and test.count(NCB) == 1066
        )
        stats = corpus_stats(corpus)
        stats_ok = (
            abs(stats.avg_title_tokens - 21) <= 0.1 * 21
            and abs(stats.avg_content_tokens - 454) <= 0.1 * 454
            and abs(stats.avg_sentences - 28) <= 0.1 * 28
        )
        ratios = stats.per_source_clickbait_ratio.values()
        ratios_ok = all(0.17 <= r <= 0.71 for r in ratios)
        report_line(
            "reference-corpus",
            totals_ok and split_ok and stats_ok and ratios_ok,
            f"totals={len(corpus)}, train={len(train)}, test={len(test)}, "
            f"avg=({stats.avg_title_tokens:.1f}, {stats.avg_content_tokens:.1f}, "
            f"{stats.avg_sentences:.1f})",
        )


class TestEnsembleAcceptance:
    def test_brute_force_and_published_weights(self):
        config = EnsembleConfig(
            model_ids=("rf", "svm", "bilstm", "encoder-head", "contrastive"),
            weights=(0.19, 0.19, 0.22, 0.19, 0.21),
        )
        rng = np.random.default_rng(400)
        mismatches = 0
        for _ in range(1000):
            scores = rng.random(5).tolist()
            label, combined = ensemble_predict(scores, config)
            # independent recomputation: same ordered accumulation, separate code
            recombined = 0.0
            for w, s in zip(config.weights, scores):
                recombined += w * s
            relabel = CB if recombined >= config.threshold else NCB
            if combined != recombined or label is not relabel:
                mismatches += 1
            if abs(combined - math.fsum(w * s for w, s in zip(config.weights, scores))) > 1e-12:
                mismatches += 1
        brute_ok = mismatches == 0

        golds = [CB] * 50 + [NCB] * 50
        preds = []
        for accuracy in (0.76, 0.76, 0.88, 0.76, 0.84):
            n_correct = round(accuracy * 100)
            preds.append(list(golds[:n_correct]) + [
                NCB if g is CB else CB for g in golds[n_correct:]
            ])
        fitted = fit_weights(config.model_ids, preds, golds)
        weights_ok = all(
            abs(w - expected) <= 1e-12
            for w, expected in zip(fitted.weights, config.weights)
        )
        report_line(
            "ensemble-equivalence",
            brute_ok and weights_ok,
            f"1000 random matrices, fitted weights {tuple(round(w, 2) for w in fitted.weights)}",
        )


class TestDeterminismAcceptance:
    def test_end_to_end_byte_identical(self, tmp_path, monkeypatch):
        outputs = [rerun_files(tmp_path / tag, MODEL_FAMILIES, monkeypatch)
                   for tag in ("first", "second")]
        report_line(
            "determinism",
            outputs[0] == outputs[1],
            f"{len(outputs[0])} files from split, train and predict of "
            f"{len(MODEL_FAMILIES)} families identical across runs",
        )
