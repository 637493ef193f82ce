import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from baitline import config as cfg
from baitline.classical import svm
from baitline.classical.forest import balanced_class_weights
from baitline.cli import build_parser, run
from baitline.corpus import Corpus, Label, load_corpus, save_corpus
from baitline.ensemble import ENSEMBLE_HEADER
from baitline.features import N_FEATURES
from baitline.metrics import load_predictions
from baitline.registry import FAMILIES
from baitline.tensor import checkpoint
from baitline.tensor.checkpoint import load_tensors, save_tensors
from baitline.textproc import normalize, tokenize

from test_classical import SVM_REBASE_BOUND, reference_train_svm

CB = Label.CLICKBAIT
NCB = Label.NON_CLICKBAIT


@pytest.fixture
def corpus_path(data_dir) -> str:
    return str(data_dir / "synthetic60.jsonl")


@pytest.fixture
def manifest_path(data_dir) -> str:
    return str(data_dir / "split_manifest.json")


@pytest.fixture
def split_paths(tmp_path, corpus_path, manifest_path):
    train = tmp_path / "train.jsonl"
    test = tmp_path / "test.jsonl"
    code = run([
        "split", "--corpus", corpus_path, "--manifest", manifest_path,
        "--out-train", str(train), "--out-test", str(test),
    ])
    assert code == 0
    return str(train), str(test)


class TestIngest:
    def test_valid_corpus(self, corpus_path, capsys):
        assert run(["ingest", "--corpus", corpus_path]) == 0
        out = capsys.readouterr().out
        assert "60 articles" in out

    def test_stats_flag(self, corpus_path, capsys):
        assert run(["ingest", "--corpus", corpus_path, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "avg title tokens" in out
        assert "clickbait ratio" in out

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert run(["ingest", "--corpus", str(tmp_path / "nope.jsonl")]) == 2

    def test_non_utf8_corpus_names_file_and_line_exit_3(self, tmp_path, corpus_path, capsys):
        raw = Path(corpus_path).read_bytes().split(b"\n")
        raw[1] = raw[1].replace(b'"title": "', b'"title": "\xff', 1)
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\n".join(raw))
        capsys.readouterr()
        assert run(["ingest", "--corpus", str(bad)]) == 3
        assert f"{bad}:2: not UTF-8" in capsys.readouterr().err

    def test_repeated_id_names_file_and_both_lines_exit_3(self, tmp_path, corpus_path, capsys):
        lines = Path(corpus_path).read_text(encoding="utf-8").splitlines()
        lines.insert(4, lines[1])  # line 2's article again on line 5
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert run(["ingest", "--corpus", str(bad)]) == 3
        article_id = json.loads(lines[1])["id"]
        assert (f"{bad}:5: duplicate article id {article_id!r}, first on line 2"
                in capsys.readouterr().err)

    def test_malformed_corpus_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"id": "x", "title": "t", "content": "c", '
                       '"source": "s", "label": "maybe"}\n', encoding="utf-8")
        assert run(["ingest", "--corpus", str(bad)]) == 3


class TestSplit:
    def test_counts_printed_and_files_written(self, split_paths, capsys, corpus_path):
        train_path, test_path = split_paths
        train = load_corpus(train_path)
        test = load_corpus(test_path)
        full = load_corpus(corpus_path)
        assert len(train) + len(test) == len(full)
        assert not (train.sources() & test.sources())
        assert Path(train_path + ".config.ini").exists()

    def test_unknown_source_exit_3(self, tmp_path, corpus_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"alfa-news": "train"}), encoding="utf-8")
        capsys.readouterr()
        code = run([
            "split", "--corpus", corpus_path, "--manifest", str(manifest),
            "--out-train", str(tmp_path / "a.jsonl"), "--out-test", str(tmp_path / "b.jsonl"),
        ])
        assert code == 3
        assert f"{manifest}: sources missing from the split manifest:" in capsys.readouterr().err


class TestFeaturize:
    def test_matrix_export(self, tmp_path, corpus_path):
        out = tmp_path / "features.tsv"
        std_out = tmp_path / "standardizer.json"
        code = run([
            "featurize", "--corpus", corpus_path, "--out", str(out),
            "--standardizer-out", str(std_out),
        ])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 61  # header + 60 articles
        assert std_out.exists()


def train_model(tmp_path, family, corpus_file, extra=()):
    out_dir = tmp_path / f"run-{family}"
    code = run([
        "train", "--model", family, "--corpus", corpus_file,
        "--out", str(out_dir), "--profile", "desk", "--seed", "5", *extra,
    ])
    assert code == 0
    return out_dir


NEURAL_FAMILIES = ("bilstm", "contrastive", "encoder-head")


@pytest.fixture(scope="module")
def neural_runs(tmp_path_factory):
    """One untrained desk model directory per neural family."""
    corpus_path = Path(__file__).parent / "data" / "synthetic60.jsonl"
    root = tmp_path_factory.mktemp("neural-runs")
    for family in NEURAL_FAMILIES:
        assert run(["train", "--model", family, "--corpus", str(corpus_path),
                    "--out", str(root / family), "--profile", "desk", "--seed", "5",
                    "--epochs", "0"]) == 0
    return root


def _edit_header(path: Path, edit) -> None:
    """Rewrite a checkpoint's JSON header line, keeping its payload."""
    header, payload = path.read_bytes().split(b"\n", 1)
    path.write_bytes(json.dumps(edit(json.loads(header))).encode() + b"\n" + payload)


def _retype_first_entry(key, value):
    def edit(header):
        header["tensors"][0][key] = value
        return header
    return edit


HEADER_DEFECTS = {  # defect -> (header edit, culprit named in the message)
    "header_not_object": (lambda header: [header], "format=None version=None"),
    "header_without_tensors": (lambda header: {k: v for k, v in header.items() if k != "tensors"},
                               "'tensors'"),
    "entry_without_shape": (lambda header: {**header, "tensors": [{"name": "a"}]},
                            "tensor entry 0"),
    "entry_without_name": (lambda header: {**header, "tensors": [{"shape": [2]}]},
                           "tensor entry 0"),
    "negative_dimension": (_retype_first_entry("shape", [-1, 4]), "[-1, 4]"),
    "fractional_dimension": (_retype_first_entry("shape", [2.5]), "[2.5]"),
    "huge_dimension": (_retype_first_entry("shape", [10**9, 10**9]),
                       "(1000000000, 1000000000)"),
    "tensors_version_true": (lambda header: {**header, "version": True}, "version=True"),
}


def _config_with(key, value):
    return lambda payload: payload["config"].update({key: value})


# defect -> (model.json edit, culprit named in the message); the first entries
# hold for any family, the rest need the family's own config keys
MODEL_JSON_DEFECTS = {
    "unknown_meta_key": (_config_with("not_a_field", 1), "not_a_field"),
    "unexpected_field": (lambda payload: payload.update(notes="x"), "unexpected field ['notes']"),
    "config_without_seed": (lambda payload: payload["config"].pop("seed"), "seed"),
    "losses_not_a_list": (lambda payload: payload.update(losses="abc"), "'losses'"),
    "unknown_family": (lambda payload: payload.update(family="xgboost"), "'xgboost'"),
    "version_1": (lambda payload: payload.update(version=1), "version=1"),
    "version_float": (lambda payload: payload.update(version=2.0), "version=2.0"),
    "version_true": (lambda payload: payload.update(version=True), "version=True"),
    "max_len_not_an_int": (_config_with("max_len", "abc"), "config max_len = 'abc'"),
    "max_len_negative": (_config_with("max_len", -5), "config max_len = -5 is out of range"),
    "threshold_not_a_float": (_config_with("threshold", "x"), "config threshold = 'x'"),
    "out_dim_fractional": (_config_with("out_dim", 3.5), "config out_dim = 3.5"),
    # the encoder head's separator token (id 2, the first entry) replaced
    "vocab_without_separator": (lambda payload: payload["vocab"].__setitem__(0, "zzz-new-token"),
                                "field 'vocab' has no separator token"),
}

# the model.json fields that hold each neural family's vocabularies
VOCAB_FIELDS = {"bilstm": ("title_vocab", "content_vocab"), "contrastive": ("vocab",),
                "encoder-head": ("vocab",)}


def _first_vocab_with(edit, culprit, file_name="model.json"):
    """A defect that gives the first vocabulary field ``edit(tokens)``, or
    drops it when ``edit`` is None; ``culprit`` is formatted with the field
    and its first token."""
    def apply(run_dir, payload):
        field = VOCAB_FIELDS[payload["family"]][0]
        tokens = payload.pop(field)
        if edit is not None:
            payload[field] = edit(list(tokens))
        return file_name, culprit.format(field=field, token=tokens[0])
    return apply


def _set_token(index, token):
    def edit(tokens):
        tokens[index] = token
        return tokens
    return edit


def _older_layout(run_dir, payload):
    """Vocabularies in text files, one token a line, as written before they
    moved into model.json."""
    fields = VOCAB_FIELDS[payload["family"]]
    for field in fields:
        name = {"title_vocab": "vocab_title.txt", "content_vocab": "vocab_content.txt"}.get(
            field, "vocab.txt")
        (run_dir / name).write_text("".join(f"{token}\n" for token in payload.pop(field)),
                                    encoding="utf-8")
    return "model.json", f"missing field {sorted(fields)}"


VOCAB_DEFECTS = {  # defect -> apply(run_dir, model.json payload) -> (file name, culprit)
    "missing_vocab_field": _first_vocab_with(None, "missing field [{field!r}]"),
    "vocab_not_a_list": _first_vocab_with(" ".join, "field {field!r} is not a list"),
    "empty_vocab_token": _first_vocab_with(_set_token(2, ""), "field {field!r} entry 2, '', is empty"),
    "repeated_vocab_token": _first_vocab_with(lambda tokens: _set_token(2, tokens[0])(tokens),
                                              "field {field!r} entry 2, {token!r}, is empty"),
    # one row more than the stored table
    "extra_vocab_token": _first_vocab_with(lambda tokens: tokens + ["zzz-new-token"], "embedding",
                                           "model.tensors"),
    "older_layout": _older_layout,
}


def _corrupt(run_dir: Path, defect: str) -> tuple[str, str]:
    """Give a model directory one defect; returns (file name, culprit name)."""
    if defect in HEADER_DEFECTS:
        edit, culprit = HEADER_DEFECTS[defect]
        _edit_header(run_dir / "model.tensors", edit)
        return "model.tensors", culprit
    if defect == "version":
        (run_dir / "model.tensors").write_bytes(
            b'{"format": "baitline-tensors", "version": 42, "tensors": []}\n')
        return "model.tensors", "format='baitline-tensors' version=42"
    if defect in MODEL_JSON_DEFECTS:
        edit, culprit = MODEL_JSON_DEFECTS[defect]
        model_path = run_dir / "model.json"
        payload = json.loads(model_path.read_text(encoding="utf-8"))
        edit(payload)
        model_path.write_text(json.dumps(payload), encoding="utf-8")
        return "model.json", culprit
    if defect in VOCAB_DEFECTS:
        model_path = run_dir / "model.json"
        payload = json.loads(model_path.read_text(encoding="utf-8"))
        file_name, culprit = VOCAB_DEFECTS[defect](run_dir, payload)
        model_path.write_text(json.dumps(payload), encoding="utf-8")
        return file_name, culprit
    tensors = load_tensors(run_dir / "model.tensors")
    if defect == "missing_tensor":
        culprit = sorted(tensors)[0]
        del tensors[culprit]
    elif defect == "extra_tensor":
        culprit = "extra.weight"
        tensors[culprit] = np.zeros(3)
    elif defect in ("nan_payload", "inf_payload"):
        culprit = sorted(tensors)[-1]
        tensors[culprit].flat[-1] = math.nan if defect == "nan_payload" else -math.inf
    else:
        culprit = "head.out_b" if "head.out_b" in tensors else sorted(tensors)[-1]
        tensors[culprit] = np.zeros(tensors[culprit].size + 1)
    save_tensors(run_dir / "model.tensors", tensors)
    return "model.tensors", culprit


def _prediction_commands(tmp_path, preds_path) -> dict[str, list[str]]:
    """Each command that reads a prediction file, on ``preds_path`` as the
    contrastive model's, writing to ``tmp_path / "out"``."""
    config_path = tmp_path / "ensemble.json"
    config_path.write_text(json.dumps({**ENSEMBLE_HEADER, "threshold": 0.5,
                                       "weights": {"contrastive": 1.0}}), encoding="utf-8")
    out = tmp_path / "out"
    return {"eval": ["eval", "--preds", str(preds_path), "--out-dir", str(out)],
            "ensemble fit": ["ensemble", "fit", "--preds", f"contrastive={preds_path}",
                             "--out", str(out)],
            "ensemble apply": ["ensemble", "apply", "--config", str(config_path),
                               "--preds", f"contrastive={preds_path}", "--out", str(out)]}


class TestTrainPredictEval:
    def test_rf_end_to_end(self, tmp_path, split_paths, capsys):
        train_path, test_path = split_paths
        run_dir = train_model(tmp_path, "rf", train_path)
        assert (run_dir / "config.ini").exists()
        assert (run_dir / "training.log").exists()
        preds_path = tmp_path / "preds_rf.tsv"
        assert run(["predict", "--model-dir", str(run_dir), "--corpus", test_path,
                    "--out", str(preds_path)]) == 0
        rows = load_predictions(preds_path)
        assert len(rows) == len(load_corpus(test_path))
        eval_dir = tmp_path / "eval-rf"
        assert run(["eval", "--preds", str(preds_path), "--out-dir", str(eval_dir)]) == 0
        assert (eval_dir / "report.txt").exists()
        assert (eval_dir / "report.json").exists()
        assert (eval_dir / "pr_curve.tsv").exists()
        payload = json.loads((eval_dir / "report.json").read_text())
        assert payload["n"] == len(rows)

    def test_contrastive_zero_epochs_checkpoint(self, tmp_path, split_paths):
        train_path, _ = split_paths
        run_dir = train_model(tmp_path, "contrastive", train_path, ("--epochs", "0"))
        assert (run_dir / "model.tensors").exists()
        from baitline.neural.siamese import SiameseEncoder

        model = cfg.read_model(run_dir / "model.json")
        bundle = SiameseEncoder.load(run_dir, model)
        assert bundle.config.epochs == 0
        assert list(bundle.vocab.tokens) == model["vocab"]

    def test_svm_and_encoder_head_train(self, tmp_path, split_paths):
        train_path, test_path = split_paths
        for family in ("svm", "encoder-head"):
            run_dir = train_model(tmp_path, family, train_path, ("--epochs", "5"))
            preds_path = tmp_path / f"preds_{family}.tsv"
            assert run(["predict", "--model-dir", str(run_dir), "--corpus", test_path,
                        "--out", str(preds_path)]) == 0

    def test_bilstm_train(self, tmp_path, split_paths):
        train_path, test_path = split_paths
        run_dir = train_model(tmp_path, "bilstm", train_path, ("--epochs", "2"))
        preds_path = tmp_path / "preds_bilstm.tsv"
        assert run(["predict", "--model-dir", str(run_dir), "--corpus", test_path,
                    "--out", str(preds_path)]) == 0

    def test_predict_unlabeled_corpus(self, tmp_path, split_paths):
        train_path, test_path = split_paths
        run_dir = train_model(tmp_path, "rf", train_path)
        from baitline.corpus import Corpus, NewsArticle

        test = load_corpus(test_path)
        unlabeled = Corpus(
            tuple(
                NewsArticle(id=a.id, title=a.title, content=a.content, source=a.source)
                for a in test
            ),
            name="unlabeled",
        )
        unlabeled_path = tmp_path / "unlabeled.jsonl"
        save_corpus(unlabeled, unlabeled_path)
        preds_path = tmp_path / "preds_unlabeled.tsv"
        assert run(["predict", "--model-dir", str(run_dir), "--corpus", str(unlabeled_path),
                    "--out", str(preds_path)]) == 0
        rows = load_predictions(preds_path)
        assert all(r.gold is None for r in rows)
        eval_dir = tmp_path / "eval-unlabeled"
        assert run(["eval", "--preds", str(preds_path), "--out-dir", str(eval_dir)]) == 3

    def test_eval_compare_mcnemar(self, tmp_path, data_dir):
        eval_dir = tmp_path / "eval-cmp"
        code = run([
            "eval", "--preds", str(data_dir / "preds_contrastive_reference.tsv"),
            "--out-dir", str(eval_dir),
            "--compare", str(data_dir / "preds_finetuned_reference.tsv"),
            "--compare-name", "finetuned",
        ])
        assert code == 0
        payload = json.loads((eval_dir / "report.json").read_text())
        assert payload["mcnemar_finetuned_p"] <= 0.001

        # no clickbait gold: every count is defined, the PR curve and AP are not
        lines = [line for line in (data_dir / "preds_contrastive_reference.tsv").read_text(
            encoding="utf-8").splitlines() if line.split("\t")[1] == "non-clickbait"][:20]
        preds_path = tmp_path / "no_clickbait.tsv"
        preds_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        eval_dir = tmp_path / "eval-no-clickbait"
        assert run(["eval", "--preds", str(preds_path), "--out-dir", str(eval_dir)]) == 0
        payload = json.loads((eval_dir / "report.json").read_text())
        assert payload["n"] == 20 and "ap" not in payload
        assert not (eval_dir / "pr_curve.tsv").exists()

    @pytest.mark.parametrize("column, value, message", [
        *(pytest.param(3, score, f"score {score!r}", id=score)
          for score in ("nan", "inf", "-0.5", "1.5", "abc")),
        pytest.param(1, "maybe", "gold label 'maybe'", id="gold-label"),
        pytest.param(2, "maybe", "predicted label 'maybe'", id="predicted-label"),
    ])
    def test_eval_bad_score_names_file_and_line_exit_3(self, tmp_path, data_dir, capsys, column,
                                                       value, message):
        """A bad score, gold label or predicted label names the file and line."""
        lines = (data_dir / "preds_contrastive_reference.tsv").read_text().splitlines()
        fields = lines[1].split("\t")
        fields[column] = value
        lines[1] = "\t".join(fields)
        preds_path = tmp_path / "preds.tsv"
        preds_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert run(["eval", "--preds", str(preds_path), "--out-dir", str(tmp_path / "ev")]) == 3
        assert f"{preds_path}:2: {message}" in capsys.readouterr().err
        assert not (tmp_path / "ev").exists()

    @pytest.mark.parametrize("command", ["eval", "ensemble fit", "ensemble apply"])
    def test_repeated_prediction_id_names_both_lines_exit_3(self, tmp_path, data_dir, capsys,
                                                           command):
        lines = (data_dir / "preds_contrastive_reference.tsv").read_text().splitlines()
        lines.insert(5, lines[2])  # line 3's article again on line 6
        preds_path = tmp_path / "preds.tsv"
        preds_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert run(_prediction_commands(tmp_path, preds_path)[command]) == 3
        article_id = lines[2].split("\t")[0]
        err = capsys.readouterr().err
        assert f"{preds_path}:6: article id {article_id!r} repeats line 3" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["eval", "ensemble fit", "ensemble apply"])
    def test_empty_prediction_file_named_exit_3(self, tmp_path, capsys, command):
        preds_path = tmp_path / "preds.tsv"
        preds_path.write_text("\n", encoding="utf-8")
        capsys.readouterr()
        assert run(_prediction_commands(tmp_path, preds_path)[command]) == 3
        assert f"{preds_path}: no predictions" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_utf8_prediction_file_names_file_and_line_exit_3(self, tmp_path, data_dir,
                                                                 capsys):
        raw = (data_dir / "preds_contrastive_reference.tsv").read_bytes().split(b"\n")
        raw[3] = raw[3].replace(b"ref-", b"ref-\xff")
        preds_path = tmp_path / "preds.tsv"
        preds_path.write_bytes(b"\n".join(raw))
        capsys.readouterr()
        assert run(["eval", "--preds", str(preds_path), "--out-dir", str(tmp_path / "ev")]) == 3
        assert f"{preds_path}:4: not UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "ev").exists()

    def test_predict_empty_corpus_exit_3(self, tmp_path, split_paths):
        train_path, _ = split_paths
        run_dir = train_model(tmp_path, "rf", train_path)
        empty_path = tmp_path / "empty.jsonl"
        empty_path.write_text("", encoding="utf-8")
        assert run(["predict", "--model-dir", str(run_dir), "--corpus", str(empty_path),
                    "--out", str(tmp_path / "preds.tsv")]) == 3

    @pytest.mark.parametrize("family,defect", [
        ("contrastive", "version"),
        *(("contrastive", defect) for defect in HEADER_DEFECTS),
        *((family, defect) for family in NEURAL_FAMILIES
          for defect in ("missing_tensor", "extra_tensor", "wrong_shape", "nan_payload",
                         "inf_payload", "unknown_meta_key", "unexpected_field",
                         "config_without_seed", "losses_not_a_list", "unknown_family",
                         "version_1", "version_float", "version_true")),
        *((family, defect) for family in ("contrastive", "encoder-head")
          for defect in ("max_len_not_an_int", "max_len_negative")),
        *(("contrastive", defect) for defect in ("threshold_not_a_float", "out_dim_fractional")),
        ("encoder-head", "vocab_without_separator"),
        *((family, defect) for family in NEURAL_FAMILIES
          for defect in VOCAB_DEFECTS),
    ])
    def test_corrupted_checkpoint_exit_4(self, tmp_path, neural_runs, data_dir, capsys,
                                         family, defect):
        run_dir = tmp_path / family
        shutil.copytree(neural_runs / family, run_dir)
        file_name, culprit = _corrupt(run_dir, defect)
        capsys.readouterr()
        assert run(["predict", "--model-dir", str(run_dir),
                    "--corpus", str(data_dir / "synthetic60.jsonl"),
                    "--out", str(tmp_path / "preds.tsv")]) == 4
        err = capsys.readouterr().err
        assert file_name in err and culprit in err

    @pytest.mark.parametrize("family,sizes,file_name,culprit", [
        ("bilstm", {"dense1": 10**12}, "model.tensors", "'head.dense1_w' has shape"),
        ("contrastive", {"embed_dim": 10**12}, "model.tensors", "'siamese.embedding' has shape"),
        ("encoder-head", {"dense": 10**12}, "model.tensors", "'head.dense_w' has shape"),
        # a (1e10, 1e10) tensor has more elements than numpy can index
        ("bilstm", {"dense1": 10**10, "dense2": 10**10}, "model.tensors",
         "'head.dense1_w' has shape"),
        # the model is built from the file, so the first missing layer ends the load
        ("bilstm", {"n_layers": 10**9}, "model.tensors", "missing tensor 'title.layer2.fwd.W'"),
    ], ids=["bilstm-dense1", "contrastive-embed_dim", "encoder-head-dense", "bilstm-index-range",
            "bilstm-n_layers"])
    def test_huge_config_size_exit_4(self, tmp_path, neural_runs, data_dir, capsys, family,
                                     sizes, file_name, culprit):
        """A stored size far past any memory is refused naming the file and
        the tensor, before a tensor of that size is allocated."""
        run_dir = tmp_path / family
        shutil.copytree(neural_runs / family, run_dir)
        model_path = run_dir / "model.json"
        payload = json.loads(model_path.read_text(encoding="utf-8"))
        payload["config"].update(sizes)
        model_path.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        assert run(["predict", "--model-dir", str(run_dir),
                    "--corpus", str(data_dir / "synthetic60.jsonl"),
                    "--out", str(tmp_path / "preds.tsv")]) == 4
        err = capsys.readouterr().err
        assert str(run_dir / file_name) in err and culprit in err

    def test_many_layers_refused_in_a_short_message(self, tmp_path, neural_runs, data_dir, capsys):
        """2,000 stored layers leave 23,976 tensors missing from the file; the
        refusal names the file and the first of them, not all."""
        run_dir = tmp_path / "bilstm"
        shutil.copytree(neural_runs / "bilstm", run_dir)
        model_path = run_dir / "model.json"
        payload = json.loads(model_path.read_text(encoding="utf-8"))
        payload["config"]["n_layers"] = 2000
        model_path.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        assert run(["predict", "--model-dir", str(run_dir),
                    "--corpus", str(data_dir / "synthetic60.jsonl"),
                    "--out", str(tmp_path / "preds.tsv")]) == 4
        err = capsys.readouterr().err
        assert str(run_dir / "model.tensors") in err and "'title.layer2.fwd.W'" in err
        assert len(err.encode("utf-8")) < 1024, err

    @pytest.mark.parametrize("family,keys", [
        ("bilstm", ("title_max_len", "content_max_len")),
        ("contrastive", ("max_len",)),
        ("encoder-head", ("max_len",)),
    ])
    def test_huge_max_len_predicts(self, tmp_path, neural_runs, data_dir, family, keys):
        """A stored max_len of 10^9 only caps the ids scoring reads: each
        side is encoded as wide as its longest row, so predict writes one
        row per article in a process whose address space is capped at 2 GiB."""
        run_dir = tmp_path / family
        shutil.copytree(neural_runs / family, run_dir)
        model_path = run_dir / "model.json"
        payload = json.loads(model_path.read_text(encoding="utf-8"))
        payload["config"].update(dict.fromkeys(keys, 10**9))
        model_path.write_text(json.dumps(payload), encoding="utf-8")
        corpus = data_dir / "synthetic60.jsonl"
        preds = tmp_path / "preds.tsv"
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-c", CAPPED_RUN, "predict", "--model-dir", str(run_dir),
             "--corpus", str(corpus), "--out", str(preds)],
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1",
                 "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])},
            capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert len(load_predictions(preds)) == len(load_corpus(corpus).articles)


# runs the CLI on argv[1:] with the address space capped at 2 GiB
CAPPED_RUN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from baitline.cli import run
sys.exit(run(sys.argv[1:]))
"""


@pytest.fixture(scope="module")
def classical_runs(tmp_path_factory):
    """One desk model directory per classical family."""
    corpus_path = Path(__file__).parent / "data" / "synthetic60.jsonl"
    root = tmp_path_factory.mktemp("classical-runs")
    for family in ("rf", "svm"):
        assert run(["train", "--model", family, "--corpus", str(corpus_path),
                    "--out", str(root / family), "--profile", "desk", "--seed", "5"]) == 0
    return root


def _split_without(field):
    def edit(payload):
        node = next(n for n in payload["trees"][0] if "f" in n)
        del node[field]
    return edit


def _split_with(field, value):
    def edit(payload):
        next(n for n in payload["trees"][0] if "f" in n)[field] = value
    return edit


def _leaf_with(probs):
    def edit(payload):
        next(n for n in payload["trees"][3] if "p" in n)["p"] = probs
    return edit


def _standardizer_with(key, value):
    return lambda payload: payload.update({key: value}) if value is not None else payload.pop(key)


# defect: (family, file edited, edit, what the message names besides the file)
CLASSICAL_DEFECTS = {
    "split_without_t": ("rf", "model.json", _split_without("t"), "tree 0"),
    "split_without_f": ("rf", "model.json", _split_without("f"), "tree 0"),
    "truncated_tree": ("rf", "model.json", lambda payload: payload["trees"][1].pop(), "tree 1"),
    "overlong_tree": ("rf", "model.json",
                      lambda payload: payload["trees"][2].append({"p": [1.0, 0.0]}), "tree 2"),
    "split_on_missing_feature": ("rf", "model.json", _split_with("f", 999), "tree 0: node 0"),
    "split_on_negative_feature": ("rf", "model.json", _split_with("f", -1), "tree 0: node 0"),
    "split_on_float_feature": ("rf", "model.json", _split_with("f", 1.7), "tree 0: node 0"),
    "split_on_bool_feature": ("rf", "model.json", _split_with("f", True), "tree 0: node 0"),
    "split_at_nan": ("rf", "model.json", _split_with("t", math.nan), "tree 0: node 0"),
    "split_at_infinity": ("rf", "model.json", _split_with("t", math.inf), "tree 0: node 0"),
    "leaf_nan": ("rf", "model.json", _leaf_with([math.nan, 1.0]), "tree 3: node "),
    "leaf_out_of_range": ("rf", "model.json", _leaf_with([5.0, -4.0]), "tree 3: node "),
    "leaf_not_summing_to_1": ("rf", "model.json", _leaf_with([0.5, 0.6]), "tree 3: node "),
    "no_trees": ("rf", "model.json", lambda payload: payload.update(trees=[]), "trees"),
    "rf_unexpected_field": ("rf", "model.json", lambda payload: payload.update(notes="x"),
                            "unexpected field ['notes']"),
    "svm_unexpected_field": ("svm", "model.json", lambda payload: payload.update(notes="x"),
                             "unexpected field ['notes']"),
    "config_with_unknown_key": ("rf", "model.json", lambda payload: payload["config"].update(bogus=1),
                                "bogus"),
    "config_without_seed": ("rf", "model.json", lambda payload: payload["config"].pop("seed"),
                            "seed"),
    "config_not_an_object": ("rf", "model.json",
                             lambda payload: payload.update(config=list(payload["config"].values())),
                             "config"),
    "config_with_removed_option": ("rf", "model.json",
                                   lambda payload: payload["config"].update(criterion="entropy"),
                                   "criterion"),
    "svm_short_w": ("svm", "model.json", lambda payload: payload.update(w=payload["w"][:-3]),
                    "'w'"),
    "svm_long_w": ("svm", "model.json", lambda payload: payload["w"].append(0.5), "'w'"),
    "svm_w_string": ("svm", "model.json", lambda payload: payload["w"].__setitem__(0, "1.5"),
                     "'w'"),
    "svm_w_nan": ("svm", "model.json", lambda payload: payload["w"].__setitem__(0, math.nan),
                  "'w'"),
    "svm_without_platt": ("svm", "model.json", lambda payload: payload.pop("platt"), "platt"),
    "svm_without_w": ("svm", "model.json", lambda payload: payload.pop("w"), "'w'"),
    "svm_without_b": ("svm", "model.json", lambda payload: payload.pop("b"), "'b'"),
    "platt_without_a": ("svm", "model.json", lambda payload: payload["platt"].pop("A"), "'A'"),
    "oob_score_not_a_number": ("rf", "model.json", lambda payload: payload.update(losses=["x"]),
                               "'losses'"),
    "oob_score_above_1": ("rf", "model.json", lambda payload: payload.update(losses=[1.5]),
                          "'losses'"),
    "oob_score_missing": ("rf", "model.json", lambda payload: payload.update(losses=[]),
                          "'losses'"),
    "rf_file_of_svm_family": ("rf", "model.json", lambda payload: payload.update(family="svm"),
                              "config key"),
    "svm_b_not_a_number": ("svm", "model.json", lambda payload: payload.update(b="x"), "'b'"),
    "svm_c_nan": ("svm", "model.json", _config_with("C", math.nan), "config C = nan"),
    "platt_a_not_a_number": ("svm", "model.json", lambda payload: payload["platt"].update(A="x"),
                             "'platt.A'"),
    "platt_b_infinite": ("svm", "model.json", lambda payload: payload["platt"].update(B=math.inf),
                         "'platt.B'"),
    "svm_file_of_rf_family": ("svm", "model.json", lambda payload: payload.update(family="rf"),
                              "config key"),
    "n_estimators_not_an_int": ("rf", "model.json", _config_with("n_estimators", "lots"),
                                "config n_estimators = 'lots'"),
    "max_features_unknown": ("rf", "model.json", _config_with("max_features", "half"),
                             "config max_features = 'half' is out of range"),
    "svm_epochs_negative": ("svm", "model.json", _config_with("epochs", -1),
                            "config epochs = -1 is out of range"),
    "losses_not_a_list": ("svm", "model.json", lambda payload: payload.update(losses="abc"),
                          "'losses'"),
    "unknown_family": ("rf", "model.json", lambda payload: payload.update(family="xgboost"),
                       "'xgboost'"),
    "version_1": ("svm", "model.json", lambda payload: payload.update(version=1), "version=1"),
    "version_float": ("svm", "model.json", lambda payload: payload.update(version=2.0),
                      "version=2.0"),
    "standardizer_without_mean": ("svm", "model.json", _standardizer_with("mean", None),
                                  "'mean'"),
    "standardizer_without_std": ("rf", "model.json", _standardizer_with("std", None),
                                 "'std'"),
    "standardizer_short_mean": ("svm", "model.json",
                                _standardizer_with("mean", [0.0] * 3), "'mean'"),
    "standardizer_long_std": ("rf", "model.json",
                              _standardizer_with("std", [1.0] * (N_FEATURES + 1)), "'std'"),
    "standardizer_nan_mean": ("rf", "model.json",
                              _standardizer_with("mean", [math.nan] * N_FEATURES), "'mean'"),
    "standardizer_string_std": ("svm", "model.json",
                                _standardizer_with("std", ["1"] * N_FEATURES), "'std'"),
    "standardizer_zero_std": ("svm", "model.json",
                              _standardizer_with("std", [0.0] * N_FEATURES), "'std'"),
    "standardizer_negative_std": ("rf", "model.json",
                                  _standardizer_with("std", [-1.0] * N_FEATURES), "'std'"),
}


@pytest.mark.parametrize("defect", sorted(CLASSICAL_DEFECTS))
def test_malformed_classical_model_exit_4(tmp_path, classical_runs, data_dir, capsys, defect):
    family, file_name, edit, culprit = CLASSICAL_DEFECTS[defect]
    run_dir = tmp_path / family
    shutil.copytree(classical_runs / family, run_dir)
    model_path = run_dir / file_name
    payload = json.loads(model_path.read_text(encoding="utf-8"))
    edit(payload)
    model_path.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    assert run(["predict", "--model-dir", str(run_dir),
                "--corpus", str(data_dir / "synthetic60.jsonl"),
                "--out", str(tmp_path / "preds.tsv")]) == 4
    err = capsys.readouterr().err
    assert str(model_path) in err and culprit in err


def test_rf_model_with_older_fields_exit_4(tmp_path, classical_runs, data_dir, capsys):
    """An rf ``model.json`` in the layout that also stored each tree's
    out-of-bag rows and the class weights, drawn again here from the seed, is
    refused like any container with fields its family does not write."""
    corpus = str(data_dir / "synthetic60.jsonl")
    y = load_corpus(corpus).training_labels()
    older = tmp_path / "older"
    shutil.copytree(classical_runs / "rf", older)
    payload = json.loads((older / "model.json").read_text(encoding="utf-8"))
    seeds = np.random.SeedSequence(payload["config"]["seed"]).spawn(
        payload["config"]["n_estimators"])
    oob_indices = [np.setdiff1d(np.arange(len(y)), np.random.default_rng(seed).integers(
        0, len(y), size=len(y))).tolist() for seed in seeds]
    trees = payload.pop("trees")  # the older layout stored the trees last
    payload.update(class_weights=balanced_class_weights(y).tolist(), oob_indices=oob_indices,
                   trees=trees)
    (older / "model.json").write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    assert run(["predict", "--model-dir", str(older), "--corpus", corpus,
                "--out", str(tmp_path / "older.tsv")]) == 4
    assert (f"{older / 'model.json'}: unexpected field ['class_weights', 'oob_indices']"
            in capsys.readouterr().err)
    assert not (tmp_path / "older.tsv").exists()


@pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe"], ids=["not_json", "not_utf8"])
@pytest.mark.parametrize("family, file_name", [
    ("rf", "model.json"), ("svm", "model.json"), ("bilstm", "model.json"),
])
def test_undecodable_model_file_exit_4(tmp_path, classical_runs, neural_runs, data_dir, capsys,
                                       family, file_name, content):
    run_dir = tmp_path / family
    shutil.copytree((neural_runs if family == "bilstm" else classical_runs) / family, run_dir)
    (run_dir / file_name).write_bytes(content)
    capsys.readouterr()
    assert run(["predict", "--model-dir", str(run_dir),
                "--corpus", str(data_dir / "synthetic60.jsonl"),
                "--out", str(tmp_path / "preds.tsv")]) == 4
    assert str(run_dir / file_name) in capsys.readouterr().err


@pytest.fixture(scope="module")
def feed4(tmp_path_factory) -> Path:
    """The fixture's first 4 articles, in a directory of their own."""
    lines = (Path(__file__).parent / "data" / "synthetic60.jsonl").read_bytes().splitlines(True)
    path = tmp_path_factory.mktemp("mutations") / "feed4.jsonl"
    path.write_bytes(b"".join(lines[:4]))
    return path


# what a mutation sets one model.json key to: each JSON type, numbers out of most
# ranges, and a size whose model is far larger than its file
MUTATION_VALUES = [None, True, 1.5, -1, "x", [], {}, [1], {"a": 1}, 1e308, 10**6, 10**9]


@pytest.mark.parametrize("family", ["rf", "svm", *NEURAL_FAMILIES])
@given(data=st.data())
def test_model_directory_mutations_exit_0_or_4(classical_runs, neural_runs, feed4, family, data):
    """A model directory with a model file cut short, or with one top-level,
    config or platt key of model.json set to another JSON value, predicts
    (exit 0) or exits 4 naming the file; it never exits 3 and never raises."""
    source = (neural_runs if family in NEURAL_FAMILIES else classical_runs) / family
    files = {path.name: path.read_bytes() for path in source.glob("model.*")}
    if data.draw(st.booleans(), label="cut short"):
        name = data.draw(st.sampled_from(sorted(files)), label="file")
        files[name] = files[name][: data.draw(st.integers(0, len(files[name]) - 1), label="bytes")]
    else:
        payload = json.loads(files["model.json"])
        objects = {"model.json": payload, **{key: payload[key] for key in ("config", "platt")
                                             if key in payload}}
        where = objects[data.draw(st.sampled_from(sorted(objects)), label="object")]
        where[data.draw(st.sampled_from(sorted(where)), label="key")] = data.draw(
            st.sampled_from(MUTATION_VALUES), label="value")
        files["model.json"] = json.dumps(payload).encode()
    run_dir = feed4.parent / family
    run_dir.mkdir(exist_ok=True)
    for name, content in files.items():
        (run_dir / name).write_bytes(content)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(["predict", "--model-dir", str(run_dir), "--corpus", str(feed4),
                    "--out", str(run_dir / "preds.tsv")])
    assert code in (0, 4), err.getvalue()
    assert code == 0 or any(str(run_dir / name) in err.getvalue() for name in files), err.getvalue()


TABLES = {
    "bilstm": {"title.embedding": ("title_vocab", "title_vocab_size"),
               "content.embedding": ("content_vocab", "content_vocab_size")},
    "contrastive": {"siamese.embedding": ("vocab", "vocab_size")},
    "encoder-head": {"encoder.embedding": ("vocab", "vocab_size")},
}


@pytest.mark.parametrize("family", NEURAL_FAMILIES)
def test_vocab_sized_tables_match_capped_tables(tmp_path, data_dir, capsys, capped_tables,
                                                family):
    corpus_path = str(data_dir / "synthetic60.jsonl")
    sized_dir = train_model(tmp_path / "sized", family, corpus_path)
    with capped_tables():
        capped_dir = train_model(tmp_path / "capped", family, corpus_path)
        assert run(["predict", "--model-dir", str(capped_dir), "--corpus", corpus_path,
                    "--out", str(tmp_path / "capped.tsv")]) == 0
    assert run(["predict", "--model-dir", str(sized_dir), "--corpus", corpus_path,
                "--out", str(tmp_path / "sized.tsv")]) == 0
    assert (tmp_path / "sized.tsv").read_bytes() == (tmp_path / "capped.tsv").read_bytes()
    for name in ("training.log", "model.json", "config.ini"):
        assert (sized_dir / name).read_bytes() == (capped_dir / name).read_bytes(), name

    config = cfg.build_model_config(family, "desk")
    sized = load_tensors(sized_dir / "model.tensors")
    capped = load_tensors(capped_dir / "model.tensors")
    assert sized.keys() == capped.keys()
    for name, values in sized.items():
        assert np.array_equal(values, capped[name][: len(values)]), name
    model = json.loads((sized_dir / "model.json").read_text(encoding="utf-8"))
    for name, (field, cap_key) in TABLES[family].items():
        sized_shape = (len(model[field]) + 2, config.embed_dim)
        capped_shape = (getattr(config, cap_key) + 2, config.embed_dim)
        assert sized[name].shape == sized_shape
        assert capped[name].shape == capped_shape

    # a checkpoint with capped tables is the layout written before tables were
    # sized from the vocabulary; it is refused, not read
    capsys.readouterr()
    assert run(["predict", "--model-dir", str(capped_dir), "--corpus", corpus_path,
                "--out", str(tmp_path / "old.tsv")]) == 4
    err = capsys.readouterr().err
    assert "model.tensors" in err
    assert any(repr(name) in err and str(capped[name].shape) in err and str(sized[name].shape) in err
               for name in TABLES[family])


@pytest.mark.parametrize("family", ["rf", "svm", "contrastive"])
def test_wordless_title_names_the_article(tmp_path, split_paths, data_dir, capsys, family):
    train_path, _ = split_paths
    extra = ("--epochs", "2") if family != "rf" else ()
    run_dir = train_model(tmp_path, family, train_path, extra)
    corpus = load_corpus(data_dir / "synthetic60.jsonl")
    articles = tuple(dataclasses.replace(a, title="\u2605\u2605\u2605") if a.id == "syn-00003" else a
                     for a in corpus)
    bad_path = tmp_path / "bad.jsonl"
    save_corpus(Corpus(articles, name="bad"), bad_path)
    capsys.readouterr()
    assert run(["predict", "--model-dir", str(run_dir), "--corpus", str(bad_path),
                "--out", str(tmp_path / "preds.tsv")]) == 3
    assert "syn-00003" in capsys.readouterr().err


# beside config.ini, training.log and model.json
MODEL_DIR_FILES = {
    "rf": set(),
    "svm": set(),
    "bilstm": {"model.tensors"},
    "contrastive": {"model.tensors"},
    "encoder-head": {"model.tensors"},
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_registered_family_trains_and_predicts(tmp_path, data_dir, monkeypatch, family):
    """Training writes the family's files and nothing else, and ``model.json``
    holds the container keys and the family's declared fields; each predict
    parses ``model.json`` once."""
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    model_flag = next(a for a in subparsers.choices["train"]._actions if a.dest == "model")
    assert tuple(model_flag.choices) == tuple(FAMILIES) == cfg.MODEL_FAMILIES

    corpus_path = str(data_dir / "synthetic60.jsonl")
    run_dir = train_model(tmp_path, family, corpus_path)
    assert {path.name for path in run_dir.iterdir()} == {
        "config.ini", "training.log", "model.json", *MODEL_DIR_FILES[family]}
    model = json.loads((run_dir / "model.json").read_text(encoding="utf-8"))
    assert model.keys() == {"format", "version", "family", "config", "losses",
                            *FAMILIES[family].fields}
    parsed, read = [], checkpoint.read_json
    for module in (checkpoint, cfg):  # read_model calls config's binding
        monkeypatch.setattr(module, "read_json", lambda path: parsed.append(path) or read(path))
    outputs = []
    for tag in ("one", "two"):
        preds_path = tmp_path / f"preds-{tag}.tsv"
        assert run(["predict", "--model-dir", str(run_dir), "--corpus", corpus_path,
                    "--out", str(preds_path)]) == 0
        outputs.append(preds_path.read_bytes())
    assert parsed == [run_dir / "model.json"] * 2
    rows = load_predictions(tmp_path / "preds-one.tsv")
    assert [r.id for r in rows] == [a.id for a in load_corpus(corpus_path)]
    assert all(0.0 <= r.score <= 1.0 for r in rows)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_config_snapshot_reproduces_run_directory(tmp_path, data_dir, family):
    """Training again with ``--config`` set to a run's own ``config.ini`` and
    the same flags writes the same bytes."""
    corpus_path = str(data_dir / "synthetic60.jsonl")
    epochs = ("--epochs", "1") if family in NEURAL_FAMILIES else ()
    first = train_model(tmp_path / "first", family, corpus_path, epochs)
    again = train_model(tmp_path / "again", family, corpus_path,
                        (*epochs, "--config", str(first / "config.ini")))
    assert sorted(p.name for p in first.iterdir()) == sorted(p.name for p in again.iterdir())
    for path in first.iterdir():
        assert path.read_bytes() == (again / path.name).read_bytes(), path.name


@pytest.mark.parametrize("profile", ["desk", "full"])
def test_svm_rebase_keeps_labels_and_eval(tmp_path, data_dir, monkeypatch, profile):
    """svm trained as shipped and with the loop it replaced, on the fixture:
    the same labels, scores within the re-base bound, the same macro-F1, and
    no article on which McNemar's test finds the two disagree."""
    corpus_path = str(data_dir / "synthetic60.jsonl")
    preds = {}
    for form in ("scaled", "old"):
        with monkeypatch.context() as m:
            if form == "old":
                m.setattr(svm, "train_svm",
                          lambda X, y, config: reference_train_svm(X, y, config)[0])
            run_dir = tmp_path / form
            assert run(["train", "--model", "svm", "--corpus", corpus_path, "--out", str(run_dir),
                        "--profile", profile, "--seed", "5"]) == 0
        preds[form] = tmp_path / f"{form}.tsv"
        assert run(["predict", "--model-dir", str(run_dir), "--corpus", corpus_path,
                    "--out", str(preds[form])]) == 0
    scaled, old = (load_predictions(preds[form]) for form in ("scaled", "old"))
    assert [(r.id, r.pred) for r in scaled] == [(r.id, r.pred) for r in old]
    assert [r.score for r in scaled] == pytest.approx([r.score for r in old],
                                                      rel=SVM_REBASE_BOUND, abs=0.0)
    reports = {}
    for form in ("scaled", "old"):
        out_dir = tmp_path / f"eval-{form}"
        other = "old" if form == "scaled" else "scaled"
        assert run(["eval", "--preds", str(preds[form]), "--out-dir", str(out_dir),
                    "--compare", str(preds[other]), "--compare-name", other]) == 0
        reports[form] = json.loads((out_dir / "report.json").read_text())
    scaled_report = reports["scaled"]
    assert scaled_report["macro_f1"] == reports["old"]["macro_f1"]
    assert (scaled_report["mcnemar_old_statistic"], scaled_report["mcnemar_old_p"]) == (0.0, 1.0)


def test_model_json_alone_names_the_family(tmp_path, neural_runs, data_dir, capsys):
    """``config.ini`` is an audit snapshot that predict does not read, and a
    directory without ``model.json``, as written before it, exits 2."""
    corpus_path = str(data_dir / "synthetic60.jsonl")
    run_dir = tmp_path / "contrastive"
    shutil.copytree(neural_runs / "contrastive", run_dir)
    assert run(["predict", "--model-dir", str(run_dir), "--corpus", corpus_path,
                "--out", str(tmp_path / "before.tsv")]) == 0
    snapshot = run_dir / "config.ini"
    snapshot.write_text(snapshot.read_text().replace("model = contrastive", "model = svm"))
    assert run(["predict", "--model-dir", str(run_dir), "--corpus", corpus_path,
                "--out", str(tmp_path / "after.tsv")]) == 0
    assert (tmp_path / "before.tsv").read_bytes() == (tmp_path / "after.tsv").read_bytes()

    (run_dir / "model.json").rename(run_dir / "model_meta.json")
    capsys.readouterr()
    assert run(["predict", "--model-dir", str(run_dir), "--corpus", corpus_path,
                "--out", str(tmp_path / "old.tsv")]) == 2
    assert str(run_dir / "model.json") in capsys.readouterr().err


@pytest.mark.parametrize("family,table,field", [
    ("bilstm", "title.embedding", "title_vocab"),
    ("contrastive", "siamese.embedding", "vocab"),
])
def test_embedding_file_model_predicts(tmp_path, split_paths, family, table, field):
    train_path, test_path = split_paths
    dim = cfg.build_model_config(family, "desk").embed_dim
    tokens = sorted(set(tokenize(normalize(load_corpus(train_path).articles[0].title)).tokens))
    vectors = {tok: [round(0.01 * (i + 1) * (j + 1), 4) for j in range(dim)]
               for i, tok in enumerate(tokens)}
    vectors_path = tmp_path / "vectors.txt"
    vectors_path.write_text("".join(f"{tok} {' '.join(map(str, vec))}\n"
                                    for tok, vec in vectors.items()), encoding="utf-8")
    config_path = tmp_path / "run.ini"
    config_path.write_text(f"[{family}]\nembedding_file = {vectors_path}\n", encoding="utf-8")
    run_dir = train_model(tmp_path, family, train_path, ("--config", str(config_path),
                                                         "--epochs", "0"))
    vocab = json.loads((run_dir / "model.json").read_text(encoding="utf-8"))[field]
    weights = load_tensors(run_dir / "model.tensors")[table]
    for tok, vec in vectors.items():
        assert weights[vocab.index(tok) + 2].tolist() == vec
    assert run(["predict", "--model-dir", str(run_dir), "--corpus", test_path,
                "--out", str(tmp_path / "preds.tsv")]) == 0


class TestFixturePipeline:
    def test_contrastive_macro_f1_on_shipped_fixture(self, tmp_path, split_paths):
        train_path, test_path = split_paths
        run_dir = train_model(tmp_path, "contrastive", train_path)
        preds_path = tmp_path / "preds_fixture.tsv"
        assert run(["predict", "--model-dir", str(run_dir), "--corpus", test_path,
                    "--out", str(preds_path)]) == 0
        eval_dir = tmp_path / "eval-fixture"
        assert run(["eval", "--preds", str(preds_path), "--out-dir", str(eval_dir)]) == 0
        payload = json.loads((eval_dir / "report.json").read_text())
        assert payload["macro_f1"] >= 0.9


class TestEnsembleCommands:
    def test_fit_and_apply(self, tmp_path, split_paths):
        train_path, test_path = split_paths
        rf_dir = train_model(tmp_path, "rf", train_path)
        svm_dir = train_model(tmp_path, "svm", train_path, ("--epochs", "5"))
        preds = {}
        for name, model_dir in (("rf", rf_dir), ("svm", svm_dir)):
            path = tmp_path / f"val_{name}.tsv"
            assert run(["predict", "--model-dir", str(model_dir),
                        "--corpus", test_path, "--out", str(path)]) == 0
            preds[name] = path
        config_path = tmp_path / "ensemble.json"
        assert run([
            "ensemble", "fit",
            "--preds", f"rf={preds['rf']}", f"svm={preds['svm']}",
            "--out", str(config_path),
        ]) == 0
        payload = json.loads(config_path.read_text())
        assert (payload["format"], payload["version"]) == ("baitline-ensemble", 1)
        assert sum(payload["weights"].values()) == pytest.approx(1.0, abs=1e-9)
        out_path = tmp_path / "preds_ensemble.tsv"
        assert run([
            "ensemble", "apply", "--config", str(config_path),
            "--preds", f"rf={preds['rf']}", f"svm={preds['svm']}",
            "--out", str(out_path),
        ]) == 0
        rows = load_predictions(out_path)
        rf_rows = load_predictions(preds["rf"])
        svm_rows = load_predictions(preds["svm"])
        weights = payload["weights"]
        for row, rf_row, svm_row in zip(rows, rf_rows, svm_rows):
            expected = weights["rf"] * rf_row.score + weights["svm"] * svm_row.score
            assert row.score == pytest.approx(expected, abs=1e-12)
            assert row.pred is (CB if row.score >= 0.5 else NCB)

    def test_misaligned_files_rejected(self, tmp_path, data_dir, split_paths):
        train_path, test_path = split_paths
        rf_dir = train_model(tmp_path, "rf", train_path)
        path = tmp_path / "val_rf.tsv"
        assert run(["predict", "--model-dir", str(rf_dir), "--corpus", test_path,
                    "--out", str(path)]) == 0
        code = run([
            "ensemble", "fit",
            "--preds", f"rf={path}",
            f"other={data_dir / 'preds_contrastive_reference.tsv'}",
            "--out", str(tmp_path / "e.json"),
        ])
        assert code == 3

    @pytest.mark.parametrize("payload", [
        *({**ENSEMBLE_HEADER, **payload} for payload in [
            {"threshold": 0.5}, {"weights": [1.0], "threshold": 0.5},
            {"weights": {"contrastive": math.nan}, "threshold": 0.5},
            {"weights": {"contrastive": "1"}, "threshold": 0.5},
            {"weights": {"contrastive": 1.0}, "threshold": math.nan},
            {"weights": {"contrastive": 1.0}, "threshold": None},
            {"weights": {"contrastive": 0.5}, "threshold": 0.5},
            {"weights": {"contrastive": 1.0}},
            {"weights": {"contrastive": 1.0}, "treshold": 0.2},
            {"weights": {"contrastive": 1.0}, "threshold": 0.5, "models": ["contrastive"]},
            {"version": True, "weights": {"contrastive": 1.0}, "threshold": 0.5},
        ]),
        [1.0],
        {"weights": {"contrastive": 1.0}, "threshold": 0.5},
    ])
    def test_config_without_weights_object_exit_3(self, tmp_path, data_dir, capsys, payload):
        """A config without the format header, without a weights object of
        finite numbers summing to 1, with a threshold that is not a finite
        number, or without exactly the keys format, version, threshold and
        weights, exits 3 naming the file and any odd key."""
        config_path = tmp_path / "ensemble.json"
        config_path.write_text(json.dumps(payload), encoding="utf-8")
        reference = data_dir / "preds_contrastive_reference.tsv"
        capsys.readouterr()
        assert run(["ensemble", "apply", "--config", str(config_path),
                    "--preds", f"contrastive={reference}",
                    "--out", str(tmp_path / "out.tsv")]) == 3
        err = capsys.readouterr().err
        assert str(config_path) in err
        keys = {*ENSEMBLE_HEADER, "threshold", "weights"}
        if "format" not in payload:
            assert "unsupported ensemble config: format=None version=None" in err
        elif payload.keys() != keys:
            assert "ensemble config key" in err
            assert all(repr(odd) in err for odd in payload.keys() ^ keys)
        assert not (tmp_path / "out.tsv").exists()

    def test_non_json_config_names_file_exit_3(self, tmp_path, data_dir, capsys):
        config_path = tmp_path / "ensemble.json"
        config_path.write_text("weights = contrastive:1\n", encoding="utf-8")
        reference = data_dir / "preds_contrastive_reference.tsv"
        capsys.readouterr()
        assert run(["ensemble", "apply", "--config", str(config_path),
                    "--preds", f"contrastive={reference}",
                    "--out", str(tmp_path / "out.tsv")]) == 3
        assert f"{config_path}:1: not JSON" in capsys.readouterr().err

    def test_fit_nan_threshold_exit_3(self, tmp_path, data_dir, capsys):
        reference = data_dir / "preds_contrastive_reference.tsv"
        capsys.readouterr()
        assert run(["ensemble", "fit", "--preds", f"contrastive={reference}",
                    "--out", str(tmp_path / "e.json"), "--threshold", "nan"]) == 3
        assert "threshold must be finite" in capsys.readouterr().err
        assert not (tmp_path / "e.json").exists()

    @pytest.mark.parametrize("command", [["fit"], ["apply", "--config", "missing.json"]],
                             ids=["fit", "apply"])
    def test_repeated_model_id_exit_3(self, tmp_path, data_dir, capsys, monkeypatch, command):
        """Refused before any file is read: apply's config does not exist."""
        monkeypatch.chdir(tmp_path)
        reference = data_dir / "preds_contrastive_reference.tsv"
        capsys.readouterr()
        assert run(["ensemble", *command, "--preds", f"a={reference}", f"b={reference}",
                    f"a={reference}", "--out", "out"]) == 3
        assert "model id 'a' is given twice" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def rerun_files(work: Path, families, monkeypatch) -> dict[str, bytes]:
    """Inside ``work``, with relative paths: split synthetic60, train each of
    ``families`` at desk (seed 9; neural families with --epochs 2) and predict
    the test side.  Returns every file written, relative path -> bytes: the
    split, each run directory, each prediction file and its snapshot."""
    data = Path(__file__).parent / "data"
    work.mkdir()
    monkeypatch.chdir(work)
    assert run(["split", "--corpus", str(data / "synthetic60.jsonl"),
                "--manifest", str(data / "split_manifest.json"),
                "--out-train", "train.jsonl", "--out-test", "test.jsonl"]) == 0
    for family in families:
        epochs = ("--epochs", "2") if family in NEURAL_FAMILIES else ()
        assert run(["train", "--model", family, "--corpus", "train.jsonl", "--out", family,
                    "--profile", "desk", "--seed", "9", *epochs]) == 0
        assert run(["predict", "--model-dir", family, "--corpus", "test.jsonl",
                    "--out", f"{family}.tsv"]) == 0
    return {path.relative_to(work).as_posix(): path.read_bytes()
            for path in sorted(work.rglob("*")) if path.is_file()}


class TestDeterminism:
    @pytest.mark.parametrize("family", cfg.MODEL_FAMILIES)
    def test_identical_runs_byte_identical_predictions(self, tmp_path, monkeypatch, family):
        first = rerun_files(tmp_path / "one", [family], monkeypatch)
        assert {f"{family}/training.log", f"{family}/config.ini", f"{family}.tsv"} <= first.keys()
        second = rerun_files(tmp_path / "two", [family], monkeypatch)
        assert first.keys() == second.keys()
        for name, content in first.items():
            assert content == second[name], name

    def test_seed_env_var_default(self, tmp_path, split_paths, monkeypatch):
        train_path, _ = split_paths
        monkeypatch.setenv("BAITLINE_SEED", "123")
        run_dir = tmp_path / "env-seed"
        assert run(["train", "--model", "rf", "--corpus", train_path,
                    "--out", str(run_dir), "--profile", "desk"]) == 0
        snapshot = (run_dir / "config.ini").read_text()
        assert "seed = 123" in snapshot


class TestConfigFile:
    def test_file_overrides_and_flag_precedence(self, tmp_path, split_paths):
        train_path, _ = split_paths
        config_file = tmp_path / "run.ini"
        config_file.write_text("[rf]\nn_estimators = 7\nseed = 42\n", encoding="utf-8")
        run_dir = tmp_path / "cfg-run"
        assert run([
            "train", "--model", "rf", "--corpus", train_path,
            "--out", str(run_dir), "--profile", "desk",
            "--config", str(config_file), "--seed", "77",
        ]) == 0
        snapshot = (run_dir / "config.ini").read_text()
        assert "n_estimators = 7" in snapshot  # file override beats profile
        assert "seed = 77" in snapshot  # flag beats file

    def test_svm_c_from_file(self, tmp_path, corpus_path):
        """Option names keep their case: ``C`` reaches the SVM and the snapshot."""
        config_file = tmp_path / "run.ini"
        config_file.write_text("[svm]\nC = 0.5\n", encoding="utf-8")
        run_dir = tmp_path / "run"
        assert run([
            "train", "--model", "svm", "--corpus", corpus_path, "--out", str(run_dir),
            "--profile", "desk", "--config", str(config_file),
        ]) == 0
        assert json.loads((run_dir / "model.json").read_text())["config"]["C"] == 0.5
        assert "C = 0.5" in (run_dir / "config.ini").read_text().splitlines()

    @pytest.mark.parametrize("family, option, value",
                             [("rf", "criterion", "entropy"), ("svm", "kernel", "linear")])
    def test_removed_option_exit_3(self, tmp_path, corpus_path, capsys, family, option, value):
        config_file = tmp_path / "run.ini"
        config_file.write_text(f"[{family}]\n{option} = {value}\n", encoding="utf-8")
        capsys.readouterr()
        assert run([
            "train", "--model", family, "--corpus", corpus_path, "--out", str(tmp_path / "run"),
            "--profile", "desk", "--config", str(config_file),
        ]) == 3
        assert repr(option) in capsys.readouterr().err

    @pytest.mark.parametrize("family, option, value",
                             [("svm", "C", "0"), ("svm", "C", "inf"), ("svm", "C", "-1"),
                              ("svm", "C", "nan"), ("svm", "epochs", "-2"),
                              ("rf", "n_estimators", "0"), ("rf", "max_features", "log2"),
                              ("rf", "seed", "-1"), ("bilstm", "n_layers", "0"),
                              ("bilstm", "batch_size", "-3"), ("bilstm", "dropout_rate", "1"),
                              ("bilstm", "embed_dim", "0"), ("contrastive", "batch_size", "0"),
                              ("contrastive", "threshold", "nan"),
                              ("contrastive", "margin", "inf"),
                              ("contrastive", "learning_rate", "nan"),
                              ("contrastive", "max_len", "0"),
                              ("encoder-head", "weight_decay", "-5"),
                              ("encoder-head", "weight_decay", "inf"),
                              ("encoder-head", "learning_rate", "0"),
                              ("encoder-head", "dropout_rate", "-0.1")])
    def test_out_of_range_value_exit_3(self, tmp_path, corpus_path, capsys, family, option,
                                       value):
        config_file = tmp_path / "run.ini"
        config_file.write_text(f"[{family}]\n{option} = {value}\n", encoding="utf-8")
        capsys.readouterr()
        assert run([
            "train", "--model", family, "--corpus", corpus_path, "--out", str(tmp_path / "run"),
            "--profile", "desk", "--config", str(config_file),
        ]) == 3
        err = capsys.readouterr().err
        assert f"{config_file}: [{family}] {option} = {value!r} is out of range" in err
        assert not (tmp_path / "run").exists()

    def test_svm_non_finite_objective_exit_3(self, tmp_path, corpus_path, capsys):
        """C = 1e300 is in range, but the objective overflows from epoch 1 on:
        the run exits 3 naming C and that epoch, and saves no model."""
        config_file = tmp_path / "run.ini"
        config_file.write_text("[svm]\nC = 1e300\n", encoding="utf-8")
        capsys.readouterr()
        assert run([
            "train", "--model", "svm", "--corpus", corpus_path, "--out", str(tmp_path / "run"),
            "--profile", "desk", "--config", str(config_file),
        ]) == 3
        err = capsys.readouterr().err
        assert "at epoch 1" in err and "C = 1e+300" in err
        assert list((tmp_path / "run").iterdir()) == []

    @pytest.mark.parametrize("family", ["svm", "contrastive"])
    def test_negative_epochs_flag_exit_3(self, tmp_path, corpus_path, capsys, family):
        capsys.readouterr()
        assert run([
            "train", "--model", family, "--corpus", corpus_path, "--out", str(tmp_path / "run"),
            "--profile", "desk", "--epochs", "-2",
        ]) == 3
        assert "--epochs -2 is out of range" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("family", ["svm", "bilstm"])
    def test_negative_seed_flag_exit_3(self, tmp_path, corpus_path, capsys, family):
        capsys.readouterr()
        assert run([
            "train", "--model", family, "--corpus", corpus_path, "--out", str(tmp_path / "run"),
            "--profile", "desk", "--seed", "-1",
        ]) == 3
        assert "--seed -1 is out of range: seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("value, problem", [("abc", "is not a valid int"),
                                                ("-1", "is out of range: seed must be >= 0")])
    def test_bad_seed_env_var_names_the_variable_exit_3(self, tmp_path, corpus_path, capsys,
                                                         monkeypatch, value, problem):
        monkeypatch.setenv("BAITLINE_SEED", value)
        capsys.readouterr()
        assert run([
            "train", "--model", "svm", "--corpus", corpus_path, "--out", str(tmp_path / "run"),
            "--profile", "desk",
        ]) == 3
        err = capsys.readouterr().err
        assert f"BAITLINE_SEED={value!r} {problem}" in err
        assert "--seed" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("family, option, value",
                             [("rf", "n_estimators", "abc"), ("svm", "epochs", "1.5")])
    def test_unconvertible_value_exit_3(self, tmp_path, corpus_path, capsys, family, option,
                                        value):
        config_file = tmp_path / "run.ini"
        config_file.write_text(f"[{family}]\n{option} = {value}\n", encoding="utf-8")
        capsys.readouterr()
        assert run([
            "train", "--model", family, "--corpus", corpus_path, "--out", str(tmp_path / "run"),
            "--profile", "desk", "--config", str(config_file),
        ]) == 3
        err = capsys.readouterr().err
        assert f"{config_file}: [{family}] {option} = {value!r}" in err


class TestInputReaders:
    """Each input format has one reader: a defect exits 3 (4 in a model
    directory), naming the file and the line, and leaves no output behind."""

    def test_non_utf8_manifest(self, tmp_path, corpus_path, manifest_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_bytes(Path(manifest_path).read_bytes().replace(b'"train"', b'"tr\xffain"', 2))
        capsys.readouterr()
        assert run(["split", "--corpus", corpus_path, "--manifest", str(manifest),
                    "--out-train", str(tmp_path / "a.jsonl"),
                    "--out-test", str(tmp_path / "b.jsonl")]) == 3
        assert f"{manifest}:2: not UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "a.jsonl").exists()

    def test_non_utf8_ensemble_config(self, tmp_path, data_dir, capsys):
        config_path = tmp_path / "ensemble.json"
        config_path.write_bytes(b'{\n  "threshold": 0.5,\n  "weights": {"contrastive\xff": 1.0}\n}\n')
        capsys.readouterr()
        assert run(["ensemble", "apply", "--config", str(config_path),
                    "--preds", f"contrastive={data_dir / 'preds_contrastive_reference.tsv'}",
                    "--out", str(tmp_path / "out.tsv")]) == 3
        assert f"{config_path}:3: not UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "out.tsv").exists()

    def test_non_utf8_word_vectors(self, tmp_path, corpus_path, capsys):
        dim = cfg.build_model_config("contrastive", "desk").embed_dim
        vectors_path = tmp_path / "vectors.txt"
        vectors_path.write_bytes(b"".join(tok + b" 0.5" * dim + b"\n"
                                          for tok in (b"stiri", b"\xffazi", b"care")))
        config_path = tmp_path / "run.ini"
        config_path.write_text(f"[contrastive]\nembedding_file = {vectors_path}\n", encoding="utf-8")
        capsys.readouterr()
        assert run(["train", "--model", "contrastive", "--corpus", corpus_path,
                    "--out", str(tmp_path / "run"), "--profile", "desk", "--epochs", "0",
                    "--config", str(config_path)]) == 3
        assert f"{vectors_path}:2: not UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "run" / "model.json").exists()

    @pytest.mark.parametrize("text, line, message", [
        pytest.param(b"[svm]\nC = 0.5\xff\n", 2, "not UTF-8", id="not_utf8"),
        pytest.param(b"C = 0.5\n[svm]\n", 1, "an option above the first [section] header",
                     id="no_section_header"),
        pytest.param(b"[svm]\nC = 0.5\n[rf]\nseed = 1\n[svm]\nepochs = 2\n", 5,
                     "section [svm] repeats", id="repeated_section"),
        pytest.param(b"[svm]\nC = 0.5\nepochs = 2\nC = 1\n", 4,
                     "option 'C' repeats in section [svm]", id="repeated_option"),
        pytest.param(b"[svm]\nC = 0.5\nnot an option\n", 3,
                     "neither a [section] header nor an option", id="not_an_option"),
    ])
    def test_bad_ini_names_file_and_line(self, tmp_path, corpus_path, capsys, text, line,
                                         message):
        config_path = tmp_path / "run.ini"
        config_path.write_bytes(text)
        capsys.readouterr()
        assert run(["train", "--model", "svm", "--corpus", corpus_path,
                    "--out", str(tmp_path / "run"), "--profile", "desk",
                    "--config", str(config_path)]) == 3
        assert f"{config_path}:{line}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_section_naming_no_family_exit_3(self, tmp_path, corpus_path, capsys):
        """A misspelt family's section is refused, not skipped."""
        config_path = tmp_path / "run.ini"
        config_path.write_text("[svn]\nC = -5\nepochs = 3\n", encoding="utf-8")
        capsys.readouterr()
        assert run(["train", "--model", "svm", "--corpus", corpus_path,
                    "--out", str(tmp_path / "run"), "--profile", "desk",
                    "--config", str(config_path)]) == 3
        assert f"{config_path}: section [svn] is neither" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_eval_compare_with_flipped_golds(self, tmp_path, data_dir, capsys):
        """``--compare`` must cover the same articles with the same golds,
        as ``ensemble`` requires of its files."""
        preds_path = data_dir / "preds_contrastive_reference.tsv"
        flipped = {"clickbait": "non-clickbait", "non-clickbait": "clickbait"}
        rows = [line.split("\t") for line in preds_path.read_text().splitlines()]
        compare_path = tmp_path / "flipped.tsv"
        compare_path.write_text("".join(f"{i}\t{flipped[g]}\t{p}\t{s}\n" for i, g, p, s in rows),
                                encoding="utf-8")
        capsys.readouterr()
        assert run(["eval", "--preds", str(preds_path), "--out-dir", str(tmp_path / "ev"),
                    "--compare", str(compare_path)]) == 3
        gold = rows[0][1]
        assert (f"{compare_path}:1: article {rows[0][0]!r} ({flipped[gold]}) does not line up "
                f"with {preds_path}:1: article {rows[0][0]!r} ({gold})") in capsys.readouterr().err
        assert not (tmp_path / "ev").exists()

    def test_eval_compare_shorter_file(self, tmp_path, data_dir, capsys):
        preds_path = data_dir / "preds_contrastive_reference.tsv"
        lines = preds_path.read_text().splitlines(keepends=True)
        compare_path = tmp_path / "short.tsv"
        compare_path.write_text("".join(lines[:-1]), encoding="utf-8")
        capsys.readouterr()
        assert run(["eval", "--preds", str(preds_path), "--out-dir", str(tmp_path / "ev"),
                    "--compare", str(compare_path)]) == 3
        assert (f"{compare_path}: {len(lines) - 1} predictions, but {preds_path} has "
                f"{len(lines)}") in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["ingest", "--corpus", "{dir}"],
        ["eval", "--preds", "{dir}", "--out-dir", "{out}"],
        ["train", "--model", "svm", "--corpus", "{corpus}", "--config", "{dir}", "--out", "{out}"],
        ["predict", "--model-dir", "{file}", "--corpus", "{corpus}", "--out", "{out}"],
    ], ids=["ingest_corpus", "eval_preds", "train_config", "predict_model_dir"])
    def test_directory_for_a_file_exit_2(self, tmp_path, corpus_path, capsys, command):
        """A directory where a file is expected, or a file where a directory
        is, exits 2 like a missing file, naming the path."""
        paths = {"dir": tmp_path / "a-dir", "file": tmp_path / "a-file",
                 "corpus": corpus_path, "out": tmp_path / "out"}
        paths["dir"].mkdir()
        paths["file"].write_text("", encoding="utf-8")
        culprit = paths["file"] if "{file}" in command else paths["dir"]
        capsys.readouterr()
        assert run([arg.format(**paths) for arg in command]) == 2
        assert str(culprit) in capsys.readouterr().err
        assert not paths["out"].exists()

    NESTED = b"[" * 100_000 + b"]" * 100_000

    def test_deeply_nested_manifest(self, tmp_path, corpus_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_bytes(b"\n" + self.NESTED + b"\n")
        capsys.readouterr()
        assert run(["split", "--corpus", corpus_path, "--manifest", str(manifest),
                    "--out-train", str(tmp_path / "a.jsonl"),
                    "--out-test", str(tmp_path / "b.jsonl")]) == 3
        assert f"{manifest}:2: not JSON: nested too deeply" in capsys.readouterr().err
        assert not (tmp_path / "a.jsonl").exists()

    def test_deeply_nested_corpus_line(self, tmp_path, corpus_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(Path(corpus_path).read_bytes() + self.NESTED + b"\n")
        capsys.readouterr()
        assert run(["ingest", "--corpus", str(corpus)]) == 3
        assert f"{corpus}:61: not JSON: nested too deeply" in capsys.readouterr().err

    @pytest.mark.parametrize("file_name, culprit", [
        ("model.json", ":1: not JSON: nested too deeply"),
        ("model.tensors", ":1: not a tensor checkpoint"),
    ])
    def test_deeply_nested_model_file_exit_4(self, tmp_path, neural_runs, corpus_path, capsys,
                                             file_name, culprit):
        run_dir = tmp_path / "contrastive"
        shutil.copytree(neural_runs / "contrastive", run_dir)
        path = run_dir / file_name
        path.write_bytes(self.NESTED + b"\n" + path.read_bytes().partition(b"\n")[2])
        capsys.readouterr()
        assert run(["predict", "--model-dir", str(run_dir), "--corpus", corpus_path,
                    "--out", str(tmp_path / "preds.tsv")]) == 4
        assert f"{path}{culprit}" in capsys.readouterr().err
        assert not (tmp_path / "preds.tsv").exists()


class TestPercentSign:
    """INI files read and write ``%`` literally: no interpolation."""

    def test_percent_in_a_value_is_a_type_error(self, tmp_path, corpus_path, capsys):
        config_path = tmp_path / "run.ini"
        config_path.write_text("[svm]\nC = 5%\n", encoding="utf-8")
        capsys.readouterr()
        assert run(["train", "--model", "svm", "--corpus", corpus_path,
                    "--out", str(tmp_path / "run"), "--profile", "desk",
                    "--config", str(config_path)]) == 3
        assert f"{config_path}: [svm] C = '5%' is not a valid float" in capsys.readouterr().err

    def test_double_percent_reads_literally(self, tmp_path):
        config_path = tmp_path / "run.ini"
        config_path.write_text("[contrastive]\nembedding_file = v%%1.txt\n", encoding="utf-8")
        assert cfg.read_config_file(config_path) == {
            "contrastive": {"embedding_file": "v%%1.txt"}}

    def test_percent_in_paths_reaches_the_snapshots(self, tmp_path, corpus_path, data_dir):
        corpus_copy = tmp_path / "c%1.jsonl"
        shutil.copyfile(corpus_path, corpus_copy)
        run_dir = train_model(tmp_path, "svm", str(corpus_copy))
        snapshot = cfg.read_config_file(run_dir / "config.ini")
        assert snapshot["run"]["corpus"] == str(corpus_copy)
        again = train_model(tmp_path / "again", "svm", str(corpus_copy),
                            ("--config", str(run_dir / "config.ini")))
        assert (again / "model.json").read_bytes() == (run_dir / "model.json").read_bytes()
        preds_copy = tmp_path / "p%.tsv"
        shutil.copyfile(data_dir / "preds_contrastive_reference.tsv", preds_copy)
        assert run(["eval", "--preds", str(preds_copy), "--out-dir", str(tmp_path / "ev")]) == 0
        assert cfg.read_config_file(tmp_path / "ev" / "config.ini")["eval"]["preds"] == str(
            preds_copy)


def test_ensemble_fit_writes_a_snapshot(tmp_path, data_dir):
    entries = [f"{name}={data_dir / f'preds_{name}_reference.tsv'}"
               for name in ("contrastive", "finetuned")]
    out = tmp_path / "ensemble.json"
    assert run(["ensemble", "fit", "--preds", *entries, "--out", str(out),
                "--threshold", "0.4"]) == 0
    assert cfg.read_config_file(str(out) + ".config.ini") == {
        "ensemble": {"preds": " ".join(entries), "threshold": "0.4"}}
