import argparse
import dataclasses
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from baitline import config as cfg
from baitline.cli import build_parser, run
from baitline.corpus import Corpus, Label, load_corpus, save_corpus
from baitline.features import N_FEATURES
from baitline.metrics import load_predictions
from baitline.registry import FAMILIES
from baitline.tensor.checkpoint import load_tensors, save_tensors
from baitline.textproc import normalize, tokenize

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

    def test_unknown_source_exit_3(self, tmp_path, corpus_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"alfa-news": "train"}), encoding="utf-8")
        code = run([
            "split", "--corpus", corpus_path, "--manifest", str(manifest),
            "--out-train", str(tmp_path / "a.jsonl"), "--out-test", str(tmp_path / "b.jsonl"),
        ])
        assert code == 3


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
    "header_not_object": (lambda header: [header], "not a JSON object"),
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
        return "model.tensors", "version 42"
    if defect == "unknown_meta_key":
        meta_path = run_dir / "model_meta.json"
        meta = json.loads(meta_path.read_text())
        meta["config"]["not_a_field"] = 1
        meta_path.write_text(json.dumps(meta))
        return "model_meta.json", "not_a_field"
    if defect in ("blank_vocab_line", "repeated_vocab_line", "added_vocab_line"):
        vocab_path = sorted(run_dir.glob("vocab*.txt"))[0]
        lines = vocab_path.read_text(encoding="utf-8").splitlines(keepends=True)
        if defect == "added_vocab_line":  # one row more than the stored table
            vocab_path.write_text("".join(lines) + "zzz-new-token\n", encoding="utf-8")
            return "model.tensors", "embedding"
        lines.insert(2, "\n" if defect == "blank_vocab_line" else lines[0])
        vocab_path.write_text("".join(lines), encoding="utf-8")
        return vocab_path.name, f"{vocab_path.name}:3:"
    tensors = load_tensors(run_dir / "model.tensors")
    if defect == "missing_tensor":
        culprit = sorted(tensors)[0]
        del tensors[culprit]
    elif defect == "extra_tensor":
        culprit = "extra.weight"
        tensors[culprit] = np.zeros(3)
    else:
        culprit = "head.out_b" if "head.out_b" in tensors else sorted(tensors)[-1]
        tensors[culprit] = np.zeros(tensors[culprit].size + 1)
    save_tensors(run_dir / "model.tensors", tensors)
    return "model.tensors", culprit


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
        assert (run_dir / "vocab.txt").exists()
        from baitline.neural.siamese import SiameseBundle

        bundle = SiameseBundle.load(run_dir)
        assert bundle.config.epochs == 0

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
          for defect in ("missing_tensor", "extra_tensor", "wrong_shape", "unknown_meta_key")),
        *((family, defect) for family in ("bilstm", "contrastive")
          for defect in ("blank_vocab_line", "repeated_vocab_line", "added_vocab_line")),
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
    "oob_indices_not_a_list": ("rf", "model.json", lambda payload: payload.update(oob_indices="x"),
                               "oob_indices"),
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
    "svm_without_platt": ("svm", "model.json", lambda payload: payload.pop("platt"), "platt"),
    "svm_without_w": ("svm", "model.json", lambda payload: payload.pop("w"), "'w'"),
    "svm_without_b": ("svm", "model.json", lambda payload: payload.pop("b"), "'b'"),
    "platt_without_a": ("svm", "model.json", lambda payload: payload["platt"].pop("A"), "'A'"),
    "oob_score_not_a_number": ("rf", "model.json", lambda payload: payload.update(oob_score="x"),
                               "'oob_score'"),
    "oob_score_above_1": ("rf", "model.json", lambda payload: payload.update(oob_score=1.5),
                          "'oob_score'"),
    "class_weights_not_a_list": ("rf", "model.json",
                                 lambda payload: payload.update(class_weights="x"),
                                 "'class_weights'"),
    "class_weights_short": ("rf", "model.json",
                            lambda payload: payload.update(class_weights=[1.0]), "'class_weights'"),
    "class_weights_negative": ("rf", "model.json",
                               lambda payload: payload.update(class_weights=[-1.0, 1.0]),
                               "'class_weights'"),
    "class_weights_nan": ("rf", "model.json",
                          lambda payload: payload.update(class_weights=[1.0, math.nan]),
                          "'class_weights'"),
    "rf_file_of_svm_family": ("rf", "model.json", lambda payload: payload.update(family="svm"),
                              "got 'svm'"),
    "svm_b_not_a_number": ("svm", "model.json", lambda payload: payload.update(b="x"), "'b'"),
    "svm_c_nan": ("svm", "model.json", lambda payload: payload.update(C=math.nan), "'C'"),
    "platt_a_not_a_number": ("svm", "model.json", lambda payload: payload["platt"].update(A="x"),
                             "'platt.A'"),
    "platt_b_infinite": ("svm", "model.json", lambda payload: payload["platt"].update(B=math.inf),
                         "'platt.B'"),
    "svm_file_of_rf_family": ("svm", "model.json", lambda payload: payload.update(family="rf"),
                              "got 'rf'"),
    "standardizer_without_mean": ("svm", "standardizer.json", _standardizer_with("mean", None),
                                  "'mean'"),
    "standardizer_without_std": ("rf", "standardizer.json", _standardizer_with("std", None),
                                 "'std'"),
    "standardizer_short_mean": ("svm", "standardizer.json",
                                _standardizer_with("mean", [0.0] * 3), "'mean'"),
    "standardizer_long_std": ("rf", "standardizer.json",
                              _standardizer_with("std", [1.0] * (N_FEATURES + 1)), "'std'"),
    "standardizer_nan_mean": ("rf", "standardizer.json",
                              _standardizer_with("mean", [math.nan] * N_FEATURES), "'mean'"),
    "standardizer_string_std": ("svm", "standardizer.json",
                                _standardizer_with("std", ["1"] * N_FEATURES), "'std'"),
    "standardizer_zero_std": ("svm", "standardizer.json",
                              _standardizer_with("std", [0.0] * N_FEATURES), "'std'"),
    "standardizer_negative_std": ("rf", "standardizer.json",
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


@pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe"], ids=["not_json", "not_utf8"])
@pytest.mark.parametrize("family, file_name", [
    ("rf", "model.json"), ("svm", "standardizer.json"), ("bilstm", "model_meta.json"),
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


TABLES = {
    "bilstm": {"title.embedding": ("vocab_title.txt", "title_vocab_size"),
               "content.embedding": ("vocab_content.txt", "content_vocab_size")},
    "contrastive": {"siamese.embedding": ("vocab.txt", "vocab_size")},
    "encoder-head": {"encoder.embedding": ("vocab.txt", "vocab_size")},
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
    for name in ("training.log", "model_meta.json", "config.ini"):
        assert (sized_dir / name).read_bytes() == (capped_dir / name).read_bytes(), name

    config = cfg.build_model_config(family, "desk")
    sized = load_tensors(sized_dir / "model.tensors")
    capped = load_tensors(capped_dir / "model.tensors")
    assert sized.keys() == capped.keys()
    for name, values in sized.items():
        assert np.array_equal(values, capped[name][: len(values)]), name
    for name, (vocab_file, cap_key) in TABLES[family].items():
        n_tokens = len((sized_dir / vocab_file).read_text(encoding="utf-8").splitlines())
        sized_shape = (n_tokens + 2, config.embed_dim)
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


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_registered_family_trains_and_predicts(tmp_path, data_dir, family):
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    model_flag = next(a for a in subparsers.choices["train"]._actions if a.dest == "model")
    assert tuple(model_flag.choices) == tuple(FAMILIES) == cfg.MODEL_FAMILIES

    corpus_path = str(data_dir / "synthetic60.jsonl")
    run_dir = train_model(tmp_path, family, corpus_path)
    outputs = []
    for tag in ("one", "two"):
        preds_path = tmp_path / f"preds-{tag}.tsv"
        assert run(["predict", "--model-dir", str(run_dir), "--corpus", corpus_path,
                    "--out", str(preds_path)]) == 0
        outputs.append(preds_path.read_bytes())
    rows = load_predictions(tmp_path / "preds-one.tsv")
    assert [r.id for r in rows] == [a.id for a in load_corpus(corpus_path)]
    assert all(0.0 <= r.score <= 1.0 for r in rows)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("family,table,vocab_file", [
    ("bilstm", "title.embedding", "vocab_title.txt"),
    ("contrastive", "siamese.embedding", "vocab.txt"),
])
def test_embedding_file_model_predicts(tmp_path, split_paths, family, table, vocab_file):
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
    vocab = (run_dir / vocab_file).read_text(encoding="utf-8").splitlines()
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

    @pytest.mark.parametrize("payload", [{"threshold": 0.5}, {"weights": [1.0]}, [1.0]])
    def test_config_without_weights_object_exit_3(self, tmp_path, data_dir, capsys, payload):
        config_path = tmp_path / "ensemble.json"
        config_path.write_text(json.dumps(payload), encoding="utf-8")
        reference = data_dir / "preds_contrastive_reference.tsv"
        capsys.readouterr()
        assert run(["ensemble", "apply", "--config", str(config_path),
                    "--preds", f"contrastive={reference}",
                    "--out", str(tmp_path / "out.tsv")]) == 3
        assert str(config_path) in capsys.readouterr().err

class TestDeterminism:
    def test_identical_runs_byte_identical_predictions(self, tmp_path, split_paths):
        train_path, test_path = split_paths
        outputs = []
        for tag in ("one", "two"):
            run_dir = tmp_path / f"det-{tag}"
            assert run([
                "train", "--model", "rf", "--corpus", train_path,
                "--out", str(run_dir), "--profile", "desk", "--seed", "9",
            ]) == 0
            preds_path = tmp_path / f"preds-{tag}.tsv"
            assert run(["predict", "--model-dir", str(run_dir), "--corpus", test_path,
                        "--out", str(preds_path)]) == 0
            outputs.append(preds_path.read_bytes())
        assert outputs[0] == outputs[1]

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
        assert json.loads((run_dir / "model.json").read_text())["C"] == 0.5
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
