"""Command-line surface for the clickbait-detection pipeline.

Commands: ingest, split, featurize, train, predict, eval, ensemble (fit and
apply).  Exit codes: 0 success, 2 missing input file, 3 schema or validation
error, 4 incompatible checkpoint or model container, 1 unexpected failure.
The library's readers and loaders raise ValueError for any defect; ``predict``
alone turns one found while reading the model directory into exit 4.  Every
command writes a resolved-config snapshot beside its outputs; the
``BAITLINE_SEED`` environment variable supplies the default seed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

from . import config as cfg
from .corpus import (
    Label,
    corpus_stats,
    load_corpus,
    load_split_manifest,
    save_corpus,
    split_by_source,
)
from .ensemble import EnsembleConfig, ensemble_predict, fit_weights
from .features import FEATURE_NAMES, export_features, feature_matrix, fit_standardizer
from .metrics import (
    PredictionRow,
    evaluate,
    export_pr_curve,
    load_predictions,
    mcnemar,
    render_report,
    save_predictions,
    save_report,
)
from .registry import FAMILIES
from .tensor.checkpoint import MODEL_FILE, save_model_json


class CheckpointVersionError(RuntimeError):
    """A model directory this version cannot read: an unknown format or
    version, or content that does not fit the model it describes (exit 4)."""


def _add_common_train_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--corpus", required=True, help="training corpus (json lines)")
    parser.add_argument("--out", required=True, help="output run directory")
    parser.add_argument("--profile", choices=cfg.PROFILES, default="full")
    parser.add_argument("--config", help="INI config file with per-family sections")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--epochs", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="baitline", description="clickbait detection pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="validate a corpus and print statistics")
    p_ingest.add_argument("--corpus", required=True)
    p_ingest.add_argument("--stats", action="store_true", help="print token/sentence stats")

    p_split = sub.add_parser("split", help="source-separated train/test split")
    p_split.add_argument("--corpus", required=True)
    p_split.add_argument("--manifest", required=True, help="JSON source -> train|test map")
    p_split.add_argument("--out-train", required=True)
    p_split.add_argument("--out-test", required=True)

    p_feat = sub.add_parser("featurize", help="export the handcrafted feature matrix")
    p_feat.add_argument("--corpus", required=True)
    p_feat.add_argument("--out", required=True)
    p_feat.add_argument("--standardizer-out", help="also fit and save a standardizer")

    p_train = sub.add_parser("train", help="train one model family")
    p_train.add_argument("--model", required=True, choices=cfg.MODEL_FAMILIES)
    _add_common_train_flags(p_train)

    p_pred = sub.add_parser("predict", help="write a prediction file for a corpus")
    p_pred.add_argument("--model-dir", required=True)
    p_pred.add_argument("--corpus", required=True)
    p_pred.add_argument("--out", required=True)

    p_eval = sub.add_parser("eval", help="score a prediction file")
    p_eval.add_argument("--preds", required=True)
    p_eval.add_argument("--out-dir", required=True)
    p_eval.add_argument(
        "--compare", help="second prediction file for a McNemar significance test"
    )
    p_eval.add_argument("--compare-name", default="other")

    p_ens = sub.add_parser("ensemble", help="fit or apply weighted soft voting")
    ens_sub = p_ens.add_subparsers(dest="ensemble_command", required=True)
    p_fit = ens_sub.add_parser("fit", help="fit weights from validation predictions")
    p_fit.add_argument(
        "--preds", nargs="+", required=True, metavar="ID=FILE",
        help="per-model validation prediction files",
    )
    p_fit.add_argument("--out", required=True)
    p_fit.add_argument("--threshold", type=float, default=0.5)
    p_apply = ens_sub.add_parser("apply", help="combine aligned prediction files")
    p_apply.add_argument("--config", required=True)
    p_apply.add_argument("--preds", nargs="+", required=True, metavar="ID=FILE")
    p_apply.add_argument("--out", required=True)

    return parser


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def cmd_ingest(args) -> int:
    corpus = load_corpus(args.corpus)
    n_cb = corpus.count(Label.CLICKBAIT)
    n_ncb = corpus.count(Label.NON_CLICKBAIT)
    print(f"corpus {corpus.name}: {len(corpus)} articles "
          f"({n_cb} clickbait / {n_ncb} non-clickbait)")
    print(f"sources: {', '.join(sorted(corpus.sources()))}")
    if args.stats:
        stats = corpus_stats(corpus)
        print(f"tokens total: {stats.token_total}")
        print(f"avg title tokens: {stats.avg_title_tokens:.2f}")
        print(f"avg content tokens: {stats.avg_content_tokens:.2f}")
        print(f"avg sentences: {stats.avg_sentences:.2f}")
        print(f"sentence range: {stats.sentence_range[0]}..{stats.sentence_range[1]}")
        for source in sorted(stats.per_source_clickbait_ratio):
            ratio = stats.per_source_clickbait_ratio[source]
            print(f"clickbait ratio {source}: {ratio:.4f}")
    return 0


def cmd_split(args) -> int:
    corpus = load_corpus(args.corpus)
    train_sources, test_sources = load_split_manifest(args.manifest)
    try:
        train, test = split_by_source(corpus, train_sources, test_sources)
    except ValueError as exc:  # a source the manifest leaves out
        raise ValueError(f"{args.manifest}: {exc}") from None
    save_corpus(train, args.out_train)
    save_corpus(test, args.out_test)
    for side, part in (("train", train), ("test", test)):
        n_cb = part.count(Label.CLICKBAIT) if part.is_labeled else 0
        n_ncb = part.count(Label.NON_CLICKBAIT) if part.is_labeled else 0
        print(f"{side}: {len(part)} articles ({n_cb} clickbait / {n_ncb} non-clickbait)")
    cfg.write_snapshot(
        str(args.out_train) + ".config.ini",
        {"split": {"corpus": args.corpus, "manifest": args.manifest}},
    )
    return 0


def cmd_featurize(args) -> int:
    corpus = load_corpus(args.corpus)
    matrix = feature_matrix(corpus.articles)
    export_features(matrix, args.out, FEATURE_NAMES)
    if args.standardizer_out:
        fit_standardizer(matrix).save(args.standardizer_out)
    cfg.write_snapshot(
        str(args.out) + ".config.ini",
        {"featurize": {"corpus": args.corpus, "n_features": len(FEATURE_NAMES)}},
    )
    print(f"wrote {matrix.shape[0]} x {matrix.shape[1]} feature matrix to {args.out}")
    return 0


def _resolve_model_config(args, family: str):
    file_overrides = {}
    if args.config:
        sections = cfg.read_config_file(args.config)
        file_overrides = sections.get(family, {})
    flag_overrides: dict = {}
    if args.seed is not None:
        flag_overrides["seed"] = args.seed
    elif "seed" not in file_overrides:
        flag_overrides["seed"] = cfg.seed_from_env()
    if args.epochs is not None:
        flag_overrides["epochs"] = args.epochs
    return cfg.build_model_config(family, args.profile, file_overrides, flag_overrides, args.config)


def cmd_train(args) -> int:
    corpus = load_corpus(args.corpus)
    family = args.model
    model_config = _resolve_model_config(args, family)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    losses, fields = FAMILIES[family].train(corpus, model_config, out_dir)
    save_model_json(out_dir / MODEL_FILE, family, model_config, losses, fields)
    with open(out_dir / "training.log", "w", encoding="utf-8") as fh:
        for epoch, value in enumerate(losses, start=1):
            fh.write(f"epoch {epoch}: {value!r}\n")
    snapshot = {
        "run": {
            "command": "train",
            "model": family,
            "corpus": args.corpus,
            "profile": args.profile,
        },
        family: asdict(model_config),
    }
    cfg.write_snapshot(out_dir / "config.ini", snapshot)
    print(f"trained {family} on {len(corpus)} articles -> {out_dir}")
    return 0


def cmd_predict(args) -> int:
    model_dir = Path(args.model_dir)
    corpus = load_corpus(args.corpus)
    if len(corpus) == 0:
        raise ValueError(f"corpus {corpus.name!r} is empty; nothing to predict")
    try:
        model = cfg.read_model(model_dir / MODEL_FILE)  # the family is model.json's, not config.ini's
        predictor = FAMILIES[model["family"]].load(model_dir, model)
    except ValueError as exc:
        raise CheckpointVersionError(str(exc)) from None
    labels, scores = predictor.predictions(corpus.articles)
    rows = [PredictionRow(a.id, a.label, label, score)
            for a, label, score in zip(corpus, labels, scores)]
    save_predictions(rows, args.out)
    cfg.write_snapshot(
        str(args.out) + ".config.ini",
        {"predict": {"model_dir": str(model_dir), "corpus": args.corpus}},
    )
    print(f"wrote {len(rows)} predictions to {args.out}")
    return 0


def cmd_eval(args) -> int:
    rows, *other = _aligned_rows([args.preds] + ([args.compare] if args.compare else []))
    preds, golds = [r.pred for r in rows], [r.gold for r in rows]
    report = evaluate(preds, golds, [r.score for r in rows])
    if other:
        stat, p = mcnemar(preds, [r.pred for r in other[0]], golds)
        report.mcnemar_vs[args.compare_name] = (stat, p)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_report(report, out_dir / "report.txt", out_dir / "report.json")
    if report.curve is not None:
        export_pr_curve(report.curve, out_dir / "pr_curve.tsv")
    cfg.write_snapshot(
        out_dir / "config.ini",
        {"eval": {"preds": args.preds, "compare": args.compare or ""}},
    )
    print(render_report(report), end="")
    return 0


def _parse_pred_entries(entries: list[str]) -> list[tuple[str, str]]:
    out = []
    for entry in entries:
        if "=" not in entry:
            raise ValueError(f"expected ID=FILE, got {entry!r}")
        model_id, path = entry.split("=", 1)
        out.append((model_id, path))
    return out


def _aligned_rows(paths: list[str]) -> list[list[PredictionRow]]:
    """Each prediction file's rows; every file needs a row, every row a gold
    label, and every file the first file's ids and golds in its order, or
    ValueError names the file (and the line)."""
    per_file: list[list[PredictionRow]] = []
    for path in paths:
        rows = load_predictions(path)
        if not rows:
            raise ValueError(f"{path}: no predictions")
        ref = per_file[0] if per_file else rows
        for row, want in zip(rows, ref):
            if row.gold is None:
                raise ValueError(f"{path}:{row.line}: article {row.id!r} has no gold label")
            if (row.id, row.gold) != (want.id, want.gold):
                raise ValueError(f"{path}:{row.line}: article {row.id!r} ({row.gold.to_string()}) "
                                 f"does not line up with {paths[0]}:{want.line}: article "
                                 f"{want.id!r} ({want.gold.to_string()})")
        if len(rows) != len(ref):
            raise ValueError(f"{path}: {len(rows)} predictions, but {paths[0]} has {len(ref)}")
        per_file.append(rows)
    return per_file


def cmd_ensemble_fit(args) -> int:
    entries = _parse_pred_entries(args.preds)
    per_model = _aligned_rows([path for _, path in entries])
    config = fit_weights(
        [model_id for model_id, _ in entries],
        [[r.pred for r in rows] for rows in per_model],
        [r.gold for r in per_model[0]],
        threshold=args.threshold,
    )
    config.save(args.out)
    cfg.write_snapshot(
        str(args.out) + ".config.ini",
        {"ensemble": {"preds": " ".join(args.preds), "threshold": args.threshold}},
    )
    for model_id, weight in zip(config.model_ids, config.weights):
        print(f"weight {model_id}: {weight:.6f}")
    return 0


def cmd_ensemble_apply(args) -> int:
    config = EnsembleConfig.load(args.config)
    entries = dict(_parse_pred_entries(args.preds))
    missing = [m for m in config.model_ids if m not in entries]
    if missing:
        raise ValueError(f"missing prediction files for models: {missing}")
    per_model = _aligned_rows([entries[m] for m in config.model_ids])
    rows = []
    for i, first in enumerate(per_model[0]):
        label, combined = ensemble_predict([model_rows[i].score for model_rows in per_model], config)
        rows.append(PredictionRow(first.id, first.gold, label, combined))
    save_predictions(rows, args.out)
    cfg.write_snapshot(
        str(args.out) + ".config.ini",
        {"ensemble": {"config": args.config, "models": ",".join(config.model_ids)}},
    )
    print(f"wrote {len(rows)} ensemble predictions to {args.out}")
    return 0


_COMMANDS = {
    "ingest": cmd_ingest,
    "split": cmd_split,
    "featurize": cmd_featurize,
    "train": cmd_train,
    "predict": cmd_predict,
    "eval": cmd_eval,
}


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "ensemble":
        handler = cmd_ensemble_fit if args.ensemble_command == "fit" else cmd_ensemble_apply
    else:
        handler = _COMMANDS[args.command]
    try:
        return handler(args)
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CheckpointVersionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
