"""Train, predict and evaluate every model family on the shipped 60-article
fixture, ensemble the five, and print one ``sha256  path`` line per output file.

Run from the repository root:

    PYTHONPATH=src python3 tools/run_digests.py OUT [--seed 5] [--embeddings]

Each family trains on tests/data/synthetic60.jsonl at the desk profile and at
the full profile (the neural families with --epochs 1), predicts the same
corpus, and ``eval`` scores the prediction file into ``PROFILE/FAMILY.eval/``.
Per profile, ``ensemble fit`` then fits weights on the five prediction files
(``PROFILE/ensemble.json``), ``ensemble apply`` combines them
(``PROFILE/ensemble.tsv``), and ``eval`` scores the result against the
contrastive predictions with McNemar's test (``PROFILE/ensemble.eval/``).
OUT, which must not exist yet, receives the run directories, the prediction
files, the reports, the ensemble files and their config snapshots.  Every
command runs inside OUT with relative paths, so no output file and no printed
line depends on where the checkout lives: two source trees, or two processes
under different PYTHONHASHSEED values, that print the same lines wrote the
same bytes.

--embeddings writes a seeded word-vector file covering every corpus token and
sets ``embedding_file`` for bilstm and contrastive.

The neural digests follow the OpenBLAS kernel (one numpy wheel holds several
and picks one per CPU), so the kernel's name goes to stderr first; stdout
holds only the digest lines.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from baitline import blas
from baitline import config as cfg
from baitline.cli import run
from baitline.corpus import load_corpus
from baitline.textproc import normalize, tokenize

CORPUS = Path(__file__).resolve().parent.parent / "tests" / "data" / "synthetic60.jsonl"
NEURAL_FAMILIES = ("bilstm", "contrastive", "encoder-head")
PRETRAINED_FAMILIES = ("bilstm", "contrastive")


def write_embedding_config(profile: str, seed: int) -> str:
    """An INI file pointing bilstm and contrastive at word vectors of their
    ``embed_dim``; returns its name."""
    articles = load_corpus(CORPUS.name).articles
    tokens = sorted({token for a in articles for text in (a.title, a.content)
                     for token in tokenize(normalize(text)).word_tokens()})
    lines = []
    for family in PRETRAINED_FAMILIES:
        dim = cfg.build_model_config(family, profile).embed_dim
        vectors = f"vectors-{dim}.txt"
        if not Path(vectors).exists():
            rng = np.random.default_rng(seed)
            with open(vectors, "w", encoding="utf-8") as fh:
                for token in tokens:
                    fh.write(" ".join([token, *(repr(v) for v in rng.uniform(-0.5, 0.5, dim).tolist())]))
                    fh.write("\n")
        lines += [f"[{family}]", f"embedding_file = {vectors}"]
    name = f"embeddings-{profile}.ini"
    Path(name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return name


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", help="output directory; must not exist")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--embeddings", action="store_true",
                        help="initialize bilstm and contrastive from word vectors")
    args = parser.parse_args(argv)
    print(f"OpenBLAS core: {blas.describe()['core']}", file=sys.stderr)
    out = Path(args.out)
    out.mkdir(parents=True)
    shutil.copyfile(CORPUS, out / CORPUS.name)
    os.chdir(out)
    with contextlib.redirect_stdout(sys.stderr):  # the commands' chatter
        for profile in ("desk", "full"):
            flags = ["--config", write_embedding_config(profile, args.seed)] if args.embeddings else []
            commands = []
            for family in cfg.MODEL_FAMILIES:
                run_dir = f"{profile}/{family}"
                epochs = ["--epochs", "1"] if profile == "full" and family in NEURAL_FAMILIES else []
                commands += [
                    ["train", "--model", family, "--corpus", CORPUS.name, "--out", run_dir,
                     "--profile", profile, "--seed", str(args.seed), *flags, *epochs],
                    ["predict", "--model-dir", run_dir, "--corpus", CORPUS.name,
                     "--out", f"{run_dir}.tsv"],
                    ["eval", "--preds", f"{run_dir}.tsv", "--out-dir", f"{run_dir}.eval"],
                ]
            preds = [f"{family}={profile}/{family}.tsv" for family in cfg.MODEL_FAMILIES]
            commands += [
                ["ensemble", "fit", "--preds", *preds, "--out", f"{profile}/ensemble.json"],
                ["ensemble", "apply", "--config", f"{profile}/ensemble.json", "--preds", *preds,
                 "--out", f"{profile}/ensemble.tsv"],
                ["eval", "--preds", f"{profile}/ensemble.tsv", "--out-dir",
                 f"{profile}/ensemble.eval", "--compare", f"{profile}/contrastive.tsv",
                 "--compare-name", "contrastive"],
            ]
            for command in commands:
                code = run(command)
                if code != 0:
                    print(f"error: {' '.join(command)} exited {code}")
                    return code
    for path in sorted(Path(".").rglob("*"), key=Path.as_posix):
        if path.is_file():
            print(f"{sha256(path)}  {path.as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
