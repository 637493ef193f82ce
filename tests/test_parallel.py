"""The fork-join fan-out of featurization and forest growth: equal to the
serial path at every part count, the serial path's errors, and no process
left behind."""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from baitline import features, parallel
from baitline.classical import tree
from baitline.classical.forest import RandomForestConfig, train_random_forest
from baitline.corpus import Corpus, NewsArticle, save_corpus
from baitline.features import feature_matrix
from baitline.registry import FAMILIES

from synthetic import generate_topic_pair_corpus
from test_classical import per_tree_forest, separable_dataset

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True)
def no_child_left():
    """Every test ends with no child process, reaped or not, and none may hang:
    a test still running after 120 s fails."""

    def expire(signum, frame):
        raise TimeoutError("the test did not end within 120 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def fan_out(monkeypatch):
    """``fan_out(cpus)`` makes every call split into up to ``cpus`` parts, and
    returns the part counts of the ``fork_join`` calls made from then on;
    ``fan_out(1)`` keeps every call serial."""
    calls = []
    fork_join = parallel.fork_join

    def counted(fn, work):
        calls.append(len(work))
        return fork_join(fn, work)

    def force(cpus: int) -> list[int]:
        monkeypatch.setattr("baitline.features.FORK_MIN_CHARS", 1)
        monkeypatch.setattr("baitline.classical.tree.FORK_MIN_ROW_TREES", 1)
        monkeypatch.setattr(parallel, "cpu_count", lambda: cpus)
        monkeypatch.setattr(parallel, "fork_join", counted)
        calls.clear()
        return calls

    return force


def uneven_articles(n: int, seed: int) -> list[NewsArticle]:
    """Topic-pair articles whose contents repeat 1 to 12 times, so that chunks
    balanced by length hold different article counts."""
    rng = np.random.default_rng(seed)
    return [NewsArticle(id=a.id, title=a.title, content=" ".join([a.content] * int(rng.integers(1, 13))),
                        source=a.source, label=a.label)
            for a in generate_topic_pair_corpus(n, seed=seed).articles]


def unscorable(article: NewsArticle) -> NewsArticle:
    """``article`` under another id, with a title of as many characters but no
    word token, so that its LIX is undefined."""
    return NewsArticle(id=f"bad-{article.id}", title="?" * len(article.title),
                       content=article.content, source=article.source, label=article.label)


class TestForkJoin:
    def test_results_in_part_order(self):
        results = parallel.fork_join(lambda k: (k, os.getpid()), [0, 1, 2])
        assert [k for k, _ in results] == [0, 1, 2]
        assert results[0][1] == os.getpid()  # part 0 runs here
        assert len({pid for _, pid in results}) == 3
        assert parallel.fork_join(lambda k: k * 2, [5]) == [10]

    def test_first_exception_in_part_order(self):
        def fail_from_one(k):
            if k:
                raise KeyError(f"part {k}")
            return k

        with pytest.raises(KeyError, match="part 1"):
            parallel.fork_join(fail_from_one, [0, 1, 2])

    def test_failing_part_zero_stops_the_children(self):
        def part(k):
            if k == 0:
                raise ValueError("part 0")
            time.sleep(60)

        start = time.monotonic()
        with pytest.raises(ValueError, match="part 0"):
            parallel.fork_join(part, [0, 1, 2])
        assert time.monotonic() - start < 30

    def test_child_that_exits_without_a_result(self):
        def part(k):
            if k == 1:
                os._exit(3)
            return k

        with pytest.raises(ChildProcessError, match="part 1 of 3 ended without a result"):
            parallel.fork_join(part, [0, 1, 2])

    @pytest.mark.parametrize("forks", [0, 1, 2])
    def test_parts_run_here_when_fork_fails(self, monkeypatch, forks):
        # the first ``forks`` forks succeed, then every one fails as under RLIMIT_NPROC
        fork = os.fork
        made = []

        def limited():
            if len(made) == forks:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            made.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", limited)
        results = parallel.fork_join(lambda k: (k * 3, os.getpid()), [0, 1, 2, 3])
        assert [value for value, _ in results] == [0, 3, 6, 9]
        here = [k for k, (_, pid) in enumerate(results) if pid == os.getpid()]
        assert here == [0, *range(1 + forks, 4)]

        def fail_from_one(k):
            if k:
                raise KeyError(f"part {k}")
            return k

        made.clear()
        with pytest.raises(KeyError, match="part 1"):
            parallel.fork_join(fail_from_one, [0, 1, 2, 3])

    def test_fork_failure_gives_the_serial_features_and_forest(self, fan_out, monkeypatch):
        articles = uneven_articles(12, seed=4)
        X, y = separable_dataset(seed=2)
        config = RandomForestConfig(n_estimators=6, seed=5)
        fan_out(1)
        serial = (feature_matrix(articles), train_random_forest(X, y, config).trees.to_preorder())

        def unavailable():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", unavailable)
        calls = fan_out(3)
        assert feature_matrix(articles).tobytes() == serial[0].tobytes()
        assert train_random_forest(X, y, config).trees.to_preorder() == serial[1]
        assert calls == [3, 3]

    def test_serial_without_fork_or_affinity(self, monkeypatch):
        assert parallel.cpu_count() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "fork")
        assert parallel.cpu_count() == 1
        assert parallel.split([10**9] * 8, 1) == [slice(0, 8)]

    @pytest.mark.parametrize("weights, break_even, cpus, expected", [
        ([1, 1, 1, 1], 2, 4, [(0, 2), (2, 4)]),
        ([1, 1, 1, 1, 1, 1], 1, 3, [(0, 2), (2, 4), (4, 6)]),
        ([1, 1, 1], 0.1, 5, [(0, 1), (1, 2), (2, 3)]),  # at most one item per part
        ([100, 1, 1], 1, 3, [(0, 1), (1, 3)]),  # never an empty slice
        ([1, 1, 100], 1, 2, [(0, 2), (2, 3)]),
        ([5] * 8, 10, 4, [(0, 2), (2, 4), (4, 6), (6, 8)]),
        ([5] * 8, 11, 4, [(0, 3), (3, 5), (5, 8)]),  # 40 holds 11 three times
        ([5] * 8, 41, 4, [(0, 8)]),
        ([5] * 8, 1, 1, [(0, 8)]),
        ([7], 1, 2, [(0, 1)]),
        ([], 1, 2, [(0, 0)]),
    ])
    def test_split_is_contiguous_and_balanced(self, monkeypatch, weights, break_even, cpus, expected):
        monkeypatch.setattr(parallel, "cpu_count", lambda: cpus)
        assert [(s.start, s.stop) for s in parallel.split(weights, break_even)] == expected


class TestFeatureMatrixFanOut:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_bit_equal_to_serial(self, fan_out, seed):
        articles = uneven_articles(37, seed)
        serial_calls = fan_out(1)
        serial = feature_matrix(articles)
        assert serial_calls == [1]
        for cpus in (2, 3, 5):
            calls = fan_out(cpus)
            assert feature_matrix(articles).tobytes() == serial.tobytes()
            assert calls == [cpus]
        calls = fan_out(3)
        assert feature_matrix(articles[:1]).tobytes() == serial[:1].tobytes()
        assert feature_matrix(articles[:2]).tobytes() == serial[:2].tobytes()
        assert calls == [1, 2]

    # (chunk, position in chunk) of each unscorable article, at three chunks:
    # two children fail, part 0 and a child fail, the last child alone fails,
    # and one child fails twice
    @pytest.mark.parametrize("spots", [[(1, 0), (2, 0)], [(0, -1), (2, 1)], [(2, -1)],
                                       [(1, 1), (1, 2)]])
    def test_first_bad_article_in_input_order(self, fan_out, spots):
        articles = uneven_articles(37, 2)
        fan_out(3)
        chunks = parallel.split([len(a.title) + len(a.content) for a in articles], 1)
        assert len(chunks) == 3
        bad = [range(len(articles))[chunks[chunk]][k] for chunk, k in spots]
        for i in bad:
            articles[i] = unscorable(articles[i])
        fan_out(1)
        with pytest.raises(ValueError) as serial:
            feature_matrix(articles)
        assert str(serial.value).startswith(f"article {articles[bad[0]].id!r}: LIX")
        fan_out(3)
        with pytest.raises(ValueError) as fanned:
            feature_matrix(articles)
        assert str(fanned.value) == str(serial.value)

    def test_empty_corpus_error_unchanged(self, fan_out):
        fan_out(3)
        with pytest.raises(ValueError, match="need at least one array"):
            feature_matrix([])


class TestForestFanOut:
    @pytest.mark.parametrize("max_features", ["sqrt", "all"])
    def test_equals_serial_and_per_tree_oracle(self, fan_out, max_features):
        X, y = separable_dataset(seed=3, n_per_class=30, d=5)
        X = np.round(X + np.random.default_rng(4).normal(scale=2.0, size=X.shape), 1)
        config = RandomForestConfig(n_estimators=7, seed=11, max_features=max_features)
        oracle = per_tree_forest(X, y, config)
        for cpus in (1, 2, 3):
            calls = fan_out(cpus)
            trees = train_random_forest(X, y, config).trees
            assert calls == [cpus]
            got = (trees.feature, trees.threshold, trees.left, trees.right, trees.value, trees.roots)
            for a, b in zip(got, oracle, strict=True):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


# Trains and predicts rf and svm at both profiles inside the directory it is
# given, pinned to the CPUs it is given; prints the sha256 of every file
# written and, per function that fanned out, its largest part count.
REPRODUCE = r"""
import hashlib, json, os, sys
from pathlib import Path

from baitline import parallel
from baitline.cli import run

os.sched_setaffinity(0, {int(cpu) for cpu in sys.argv[1].split(",")})
os.chdir(sys.argv[2])
most_parts = {}
fork_join = parallel.fork_join

def counted(fn, work):
    name = fn.__qualname__.split(".")[0]
    most_parts[name] = max(most_parts.get(name, 0), len(work))
    return fork_join(fn, work)

parallel.fork_join = counted
for profile in ("desk", "full"):
    for family in ("rf", "svm"):
        out = f"{profile}/{family}"
        for argv in (["train", "--model", family, "--corpus", "corpus.jsonl", "--out", out,
                      "--profile", profile, "--seed", "3"],
                     ["predict", "--model-dir", out, "--corpus", "corpus.jsonl", "--out", out + ".tsv"]):
            if run(argv) != 0:
                sys.exit(f"{argv} failed")
digests = {path.as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
           for path in sorted(Path(".").rglob("*")) if path.is_file()}
print(json.dumps({"digests": digests, "parts": most_parts}))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="comparing one CPU with several needs at least 2 CPUs")
def test_classical_runs_byte_identical_at_any_cpu_and_blas_thread_count(tmp_path):
    # 90 articles of about 1,300 characters: featurization (over 96,000
    # characters) and both profiles' forests cross their fork gates
    corpus = generate_topic_pair_corpus(270, seed=8).articles
    joined = [NewsArticle(id=a.id, title=a.title, content=" ".join(b.content for b in corpus[i:i + 3]),
                          source=a.source, label=a.label) for i, a in enumerate(corpus[::3])]
    save_corpus(Corpus(tuple(joined), name="joined"), tmp_path / "corpus.jsonl")
    all_cpus = sorted(os.sched_getaffinity(0))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    runs = {}
    for cpus in (all_cpus[:1], all_cpus):
        for blas_threads in ("1", "2"):
            work = tmp_path / f"cpus{len(cpus)}-blas{blas_threads}"
            work.mkdir()
            shutil.copyfile(tmp_path / "corpus.jsonl", work / "corpus.jsonl")
            done = subprocess.run(
                [sys.executable, "-c", REPRODUCE, ",".join(map(str, cpus)), str(work)],
                env={**env, "OPENBLAS_NUM_THREADS": blas_threads}, capture_output=True,
                text=True, timeout=300, check=True)
            runs[work.name] = json.loads(done.stdout.splitlines()[-1])
    parts = {name: record["parts"] for name, record in runs.items()}
    assert parts["cpus1-blas1"] == parts["cpus1-blas2"] == {"feature_matrix": 1, "DecisionTree": 1}
    # unpinned, the largest calls split as far as the CPUs and the gates allow:
    # all articles featurized, and a forest of one bootstrap of every article per tree
    fanned = {"feature_matrix": len(parallel.split([len(a.title) + len(a.content) for a in joined],
                                                   features.FORK_MIN_CHARS)),
              "DecisionTree": max(len(parallel.split([len(joined)] * trees, tree.FORK_MIN_ROW_TREES))
                                  for trees in (FAMILIES["rf"].desk["n_estimators"],
                                                RandomForestConfig().n_estimators))}
    assert min(fanned.values()) > 1
    assert parts[f"cpus{len(all_cpus)}-blas1"] == parts[f"cpus{len(all_cpus)}-blas2"] == fanned
    digests = [record["digests"] for record in runs.values()]
    # the corpus, and per run model.json, config.ini, training.log, the TSV and its snapshot
    assert len(digests[0]) == 21
    assert all(d == digests[0] for d in digests[1:])
