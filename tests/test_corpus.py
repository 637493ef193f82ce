import json

import numpy as np
import pytest

from baitline.corpus import (
    Corpus,
    CorpusFormatError,
    Label,
    NewsArticle,
    corpus_stats,
    load_corpus,
    load_split_manifest,
    save_corpus,
    split_by_source,
)

from annotation import AnnotationSet, cohens_kappa, majority_label
from synthetic import generate_topic_pair_corpus

CB = Label.CLICKBAIT
NCB = Label.NON_CLICKBAIT


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def record(i, label="clickbait", source="alfa"):
    return {
        "id": f"r{i}", "title": f"titlu {i}", "content": f"continut {i}.",
        "source": source, "label": label,
    }


class TestLoadCorpus:
    def test_preserves_file_order(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record(0), record(1, "non-clickbait")])
        corpus = load_corpus(path)
        assert len(corpus) == 2
        assert [a.id for a in corpus] == ["r0", "r1"]
        assert corpus.articles[0].label is CB
        assert corpus.articles[1].label is NCB

    def test_unknown_label_names_line_and_value(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record(0), record(1, "maybe")])
        with pytest.raises(CorpusFormatError) as err:
            load_corpus(path)
        assert ":2:" in str(err.value)
        assert "maybe" in str(err.value)

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(record(0)) + "\n{not json\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError) as err:
            load_corpus(path)
        assert ":2:" in str(err.value)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record(0), record(0)])
        with pytest.raises(CorpusFormatError, match="duplicate"):
            load_corpus(path)

    def test_empty_title_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        bad = record(0)
        bad["title"] = "   "
        write_jsonl(path, [bad])
        with pytest.raises(CorpusFormatError, match="title"):
            load_corpus(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        bad = record(0)
        del bad["source"]
        write_jsonl(path, [bad])
        with pytest.raises(CorpusFormatError, match="source"):
            load_corpus(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_corpus(tmp_path / "absent.jsonl")

    def test_mixed_labeling_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        unlabeled = record(1)
        del unlabeled["label"]
        write_jsonl(path, [record(0), unlabeled])
        with pytest.raises(CorpusFormatError, match="mixes"):
            load_corpus(path)

    def test_round_trip_identity(self, tmp_path):
        corpus = generate_topic_pair_corpus(25, seed=5)
        path = tmp_path / "c.jsonl"
        save_corpus(corpus, path)
        loaded = load_corpus(path, name=corpus.name)
        assert loaded.articles == corpus.articles

    def test_round_trip_preserves_tricky_text(self, tmp_path):
        corpus = Corpus(
            (
                NewsArticle(
                    id="u1",
                    title='Șoc "total"\tîn Țară!',
                    content="Primul rând.\nAl doilea rând, cu diacritice: țâșnit.",
                    source="alfa",
                    label=CB,
                ),
            ),
            name="tricky",
        )
        path = tmp_path / "c.jsonl"
        save_corpus(corpus, path)
        assert load_corpus(path).articles == corpus.articles
        assert len(path.read_text(encoding="utf-8").splitlines()) == 1


class TestSplitBySource:
    def test_degenerate_split(self, tiny_corpus):
        one_source = Corpus(
            tuple(a for a in tiny_corpus if a.source == "alfa-news"), name="one"
        )
        train, test = split_by_source(one_source, {"alfa-news"}, set())
        assert len(train) == len(one_source)
        assert len(test) == 0

    def test_unassigned_source_listed(self, tiny_corpus):
        with pytest.raises(ValueError, match="beta-press"):
            split_by_source(tiny_corpus, {"alfa-news"}, set())

    def test_overlap_rejected(self, tiny_corpus):
        with pytest.raises(ValueError, match="both sides"):
            split_by_source(tiny_corpus, {"alfa-news"}, {"alfa-news", "beta-press"})

    def test_partition_property_random_assignments(self):
        corpus = generate_topic_pair_corpus(120, seed=2)
        sources = sorted(corpus.sources())
        rng = np.random.default_rng(3)
        for _ in range(25):
            mask = rng.random(len(sources)) < 0.5
            train_sources = {s for s, m in zip(sources, mask) if m}
            test_sources = set(sources) - train_sources
            train, test = split_by_source(corpus, train_sources, test_sources)
            assert len(train) + len(test) == len(corpus)
            train_ids = {a.id for a in train}
            test_ids = {a.id for a in test}
            assert not (train_ids & test_ids)
            assert train_ids | test_ids == {a.id for a in corpus}
            assert not (train.sources() & test.sources())

    def test_manifest_loading(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"a": "train", "b": "test"}), encoding="utf-8")
        train_sources, test_sources = load_split_manifest(path)
        assert train_sources == {"a"}
        assert test_sources == {"b"}

    def test_manifest_unknown_side(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"a": "dev"}), encoding="utf-8")
        with pytest.raises(CorpusFormatError, match="dev"):
            load_split_manifest(path)


class TestCorpusStats:
    def test_hand_counted_example(self):
        corpus = Corpus(
            (NewsArticle(id="x", title="a b", content="c d e. f g.",
                         source="s", label=CB),),
            name="one",
        )
        stats = corpus_stats(corpus)
        assert stats.total == 1
        assert stats.avg_title_tokens == 2
        assert stats.avg_content_tokens == 5
        assert stats.avg_sentences == 2
        assert stats.sentence_range == (2, 2)
        assert stats.per_source_clickbait_ratio == {"s": 1.0}
        assert stats.token_total == 7

    def test_per_class_sums_to_total_and_ratios_in_range(self):
        corpus = generate_topic_pair_corpus(80, seed=9)
        stats = corpus_stats(corpus)
        assert stats.per_class[CB] + stats.per_class[NCB] == stats.total == 80
        for ratio in stats.per_source_clickbait_ratio.values():
            assert 0.0 <= ratio <= 1.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            corpus_stats(Corpus((), name="empty"))

    def test_unlabeled_corpus_rejected(self):
        corpus = Corpus(
            (NewsArticle(id="x", title="t", content="c.", source="s"),), name="u"
        )
        with pytest.raises(ValueError, match="labeled"):
            corpus_stats(corpus)


class TestMajorityLabel:
    def test_majority_clickbait(self):
        assert majority_label([CB, CB, NCB]) is CB

    def test_singleton(self):
        assert majority_label([NCB]) is NCB

    def test_majority_non_clickbait(self):
        assert majority_label([CB, NCB, NCB]) is NCB

    def test_even_count_rejected(self):
        with pytest.raises(ValueError):
            majority_label([CB, NCB])

    def test_permutation_invariant(self):
        rng = np.random.default_rng(4)
        votes = [CB, CB, NCB, CB, NCB]
        expected = majority_label(votes)
        for _ in range(20):
            shuffled = list(votes)
            rng.shuffle(shuffled)
            assert majority_label(shuffled) is expected


def brute_force_kappa(a, b):
    """Independent contingency-table computation."""
    n = len(a)
    table = np.zeros((2, 2))
    for x, y in zip(a, b):
        table[int(x), int(y)] += 1
    p_o = np.trace(table) / n
    row = table.sum(axis=1) / n
    col = table.sum(axis=0) / n
    p_e = float(row @ col)
    if p_e == 1.0:
        return 1.0
    return (p_o - p_e) / (1 - p_e)


class TestCohensKappa:
    def test_perfect_agreement(self):
        assert cohens_kappa([CB, NCB, CB], [CB, NCB, CB]) == 1.0

    def test_worked_example(self):
        a = [CB] * 5 + [NCB] * 3 + [CB, NCB]
        b = [CB] * 5 + [NCB] * 3 + [NCB, CB]
        kappa = cohens_kappa(a, b)
        assert kappa == pytest.approx((0.8 - 0.52) / 0.48, abs=1e-12)
        assert kappa == pytest.approx(0.5833, abs=1e-4)

    def test_total_disagreement_against_oracle(self):
        a = [CB] * 6
        b = [NCB] * 6
        assert cohens_kappa(a, b) == pytest.approx(brute_force_kappa(a, b), abs=1e-12)
        assert cohens_kappa(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_matches_contingency_oracle_randomly(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            a = [Label(int(v)) for v in rng.integers(0, 2, n)]
            b = [Label(int(v)) for v in rng.integers(0, 2, n)]
            assert cohens_kappa(a, b) == pytest.approx(brute_force_kappa(a, b), abs=1e-12)

    def test_symmetry_and_relabeling_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(2, 25))
            a = [Label(int(v)) for v in rng.integers(0, 2, n)]
            b = [Label(int(v)) for v in rng.integers(0, 2, n)]
            assert cohens_kappa(a, b) == pytest.approx(cohens_kappa(b, a), abs=1e-12)
            flip = {CB: NCB, NCB: CB}
            assert cohens_kappa([flip[x] for x in a], [flip[y] for y in b]) == pytest.approx(
                cohens_kappa(a, b), abs=1e-12
            )

    def test_length_mismatch_and_empty(self):
        with pytest.raises(ValueError):
            cohens_kappa([CB], [CB, NCB])
        with pytest.raises(ValueError):
            cohens_kappa([], [])


class TestAnnotationSet:
    def test_majority_and_mean_kappa(self):
        annotations = AnnotationSet(
            item_ids=("i1", "i2", "i3"),
            annotator_labels=(
                (CB, NCB, CB),
                (CB, NCB, NCB),
                (CB, CB, CB),
            ),
        )
        assert annotations.majority_labels() == [CB, NCB, CB]
        kappas = annotations.pairwise_kappas()
        assert len(kappas) == 3
        assert annotations.mean_pairwise_kappa() == pytest.approx(sum(kappas) / 3)

    def test_misaligned_lists_rejected(self):
        with pytest.raises(ValueError):
            AnnotationSet(item_ids=("i1", "i2"), annotator_labels=((CB,), (CB, NCB)))
