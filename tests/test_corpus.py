import re

import pytest

from mtlab.corpus import (
    AlignmentError,
    CorpusError,
    CorpusSizeError,
    load_parallel,
    load_tsv,
    read_pairs,
    split,
    subsample,
    write_parallel,
)
from conftest import make_corpus


def write(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_load_parallel_three_lines(tmp_path):
    write(tmp_path / "a.src", ["one", "two", "three"])
    write(tmp_path / "a.tgt", ["eins", "zwei", "drei"])
    corpus = load_parallel(tmp_path / "a.src", tmp_path / "a.tgt")
    assert [p.id for p in corpus] == [0, 1, 2]
    assert corpus.pairs[1].target == "zwei"
    assert corpus.dropped_count == 0


def test_load_parallel_line_count_mismatch(tmp_path):
    write(tmp_path / "a.src", ["1", "2", "3", "4", "5"])
    write(tmp_path / "a.tgt", ["1", "2", "3", "4"])
    with pytest.raises(AlignmentError, match="5.*4"):
        load_parallel(tmp_path / "a.src", tmp_path / "a.tgt")


def test_load_parallel_drops_blank_pairs(tmp_path):
    write(tmp_path / "a.src", ["one", "two", "three"])
    write(tmp_path / "a.tgt", ["eins", "   ", "drei"])
    corpus = load_parallel(tmp_path / "a.src", tmp_path / "a.tgt")
    assert len(corpus) == 2
    assert corpus.dropped_count == 1
    assert [p.id for p in corpus] == [0, 1]


def test_load_parallel_invalid_utf8_names_line(tmp_path):
    src = tmp_path / "a.src"
    src.write_bytes(b"good line\n\xff\xfe broken\n")
    write(tmp_path / "a.tgt", ["x", "y"])
    with pytest.raises(CorpusError, match="line 2"):
        load_parallel(src, tmp_path / "a.tgt")


def test_load_parallel_accepts_crlf(tmp_path):
    (tmp_path / "a.src").write_bytes(b"one\r\ntwo\r\n")
    (tmp_path / "a.tgt").write_bytes(b"eins\nzwei\n")
    corpus = load_parallel(tmp_path / "a.src", tmp_path / "a.tgt")
    assert corpus.pairs[0].source == "one"


def test_write_then_load_round_trips(tmp_path):
    corpus = make_corpus(20)
    write_parallel(corpus, tmp_path / "w.src", tmp_path / "w.tgt")
    again = load_parallel(tmp_path / "w.src", tmp_path / "w.tgt")
    assert [(p.source, p.target) for p in again] == [(p.source, p.target) for p in corpus]
    write_parallel(again, tmp_path / "w2.src", tmp_path / "w2.tgt")
    assert (tmp_path / "w.src").read_bytes() == (tmp_path / "w2.src").read_bytes()
    assert (tmp_path / "w.tgt").read_bytes() == (tmp_path / "w2.tgt").read_bytes()


def test_load_tsv(tmp_path):
    write(tmp_path / "c.tsv", ["one\teins", "two\tzwei"])
    corpus = load_tsv(tmp_path / "c.tsv")
    assert len(corpus) == 2


def test_load_tsv_rejects_extra_tabs(tmp_path):
    write(tmp_path / "c.tsv", ["one\teins\textra"])
    with pytest.raises(CorpusError, match="line 1"):
        load_tsv(tmp_path / "c.tsv")


def test_read_pairs_error_names_path_and_line(tmp_path):
    path = tmp_path / "p.tsv"
    write(path, ["one\teins", "no tab"])
    with pytest.raises(CorpusError, match=re.escape(f"{path}: line 2")):
        read_pairs(path)


def test_read_pairs_empty_file(tmp_path):
    (tmp_path / "e.tsv").write_bytes(b"")
    assert read_pairs(tmp_path / "e.tsv") == []


class TestSplit:
    def test_same_seed_identical(self, corpus100):
        a = split(corpus100, 10, seed=7)
        b = split(corpus100, 10, seed=7)
        assert a.validation.ids() == b.validation.ids()
        assert a.train.ids() == b.train.ids()

    def test_partition(self, corpus100):
        result = split(corpus100, 10, seed=7)
        assert len(result.validation) == 10
        assert result.train.ids() | result.validation.ids() == corpus100.ids()
        assert result.train.ids() & result.validation.ids() == set()

    def test_zero_validation(self, corpus100):
        result = split(corpus100, 0, seed=3)
        assert len(result.validation) == 0
        assert result.train.ids() == corpus100.ids()

    def test_different_seeds_disjoint_from_train(self, corpus100):
        for seed in (7, 8):
            result = split(corpus100, 10, seed=seed)
            assert result.train.ids() & result.validation.ids() == set()
        assert (split(corpus100, 10, 7).validation.ids()
                != split(corpus100, 10, 8).validation.ids())

    def test_too_large_validation(self, corpus100):
        with pytest.raises(CorpusSizeError):
            split(corpus100, 100, seed=1)


class TestSubsample:
    def test_nesting_pairwise(self, corpus100):
        subs = subsample(corpus100, [10, 20, 40], seed=5)
        ids = [c.ids() for c in subs]
        assert ids[0] <= ids[1] <= ids[2]
        assert [len(c) for c in subs] == [10, 20, 40]

    def test_full_size_is_identity(self, corpus100):
        (sub,) = subsample(corpus100, [100], seed=5)
        assert sub.ids() == corpus100.ids()

    def test_exceeding_size_rejected(self, corpus100):
        with pytest.raises(CorpusSizeError):
            subsample(corpus100, [101], seed=5)

    def test_same_seed_same_subsets(self, corpus100):
        a = subsample(corpus100, [10], seed=9)[0]
        b = subsample(corpus100, [10], seed=9)[0]
        assert a.ids() == b.ids()
