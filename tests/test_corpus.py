"""Vocabulary, counting, and type-count derivation."""

import numpy as np
import pytest

from plre.corpus import (
    BOS,
    EOS,
    UNK,
    CountTable,
    Vocabulary,
    adjusted_tables,
    build_vocabulary,
    continuation_counts,
    continuation_table,
    count_all_orders,
    count_ngrams,
    read_sentences,
)
from plre.errors import DataError, EmptyCorpusError
from plre.synthetic import synthesize_corpus

from conftest import ref_adjusted_counts, ref_raw_counts


class TestVocabulary:
    def test_reserved_ids_are_fixed(self):
        vocab = build_vocabulary([["a", "a"]], unk_threshold=0)
        assert vocab.word_to_id[UNK] == Vocabulary.unk_id == 0
        assert vocab.word_to_id[BOS] == Vocabulary.bos_id == 1
        assert vocab.word_to_id[EOS] == Vocabulary.eos_id == 2

    def test_singleton_replaced_at_threshold_one(self):
        # tokens "a a b", threshold 1: only "a" survives, "b" encodes to unk
        vocab = build_vocabulary([["a", "a", "b"]], unk_threshold=1)
        assert sorted(vocab.id_to_word) == sorted([UNK, BOS, EOS, "a"])
        assert vocab.encode(["a", "b"]) == [vocab.word_to_id["a"], Vocabulary.unk_id]

    def test_threshold_zero_keeps_everything(self):
        vocab = build_vocabulary([["a", "a", "b"]], unk_threshold=0)
        assert "b" in vocab
        assert Vocabulary.unk_id not in vocab.encode(["a", "b"])

    def test_all_pairs_kept_when_each_count_two(self):
        vocab = build_vocabulary([["x", "y", "x", "y", "z", "z"]], unk_threshold=1)
        assert {"x", "y", "z"} <= set(vocab.id_to_word)

    def test_words_sorted_by_frequency_then_first_seen(self):
        vocab = build_vocabulary(
            [["b", "c", "b", "a", "c", "b"]], unk_threshold=0
        )
        # b:3, c:2, a:1 -> ids in that order after the reserved block
        assert vocab.id_to_word[3:] == ["b", "c", "a"]

    def test_unknown_word_encodes_to_unk(self):
        vocab = build_vocabulary([["a", "a"]], unk_threshold=0)
        assert vocab.encode(["never-seen"]) == [Vocabulary.unk_id]

    def test_export_import_round_trip(self, tiny_setup):
        _, vocab, _ = tiny_setup
        clone = Vocabulary.from_export_lines(vocab.export_lines())
        assert clone.id_to_word == vocab.id_to_word
        assert clone.counts == vocab.counts

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            build_vocabulary([], unk_threshold=1)

    def test_corrupt_export_lines_rejected(self):
        with pytest.raises(DataError):
            Vocabulary.from_export_lines(["only-one-field"])


class TestCounting:
    def test_bigrams_of_single_sentence(self):
        # "<s> a b </s>" -> (a|<s>), (b|a), (</s>|b), each once
        vocab = build_vocabulary([["a", "b"]], unk_threshold=0)
        a, b = vocab.encode(["a", "b"])
        table = count_ngrams([[a, b]], 2)
        assert table.entries == {
            (a, Vocabulary.bos_id): 1,
            (b, a): 1,
            (Vocabulary.eos_id, b): 1,
        }
        assert table.total == 3

    def test_unigram_counts_are_type_frequencies(self):
        sents = [[5, 6, 5], [6, 7]]
        table = count_ngrams(sents, 1)
        assert table.entries == {(5,): 2, (6,): 2, (7,): 1, (Vocabulary.eos_id,): 2}
        assert table.total == 7

    def test_order_k_total_counts_one_prediction_per_token_plus_eos(self):
        rng = np.random.default_rng(4)
        sents = [list(rng.integers(3, 20, size=rng.integers(1, 9))) for _ in range(30)]
        for order in (1, 2, 3, 4):
            table = count_ngrams(sents, order)
            assert table.total == sum(len(s) + 1 for s in sents)

    def test_matches_reference_window_counter(self):
        for seed in range(5):
            sents = synthesize_corpus(40, vocab_size=60, n_topics=4, seed=seed)
            vocab = build_vocabulary(sents, 1)
            enc = [vocab.encode(s) for s in sents]
            for order in (2, 3):
                mine = count_ngrams(enc, order).entries
                # reference keys are oldest-first; flip before comparing
                ref = {
                    tuple(reversed(k)): v
                    for k, v in ref_raw_counts(enc, order).items()
                }
                assert mine == ref

    def test_context_totals_group_the_entries(self):
        sents = synthesize_corpus(30, vocab_size=50, n_topics=4, seed=9)
        vocab = build_vocabulary(sents, 1)
        enc = [vocab.encode(s) for s in sents]
        table = count_ngrams(enc, 3)
        keys, counts = table.arrays()
        # arrays() sorts by context, so each context's entries form one run.
        cuts = np.flatnonzero(np.any(keys[1:, 1:] != keys[:-1, 1:], axis=1)) + 1
        for contexts, members in zip(np.split(keys[:, 1:], cuts), np.split(counts, cuts)):
            assert table.context_totals[tuple(contexts[0].tolist())] == members.sum()
        assert sum(table.context_totals.values()) == table.total

    def test_count_all_orders_spans_one_through_n(self):
        table = count_all_orders([[4, 5]], 3)
        assert sorted(table) == [1, 2, 3]
        assert table[3].order == 3

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            count_ngrams([[3]], 0)

    def test_no_sentences_rejected(self):
        with pytest.raises(EmptyCorpusError):
            count_ngrams([], 2)


def _table_from_matrix(mat):
    """Bigram CountTable from a matrix with rows = predicted word."""
    entries = {}
    for i, row in enumerate(mat):
        for j, v in enumerate(row):
            if v:
                entries[(i, j)] = v
    return CountTable(2, entries)


class TestContinuationCounts:
    # the worked 3x3 example: rows are w_i, columns are the preceding word
    B = [[1, 2, 1], [0, 5, 0], [2, 0, 0]]

    def test_row_sums_equal_unigram_counts(self):
        table = _table_from_matrix(self.B)
        row_sums = [0, 0, 0]
        for (w, _), c in table.entries.items():
            row_sums[w] += c
        assert row_sums == [4, 5, 2]

    def test_distinct_predecessor_counts(self):
        table = _table_from_matrix(self.B)
        cont = continuation_counts(table)
        assert [cont.n_minus[(w,)] for w in range(3)] == [3, 1, 1]

    def test_diagonal_matrix_has_single_extensions(self):
        table = _table_from_matrix([[7, 0, 0], [0, 7, 0], [0, 0, 7]])
        cont = continuation_counts(table)
        assert set(cont.n_minus.values()) == {1}
        assert set(cont.n_plus.values()) == {1}

    def test_dense_matrix_extensions_equal_dimension(self):
        k = 4
        table = _table_from_matrix([[1] * k for _ in range(k)])
        cont = continuation_counts(table)
        assert set(cont.n_minus.values()) == {k}
        assert set(cont.n_plus.values()) == {k}

    def test_continuation_of_unigram_rejected(self):
        with pytest.raises(ValueError):
            continuation_table(CountTable(1, {(3,): 2}))


class TestAdjustedTables:
    def test_top_is_raw_and_lower_orders_count_support(self):
        for seed in (0, 1, 2):
            sents = synthesize_corpus(40, vocab_size=60, n_topics=4, seed=seed)
            vocab = build_vocabulary(sents, 1)
            enc = [vocab.encode(s) for s in sents]
            top = count_ngrams(enc, 3)
            mine = adjusted_tables(top)
            ref = ref_adjusted_counts(enc, 3)
            for k in (1, 2, 3):
                flipped = {tuple(reversed(key)): v for key, v in ref[k].items()}
                assert mine[k].entries == flipped

    def test_unigram_level_never_contains_bos(self, toy_top3):
        tabs = adjusted_tables(toy_top3)
        assert (Vocabulary.bos_id,) not in tabs[1].entries


class TestReadSentences:
    def test_skips_blank_lines(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("a b\n\n  \nc\n", encoding="utf-8")
        assert read_sentences(str(p)) == [["a", "b"], ["c"]]

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("\n \n", encoding="utf-8")
        with pytest.raises(EmptyCorpusError):
            read_sentences(str(p))
