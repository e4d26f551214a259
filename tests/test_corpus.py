"""Vocabulary, counting, and type-count derivation."""

import numpy as np
import pytest

from collections import Counter

from plre.baselines import NgramLM
from plre.container import load_model, save_model
from plre.corpus import (
    BOS,
    EOS,
    RADIX,
    UNK,
    Vocabulary,
    adjusted_tables,
    build_vocabulary,
    count_all_orders,
    count_ngrams,
    marginal_tables,
    read_sentences,
    run_heads,
)
from plre.ensemble import build_plre
from plre.errors import DataError, EmptyCorpusError
from plre.synthetic import synthesize_corpus

from conftest import count_table, ref_adjusted_counts, ref_raw_counts


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

    def test_words_alone_rebuild_the_vocabulary(self, tiny_setup):
        # a vocabulary is its words in id order: no counts ride along
        _, vocab, _ = tiny_setup
        clone = Vocabulary(vocab.id_to_word)
        assert clone.word_to_id == vocab.word_to_id
        assert not hasattr(vocab, "counts")

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            build_vocabulary([], unk_threshold=1)

    @pytest.mark.parametrize(
        "words",
        [["a", UNK, BOS, EOS], [BOS, UNK, EOS], [UNK, BOS, EOS, "a", "a"], [UNK, BOS, EOS, EOS]],
    )
    def test_unreserved_start_or_duplicate_word_rejected(self, words):
        with pytest.raises(DataError):
            Vocabulary(words)

    def test_reserved_symbols_in_text_keep_their_ids(self):
        vocab = build_vocabulary([["a", EOS, "a", UNK, "b"]], unk_threshold=0)
        assert vocab.id_to_word == [UNK, BOS, EOS, "a", "b"]


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
        keys, counts = table.keys, table.counts
        # Keys are sorted by context, so each context's entries form one run.
        cuts = np.flatnonzero(np.any(keys[1:, 1:] != keys[:-1, 1:], axis=1)) + 1
        for contexts, members in zip(np.split(keys[:, 1:], cuts), np.split(counts, cuts)):
            assert table.context_totals[tuple(contexts[0].tolist())] == members.sum()
        assert sum(table.context_totals.values()) == table.total

    def test_ids_whose_ngram_space_exceeds_int64(self):
        # With ids near 3e6, V^3 > 2^63: packing a trigram into one int64
        # code would overflow, so counting must compare the ids themselves.
        rng = np.random.default_rng(12)
        big = 3_000_000 + rng.integers(0, 6, size=4000)
        cuts = np.sort(rng.choice(np.arange(1, len(big)), size=300, replace=False))
        sents = [s.tolist() for s in np.split(big, cuts)]
        assert (int(big.max()) + 1) ** 3 > 2**63
        table = count_ngrams(sents, 3)
        ref = Counter()
        for sent in sents:
            padded = [Vocabulary.bos_id] * 2 + sent + [Vocabulary.eos_id]
            ref.update(tuple(padded[i - j] for j in range(3)) for i in range(2, len(padded)))
        assert table.entries == dict(ref)
        assert list(table.entries) == sorted(ref, key=lambda key: (key[1:], key[0]))

    def test_count_all_orders_spans_one_through_n(self):
        table = count_all_orders([[4, 5]], 3)
        assert sorted(table) == [1, 2, 3]
        assert table[3].order == 3

    def test_count_all_orders_equals_each_order_counted_on_its_own(self, toy_corpus):
        # the lower orders are the top order's marginals: same keys and
        # counts as counting each order over the corpus
        _, _, enc = toy_corpus
        for n in (1, 2, 3, 4):
            tables = count_all_orders(enc, n)
            for k in range(1, n + 1):
                ref = count_ngrams(enc, k)
                for field in ("keys", "counts"):
                    mine, theirs = getattr(tables[k], field), getattr(ref, field)
                    assert mine.dtype == theirs.dtype, (n, k, field)
                    assert np.array_equal(mine, theirs), (n, k, field)

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            count_ngrams([[3]], 0)

    def test_no_sentences_rejected(self):
        with pytest.raises(EmptyCorpusError):
            count_ngrams([], 2)


def _big_id_sentences():
    """300 sentences of 4,000 ids in all, each near 3e6: the corpus of
    ``test_ids_whose_ngram_space_exceeds_int64``."""
    rng = np.random.default_rng(12)
    big = 3_000_000 + rng.integers(0, 6, size=4000)
    cuts = np.sort(rng.choice(np.arange(1, len(big)), size=300, replace=False))
    return [s.tolist() for s in np.split(big, cuts)]


def _table_from_matrix(mat):
    """Bigram CountTable from a matrix with rows = predicted word."""
    entries = {}
    for i, row in enumerate(mat):
        for j, v in enumerate(row):
            if v:
                entries[(i, j)] = v
    return count_table(2, entries)


class TestContinuationCounts:
    # the worked 3x3 example: rows are w_i, columns are the preceding word
    B = [[1, 2, 1], [0, 5, 0], [2, 0, 0]]

    def test_row_sums_equal_unigram_counts(self):
        table = _table_from_matrix(self.B)
        row_sums = [0, 0, 0]
        for (w, _), c in table.entries.items():
            row_sums[w] += c
        assert row_sums == [4, 5, 2]

    # N-(w): the continuation counts of the unigram table one order down.
    # N+(h): the entries of context h, one run of the sorted keys.

    def test_distinct_predecessor_counts(self):
        n_minus = adjusted_tables(_table_from_matrix(self.B))[1].entries
        assert [n_minus[(w,)] for w in range(3)] == [3, 1, 1]

    def test_diagonal_matrix_has_single_extensions(self):
        table = _table_from_matrix([[7, 0, 0], [0, 7, 0], [0, 0, 7]])
        assert set(adjusted_tables(table)[1].entries.values()) == {1}
        assert set(np.diff(table.ctx_start).tolist()) == {1}

    def test_dense_matrix_extensions_equal_dimension(self):
        k = 4
        table = _table_from_matrix([[1] * k for _ in range(k)])
        assert set(adjusted_tables(table)[1].entries.values()) == {k}
        assert set(np.diff(table.ctx_start).tolist()) == {k}


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

    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_each_derived_order_equals_the_dict_oracle(self, toy_corpus, order):
        # adjusted: distinct one-word-older extensions; marginal: raw counts
        _, _, enc = toy_corpus
        top = count_ngrams(enc, order)
        marginals = {k: ref_raw_counts(enc, k) for k in range(1, order + 1)}
        for derive, ref in (
            (adjusted_tables, ref_adjusted_counts(enc, order)),
            (marginal_tables, marginals),
        ):
            tables = derive(top)
            assert sorted(tables) == list(range(1, order + 1))
            for k, table in tables.items():
                want = {tuple(reversed(key)): v for key, v in ref[k].items()}
                assert table.entries == want, (derive.__name__, k)
                assert list(table.entries) == sorted(want, key=lambda key: (key[1:], key[0]))
                assert table.keys.dtype == table.counts.dtype == np.int64

    def test_unigram_level_never_contains_bos(self, toy_top3):
        tabs = adjusted_tables(toy_top3)
        assert (Vocabulary.bos_id,) not in tabs[1].entries


def _oracle_codes(entries):
    """The trie codes of one order's table from its most-recent-first tuple
    keys alone: each order's contexts (this order's, cut short) sorted as
    tuples and numbered, a context coded by its parent's number and its
    oldest word, an entry by its context's number and its word."""
    order = len(next(iter(entries)))
    keys = sorted(entries, key=lambda key: (key[1:], key[0]))
    contexts = {m: sorted({key[1:m] for key in keys}) for m in range(1, order + 1)}
    row = {m: {h: i for i, h in enumerate(hs)} for m, hs in contexts.items()}
    trie = [[0]] + [
        [row[m - 1][h[:-1]] * RADIX + h[-1] for h in contexts[m]] for m in range(2, order + 1)
    ]
    totals = Counter()
    for key in keys:
        totals[key[1:]] += entries[key]
    return {
        "trie": trie,
        "ctx_code": trie[-1],
        "parent": [row[max(order - 1, 1)][h[:-1]] for h in contexts[order]],
        "entry_code": [row[order][key[1:]] * RADIX + key[0] for key in keys],
        "counts": [entries[key] for key in keys],
        "totals": [totals[h] for h in contexts[order]],
    }


class _Sized:
    """A vocabulary of n ids, as far as a model build reads one: its length."""

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n


class TestTrieCodes:
    @pytest.mark.parametrize("corpus", ["toy", "ids-near-3e6"])
    def test_every_level_equals_the_tuple_oracle(self, toy_corpus, corpus):
        # PLRE at orders 2-5 and kn at order 8: each level's codes, parents,
        # counts and totals, and the base, from the adjusted tuple tables
        if corpus == "toy":
            _, vocab, enc = toy_corpus
        else:
            enc = _big_id_sentences()
            vocab = _Sized(3_000_006)
        for smoother, order in [("plre", 2), ("plre", 3), ("plre", 4), ("plre", 5), ("kn", 8)]:
            top = count_ngrams(enc, order)
            if smoother == "plre":
                model = build_plre(top, vocab, seed=0)
            else:
                model = NgramLM.build(vocab, {order: top}, smoother)
            ref = ref_adjusted_counts(enc, order)
            for k, level in model.levels.items():
                want = _oracle_codes({tuple(reversed(key)): c for key, c in ref[k].items()})
                assert [codes.tolist() for codes in level.trie] == want["trie"], (order, k)
                for field in ("ctx_code", "parent", "entry_code", "counts", "totals"):
                    assert getattr(level, field).tolist() == want[field], (order, k, field)
            words = np.flatnonzero(model.base_counts)
            assert dict(zip(words.tolist(), model.base_counts[words].tolist())) == {
                w: c for (w,), c in ref[1].items()
            }

    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_a_loaded_plre_model_has_the_built_arrays(self, toy_corpus, tmp_path, order):
        _, vocab, enc = toy_corpus
        built = build_plre(count_ngrams(enc, order), vocab, seed=0)
        save_model(built, str(tmp_path / "m.plre"))
        loaded = load_model(str(tmp_path / "m.plre"))
        assert loaded.base_counts.tobytes() == built.base_counts.tobytes()
        for k, level in built.levels.items():
            other = loaded.levels[k]
            pairs = list(zip(level.trie, other.trie)) + [
                (getattr(level, name), getattr(other, name))
                for name in (
                    "entry_code",
                    "ctx_of_entry",
                    "words",
                    "parent",
                    "ctx_start",
                    "counts",
                    "totals",
                    "top",
                    "gammas",
                )
            ]
            for z, zz in zip(level.z_tables, other.z_tables):
                lay, other_lay = z.layout, zz.layout
                pairs += [(z.ranks, zz.ranks), (z.L, zz.L), (z.R, zz.R)]
                pairs += [(z.denominators, zz.denominators)]
                pairs += [(getattr(lay, n), getattr(other_lay, n)) for n in vars(lay) if n != "lower"]
            assert len(other.trie) == len(level.trie) == k
            assert len(other.z_tables) == len(level.z_tables)
            for a, b in pairs:
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), k


@pytest.mark.parametrize("size,high", [(0, 2), (1, 3), (40, 1), (40, 2), (40, 5)])
def test_run_heads_marks_the_first_of_each_run(size, high):
    values = np.random.default_rng(7).integers(0, high, size=size)
    want = [i == 0 or values[i] != values[i - 1] for i in range(size)]
    assert run_heads(values).tolist() == want


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
