"""Classical interpolated smoothers and their discount estimators."""

import numpy as np
import pytest

from plre.baselines import (
    DiscountParams,
    NgramLM,
    count_of_counts,
    good_turing_discount,
    mkn_discounts,
)
from plre.corpus import (
    Vocabulary,
    adjusted_tables,
    build_vocabulary,
    count_all_orders,
    count_ngrams,
)
from plre.levels import make_base_distribution
from plre.synthetic import synthesize_corpus

from conftest import RefInterpolatedLM


class TestGoodTuringDiscount:
    def test_balanced_counts(self):
        assert good_turing_discount(100, 50) == 0.5

    def test_zero_denominator_falls_back(self):
        assert good_turing_discount(0, 0) == 0.5

    def test_skewed_counts(self):
        assert good_turing_discount(30, 10) == pytest.approx(0.6, abs=1e-15)

    def test_clamped_away_from_one(self):
        # n2 = 0 would drive the raw estimate to 1.0
        assert good_turing_discount(7, 0) == 0.99

    def test_clamped_away_from_zero(self):
        assert good_turing_discount(1, 100000) == 0.01


class TestMknDiscounts:
    def test_equal_counts_of_counts(self):
        d1, d2, d3 = mkn_discounts(10, 10, 10, 10)
        assert d1 == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert d2 == pytest.approx(1.0, abs=1e-12)
        assert d3 == pytest.approx(5.0 / 3.0, abs=1e-12)

    def test_descending_counts_of_counts(self):
        d1, d2, d3 = mkn_discounts(2000, 800, 500, 300)
        assert d1 == pytest.approx(5.0 / 9.0, abs=1e-12)
        assert d2 == pytest.approx(23.0 / 24.0, abs=1e-12)
        assert d3 == pytest.approx(5.0 / 3.0, abs=1e-12)

    def test_missing_higher_counts_fall_back(self):
        d1, d2, d3 = mkn_discounts(5, 0, 0, 0)
        # D1's formula survives (its n2/n1 term is just 0); the others
        # fall back to the clamped single discount
        assert d1 == 1.0
        assert d2 == good_turing_discount(5, 0) == 0.99
        assert d3 == 0.99

    def test_clamped_per_count_level(self):
        d1, d2, d3 = mkn_discounts(1, 1000, 1, 1)
        assert 0.0 <= d1 <= 1.0
        assert 0.0 <= d2 <= 2.0
        assert 0.0 <= d3 <= 3.0


def test_count_of_counts_ignores_large_values():
    assert count_of_counts([1, 1, 2, 3, 5, 9]) == (2, 1, 1, 0)
    assert count_of_counts([]) == (0, 0, 0, 0)


def test_discount_params_select_by_count():
    dp = DiscountParams(0.1, 0.2, 0.3)
    assert dp.for_count(1) == 0.1
    assert dp.for_count(2) == 0.2
    assert dp.for_count(3) == dp.for_count(17) == 0.3
    single = DiscountParams.single(0.4)
    assert (single.d1, single.d2, single.d3plus) == (0.4, 0.4, 0.4)


class TestBaseDistribution:
    def test_floor_applies_only_to_zero_count_types(self):
        base = make_base_distribution(np.array([0, 0, 3, 1]))
        # unk got 1/V = 0.25 added; bos stays at zero
        assert base[0] == pytest.approx(0.25 / 4.25, abs=1e-15)
        assert base[1] == 0.0
        assert base[2] == pytest.approx(3.0 / 4.25, abs=1e-15)
        assert base.sum() == pytest.approx(1.0, abs=1e-12)

    def test_no_floor_when_everything_attested(self):
        base = make_base_distribution(np.array([2, 0, 3, 1]))
        assert np.array_equal(base, np.array([2.0, 0.0, 3.0, 1.0]) / 6.0)


def _aab_model(smoother, unk_threshold, discount):
    """Order-2 model over the sentence "a a b" with a pinned discount."""
    sents = [["a", "a", "b"]]
    vocab = build_vocabulary(sents, unk_threshold)
    enc = [vocab.encode(s) for s in sents]
    raw = count_all_orders(enc, 2)
    tables = adjusted_tables(raw[2]) if smoother in ("kn", "mkn") else raw
    return vocab, NgramLM(
        vocab, 2, smoother, tables, {2: DiscountParams.single(discount)}
    )


class TestAbsoluteDiscounting:
    def test_hand_computed_two_term_recursion(self):
        # c(b,a)=1 of c(a)=2; unigram floor puts 1/V on the unseen unk,
        # giving P(b) = 1/4.2:  0.5/2 + 0.5*(1/4.2) = 31/84
        vocab, lm = _aab_model("abs", 0, 0.5)
        b = vocab.word_to_id["b"]
        a = vocab.word_to_id["a"]
        assert lm.prob(b, (a,)) == pytest.approx(31.0 / 84.0, abs=1e-15)

    def test_hand_computed_without_floor(self):
        # threshold 1 sends "b" to unk, so every type is attested and the
        # base is plain relative frequency: 0.5/2 + 0.5*(1/4) = 3/8
        vocab, lm = _aab_model("abs", 1, 0.5)
        a = vocab.word_to_id["a"]
        assert lm.prob(Vocabulary.unk_id, (a,)) == pytest.approx(0.375, abs=1e-15)

    def test_zero_discount_is_mle_for_seen_contexts(self):
        vocab, lm = _aab_model("abs", 0, 0.0)
        a = vocab.word_to_id["a"]
        b = vocab.word_to_id["b"]
        assert lm.prob(b, (a,)) == 0.5
        assert lm.prob(a, (a,)) == 0.5
        assert lm.prob(Vocabulary.eos_id, (a,)) == 0.0

    def test_unseen_context_passes_through_exactly(self, toy_corpus):
        _, vocab, enc = toy_corpus
        lm = NgramLM.build(vocab, count_all_orders(enc, 3), "abs")
        seen = set(lm.levels[3].context_totals)
        ctx = next(
            (a, b)
            for a in range(3, 40)
            for b in range(3, 40)
            if (a, b) not in seen
        )
        for w in (3, 7, Vocabulary.unk_id, Vocabulary.eos_id):
            assert lm.prob(w, ctx) == lm.prob(w, ctx[:1])


class TestKneserNey:
    def test_unigram_is_normalized_continuation_count(self, toy_kn3, toy_top3):
        lm = toy_kn3
        ones = adjusted_tables(toy_top3)[1]
        for (w,), c in list(ones.entries.items())[:50]:
            assert lm.prob(w, ()) == pytest.approx(c / ones.total, abs=1e-15)

    def test_conditionals_sum_to_one(self, toy_kn3, toy_top3):
        lm = toy_kn3
        vsize = len(lm.vocab)
        contexts = [(), (5,), (5, 7), (9999, 3)]
        contexts += list(toy_top3.context_totals)[:10]
        for ctx in contexts:
            total = sum(lm.prob(w, ctx) for w in range(vsize))
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_bigram_marginal_recovers_unigram_frequencies(self, tiny_setup):
        # sum_v c(v) * P(w|v) should reproduce w's raw frequency: the
        # discounted mass D*N(v) re-enters through the continuation base
        sents, vocab, enc = tiny_setup
        bigrams = count_ngrams(enc, 2)
        lm = NgramLM.build(vocab, {2: bigrams}, "kn")
        predicted = {}
        for (w, _), c in bigrams.entries.items():
            predicted[w] = predicted.get(w, 0) + c
        for w, c_w in predicted.items():
            acc = sum(
                c_v * lm.prob(w, v) for v, c_v in bigrams.context_totals.items()
            )
            assert acc == pytest.approx(c_w, abs=1e-10 * bigrams.total)

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(71)
        for seed, order in ((1, 2), (2, 3), (3, 3)):
            sents = synthesize_corpus(35, vocab_size=60, n_topics=4, seed=seed)
            vocab = build_vocabulary(sents, 1)
            enc = [vocab.encode(s) for s in sents]
            lm = NgramLM.build(vocab, {order: count_ngrams(enc, order)}, "kn")
            ref = RefInterpolatedLM(enc, order, len(vocab), "kn")
            for _ in range(200):
                w = int(rng.integers(0, len(vocab)))
                ctx = tuple(
                    int(x)
                    for x in rng.integers(0, len(vocab), size=rng.integers(0, order))
                )
                assert lm.prob(w, ctx) == pytest.approx(
                    ref.prob(w, ctx), abs=1e-12
                )


class TestModifiedKneserNey:
    def test_equal_discounts_collapse_to_plain_kn(self, toy_corpus):
        _, vocab, enc = toy_corpus
        tables = adjusted_tables(count_ngrams(enc, 3))
        d = {k: DiscountParams.single(0.7) for k in (2, 3)}
        kn = NgramLM(vocab, 3, "kn", tables, d)
        mkn = NgramLM(vocab, 3, "mkn", tables, d)
        rng = np.random.default_rng(8)
        for _ in range(300):
            w = int(rng.integers(0, len(vocab)))
            ctx = tuple(int(x) for x in rng.integers(0, len(vocab), size=2))
            assert mkn.prob(w, ctx) == kn.prob(w, ctx)

    def test_conditionals_sum_to_one(self, toy_mkn3, toy_top3):
        lm = toy_mkn3
        vsize = len(lm.vocab)
        for ctx in [(), (4,)] + list(toy_top3.context_totals)[:8]:
            total = sum(lm.prob(w, ctx) for w in range(vsize))
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(73)
        for seed, order in ((4, 2), (5, 3)):
            sents = synthesize_corpus(35, vocab_size=60, n_topics=4, seed=seed)
            vocab = build_vocabulary(sents, 1)
            enc = [vocab.encode(s) for s in sents]
            lm = NgramLM.build(vocab, {order: count_ngrams(enc, order)}, "mkn")
            ref = RefInterpolatedLM(enc, order, len(vocab), "mkn")
            for _ in range(200):
                w = int(rng.integers(0, len(vocab)))
                ctx = tuple(
                    int(x)
                    for x in rng.integers(0, len(vocab), size=rng.integers(0, order))
                )
                assert lm.prob(w, ctx) == pytest.approx(
                    ref.prob(w, ctx), abs=1e-12
                )


class TestModelAssembly:
    def test_every_smoother_normalizes_at_every_order(self, toy_corpus):
        _, vocab, enc = toy_corpus
        rng = np.random.default_rng(12)
        for order in (2, 3, 4):
            raw = count_all_orders(enc, order)
            for smoother in ("mle", "abs", "kn", "mkn"):
                lm = NgramLM.build(vocab, raw, smoother)
                seen = list(raw[order].context_totals)
                picks = [seen[int(i)] for i in rng.integers(0, len(seen), size=5)]
                picks.append(tuple(int(x) for x in rng.integers(0, len(vocab), size=order - 1)))
                for ctx in picks:
                    total = float(lm.dist(ctx).sum())
                    assert total == pytest.approx(1.0, abs=1e-8), (smoother, order)

    def test_dist_agrees_with_prob(self, toy_mkn3, toy_top3):
        lm = toy_mkn3
        ctx = next(iter(toy_top3.context_totals))
        vec = lm.dist(ctx)
        for w in range(0, len(lm.vocab), 37):
            assert vec[w] == pytest.approx(lm.prob(w, ctx), abs=1e-14)

    def test_mle_build_uses_zero_discounts(self, toy_corpus):
        _, vocab, enc = toy_corpus
        lm = NgramLM.build(vocab, count_all_orders(enc, 2), "mle")
        assert lm.discounts[2] == DiscountParams.single(0.0)

    def test_unknown_smoother_rejected(self, toy_corpus):
        _, vocab, enc = toy_corpus
        with pytest.raises(ValueError):
            NgramLM.build(vocab, count_all_orders(enc, 2), "katz")

    def test_missing_orders_rejected(self, toy_corpus):
        _, vocab, enc = toy_corpus
        with pytest.raises(ValueError):
            NgramLM.build(vocab, {3: count_ngrams(enc, 3)}, "abs")
