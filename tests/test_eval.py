"""Perplexity evaluation and model comparison."""

import math

import numpy as np
import pytest

from plre.baselines import NgramLM
from plre.corpus import Vocabulary, build_vocabulary, count_all_orders, count_ngrams
from plre.ensemble import build_plre
from plre.errors import EvalError, VocabMismatchError
from plre.evaluation import log_prob_sentence, order_sweep, perplexity
from plre.synthetic import synthesize_corpus

from conftest import RefInterpolatedLM


class _StubModel:
    """Fixed-probability model: enough surface for the eval layer."""

    def __init__(self, vocab, order=2, special=None):
        self.vocab = vocab
        self.order = order
        self.special = special or {}

    def prob(self, w, context):
        return self.special.get(w, 1.0 / len(self.vocab))

    def score(self, words, contexts):
        return np.array([self.prob(w, h) for w, h in zip(words, contexts)])


def _uniform4():
    vocab = build_vocabulary([["a"]], unk_threshold=0)
    assert len(vocab) == 4
    return _StubModel(vocab)


class TestLogProbSentence:
    def test_uniform_model_charges_log_v_per_position(self):
        model = _uniform4()
        a = model.vocab.word_to_id["a"]
        # one real token plus eos
        assert log_prob_sentence(model, [a]) == pytest.approx(
            2.0 * math.log(0.25), abs=1e-15
        )

    def test_sentences_add(self, toy_kn3):
        lm = toy_kn3
        s1 = lm.vocab.encode("the cat sat".split())
        s2 = lm.vocab.encode("a dog".split())
        both = log_prob_sentence(lm, s1) + log_prob_sentence(lm, s2)
        report = perplexity(lm, ["the cat sat".split(), "a dog".split()])
        assert report.total_logprob == both

    def test_matches_reference_smoother(self, tiny_setup):
        sents, vocab, enc = tiny_setup
        lm = NgramLM.build(vocab, {2: count_ngrams(enc, 2)}, "kn")
        ref = RefInterpolatedLM(enc, 2, len(vocab), "kn")
        for ids in enc[:10]:
            padded = [Vocabulary.bos_id] + ids + [Vocabulary.eos_id]
            want = sum(
                math.log(ref.prob(padded[i], (padded[i - 1],)))
                for i in range(1, len(padded))
            )
            assert log_prob_sentence(lm, ids) == pytest.approx(want, abs=1e-12)

    def test_bos_in_sentence_rejected(self, toy_kn3):
        with pytest.raises(EvalError):
            log_prob_sentence(toy_kn3, [Vocabulary.bos_id, 5])

    def test_zero_probability_is_a_hard_error(self):
        # an MLE model assigns zero to an unseen continuation of a seen
        # context, which the eval layer must refuse to paper over
        vocab = build_vocabulary([["a", "b"]], unk_threshold=0)
        enc = [vocab.encode(["a", "b"])]
        lm = NgramLM.build(vocab, count_all_orders(enc, 2), "mle")
        a = vocab.word_to_id["a"]
        with pytest.raises(EvalError):
            log_prob_sentence(lm, [a, a])


class TestPerplexity:
    def test_uniform_model_gives_vocabulary_size(self):
        model = _uniform4()
        report = perplexity(model, [["a"], ["a", "a", "a"]])
        assert report.perplexity == 4.0
        assert report.tokens == 6
        assert report.oov == 0

    def test_memorized_sentence_scores_one(self):
        sent = ["a", "b", "c"]
        vocab = build_vocabulary([sent], unk_threshold=0)
        enc = [vocab.encode(sent)]
        lm = NgramLM.build(vocab, count_all_orders(enc, 4), "mle")
        report = perplexity(lm, [sent])
        assert report.perplexity == 1.0

    def test_oov_tokens_counted_and_scored_as_unk(self, toy_kn3):
        lm = toy_kn3
        known = lm.vocab.id_to_word[3:5]
        sent = [known[0], "zzz-not-a-word", known[1], "qqq-also-not"]
        report = perplexity(lm, [sent])
        oov_by_hand = sum(1 for t in sent if t not in lm.vocab)
        assert report.oov == oov_by_hand == 2
        direct = log_prob_sentence(lm, lm.vocab.encode(sent))
        assert report.total_logprob == direct

    def test_invariant_under_test_set_permutation(self, toy_kn3, tiny_sentences):
        fwd = perplexity(toy_kn3, tiny_sentences)
        rev = perplexity(toy_kn3, list(reversed(tiny_sentences)))
        assert fwd.perplexity == rev.perplexity
        assert fwd.total_logprob == rev.total_logprob

    def test_probability_one_padding_cannot_raise_perplexity(self):
        # tokens "a"/eos score 1.0, "b" scores 0.5 under the stub: adding
        # an all-ones sentence dilutes the charge per token
        vocab = build_vocabulary([["a", "b"]], unk_threshold=0)
        b = vocab.word_to_id["b"]
        model = _StubModel(vocab, special={b: 0.5})
        model.special.update({vocab.word_to_id["a"]: 1.0, Vocabulary.eos_id: 1.0})
        before = perplexity(model, [["b"]])
        after = perplexity(model, [["b"], ["a"]])
        assert before.perplexity == pytest.approx(2.0 ** 0.5, abs=1e-12)
        assert after.perplexity == pytest.approx(2.0 ** 0.25, abs=1e-12)
        assert after.perplexity <= before.perplexity

    def test_report_consistency(self, toy_mkn3, tiny_sentences):
        report = perplexity(toy_mkn3, tiny_sentences)
        assert report.perplexity == pytest.approx(
            math.exp(-report.total_logprob / report.tokens), abs=1e-12
        )
        assert report.perplexity >= 1.0
        assert report.oov <= report.tokens

    def test_empty_test_set_rejected(self, toy_kn3):
        with pytest.raises(EvalError):
            perplexity(toy_kn3, [])


class TestOrderSweep:
    def test_identical_models_show_zero_improvement(self, toy_kn3, tiny_sentences):
        rows = order_sweep({3: (toy_kn3, toy_kn3)}, tiny_sentences)
        assert len(rows) == 1
        assert rows[0]["order"] == 3
        assert rows[0]["improvement_pct"] == 0.0
        assert rows[0]["baseline_perplexity"] == rows[0]["candidate_perplexity"]

    def test_rows_sorted_by_order(self, toy_kn3, toy_mkn3, tiny_sentences):
        rows = order_sweep(
            {3: (toy_kn3, toy_kn3), 2: (toy_mkn3, toy_mkn3)}, tiny_sentences
        )
        assert [r["order"] for r in rows] == [2, 3]

    def test_low_rank_ensemble_beats_kn_on_sparse_bigrams(self):
        # wide vocabulary relative to corpus size keeps bigram counts
        # sparse, which is where the smoothed low-rank term helps
        train = synthesize_corpus(900, vocab_size=900, n_topics=10, seed=101)
        test = synthesize_corpus(120, vocab_size=900, n_topics=10, seed=202)
        vocab = build_vocabulary(train, 1)
        enc = [vocab.encode(s) for s in train]
        top2 = count_ngrams(enc, 2)
        kn = NgramLM.build(vocab, {2: top2}, "kn")
        ensemble = build_plre(top2, vocab, seed=0)
        rows = order_sweep({2: (kn, ensemble)}, test)
        assert rows[0]["improvement_pct"] > 0.0
        assert rows[0]["candidate_perplexity"] < rows[0]["baseline_perplexity"]

    def test_vocabulary_mismatch_rejected(self, toy_kn3, tiny_setup):
        _, vocab, enc = tiny_setup
        other = NgramLM.build(vocab, {2: count_ngrams(enc, 2)}, "kn")
        with pytest.raises(VocabMismatchError):
            order_sweep({2: (toy_kn3, other)}, [["the", "cat"]])
