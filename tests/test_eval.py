"""Perplexity evaluation."""

import math
import tracemalloc

import numpy as np
import pytest

from plre import ensemble, evaluation, levels
from plre.baselines import NgramLM
from plre.corpus import Vocabulary, build_vocabulary, count_all_orders, count_ngrams
from plre.ensemble import build_plre
from plre.errors import EvalError
from plre.evaluation import log_prob_sentence, perplexity
from plre.synthetic import synthesize_corpus

from conftest import RefInterpolatedLM, sequential_logprobs, sequential_perplexity


class _StubModel:
    """Fixed-probability model: enough surface for the eval layer."""

    def __init__(self, vocab, order=2, special=None):
        self.vocab = vocab
        self.order = order
        self.special = special or {}
        # one state, the empty context, for every query
        self.state_start = np.array([0] + [1] * order)

    def states(self, contexts):
        return np.zeros(len(contexts), dtype=np.int64)

    def walk(self, states, words):
        return np.array([self.special.get(w, 1.0 / len(self.vocab)) for w in words.tolist()])


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
        # a after a and eos after a both score 0; the message names the
        # first in text order, though eos (id 2) sorts first
        with pytest.raises(EvalError, match=rf"^probability 0\.0 for id {a} after \[{a}\]$"):
            log_prob_sentence(lm, [a, a])

    def test_word_id_outside_the_vocabulary_rejected(self, toy_kn3):
        with pytest.raises(EvalError, match="outside the vocabulary"):
            log_prob_sentence(toy_kn3, [5, len(toy_kn3.vocab)])
        with pytest.raises(EvalError, match="outside the vocabulary"):
            log_prob_sentence(toy_kn3, [-1])


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
        assert perplexity(ensemble, test).perplexity < perplexity(kn, test).perplexity

    def test_empty_test_set_rejected(self, toy_kn3):
        with pytest.raises(EvalError):
            perplexity(toy_kn3, [])


def _spy_walks(monkeypatch, model):
    """Record the (states, words) of every model.walk call."""
    calls = []
    walk = model.walk

    def spy(states, words, counter=None):
        calls.append((np.array(states), np.array(words)))
        return walk(states, words, counter)

    monkeypatch.setattr(model, "walk", spy)
    return calls


def _spy_states(monkeypatch, model):
    """Record the context rows of every model.states call, as tuples."""
    rows = []
    states = model.states

    def spy(contexts):
        rows.append([tuple(h) for h in np.asarray(contexts).tolist()])
        return states(contexts)

    monkeypatch.setattr(model, "states", spy)
    return rows


def _walked_codes(model, calls):
    """Each walked query's code, state times V plus word, in Python
    integers, in the order walked."""
    vsize = len(model.vocab)
    return [
        s * vsize + w for states, words in calls for s, w in zip(states.tolist(), words.tolist())
    ]


@pytest.fixture(scope="module")
def toy_models(toy_corpus):
    """Every smoother at orders 2-4 on the toy corpus, built on first use."""
    _, vocab, encoded = toy_corpus
    built = {}

    def get(smoother, order):
        if (smoother, order) not in built:
            top = count_ngrams(encoded, order)
            built[smoother, order] = (
                build_plre(top, vocab, seed=0)
                if smoother == "plre"
                else NgramLM.build(vocab, {order: top}, smoother)
            )
        return built[smoother, order]

    return get


@pytest.fixture(scope="module")
def heldout_with_oov(toy_corpus):
    """Training sentences, unseen ones with OOV words, and one sentence
    many times over."""
    train, vocab, _ = toy_corpus
    unseen = synthesize_corpus(60, vocab_size=400, n_topics=8, seed=12)
    assert any(t not in vocab for s in unseen for t in s)
    return train[:40] + unseen + [train[3]] * 20


class TestChunkedScoring:
    @pytest.mark.parametrize("chunk", [1, 5, evaluation.SCORE_CHUNK])
    @pytest.mark.parametrize("order", [2, 3, 4])
    @pytest.mark.parametrize("smoother", ["mle", "abs", "kn", "mkn", "plre"])
    def test_bit_identical_to_sequential_scoring(
        self, monkeypatch, toy_corpus, toy_models, heldout_with_oov, smoother, order, chunk
    ):
        model = toy_models(smoother, order)
        # mle gives unseen events probability 0, so it reads its training text
        test = toy_corpus[0] if smoother == "mle" else heldout_with_oov
        monkeypatch.setattr(evaluation, "SCORE_CHUNK", chunk)
        got, want = perplexity(model, test), sequential_perplexity(model, test)
        assert (got.tokens, got.oov) == (want.tokens, want.oov)
        assert got.total_logprob.hex() == want.total_logprob.hex()
        assert got.perplexity.hex() == want.perplexity.hex()
        assert 0 < got.distinct <= got.tokens

    @pytest.mark.parametrize("order", [2, 3, 4])
    @pytest.mark.parametrize("smoother", ["abs", "kn", "mkn", "plre"])
    def test_each_sentence_bit_identical_to_sequential_scoring(
        self, toy_models, heldout_with_oov, smoother, order
    ):
        # per sentence, before the exact total rounds a last-bit difference
        # in one log (np.log against math.log, say) away
        model = toy_models(smoother, order)
        got = [log_prob_sentence(model, model.vocab.encode(s)) for s in heldout_with_oov]
        want = sequential_logprobs(model, heldout_with_oov)
        assert [x.hex() for x in got] == [x.hex() for x in want]

    def test_order_8_state_codes_fit_int64(self, monkeypatch, toy_corpus, heldout_with_oov):
        # order 8 contexts would pack 8 ids, and V^8 > 2^63; a state code
        # is bounded by (contexts + 1) * V instead
        _, vocab, encoded = toy_corpus
        assert len(vocab) ** 8 > 2**63
        model = NgramLM.build(vocab, {8: count_ngrams(encoded, 8)}, "kn")
        want = sequential_perplexity(model, heldout_with_oov)
        calls = _spy_walks(monkeypatch, model)
        got = perplexity(model, heldout_with_oov)
        assert (got.tokens, got.oov) == (want.tokens, want.oov)
        assert got.total_logprob.hex() == want.total_logprob.hex()
        assert got.perplexity.hex() == want.perplexity.hex()
        codes = _walked_codes(model, calls)
        assert codes == sorted(set(codes))
        assert codes[-1] < int(model.state_start[-1]) * len(vocab) < 2**63
        # the context keys are states here
        states = {_deepest(model, h) for s in heldout_with_oov for h, _ in _token_queries(model, s)}
        assert got.contexts == len(states)

    def test_each_call_scores_distinct_queries_in_sorted_order(
        self, monkeypatch, toy_kn3, heldout_with_oov
    ):
        monkeypatch.setattr(evaluation, "SCORE_CHUNK", 64)
        calls = _spy_walks(monkeypatch, toy_kn3)
        report = perplexity(toy_kn3, heldout_with_oov)
        assert len(calls) > 1
        assert all(len(words) <= 64 for _, words in calls)
        # sorted and distinct across calls too: once per stream
        codes = _walked_codes(toy_kn3, calls)
        assert codes == sorted(set(codes))
        assert report.distinct == len(codes)

    def test_a_repeated_sentence_is_scored_once(self, monkeypatch, toy_kn3, toy_corpus):
        sentence = toy_corpus[0][3]
        calls = _spy_walks(monkeypatch, toy_kn3)
        report = perplexity(toy_kn3, [sentence] * 50)
        assert len(calls) == 1
        assert len(calls[0][0]) == report.distinct == len(_state_queries(toy_kn3, sentence))
        assert report.tokens == 50 * (len(sentence) + 1)

    def test_a_sentence_repeated_across_chunks_is_scored_once(
        self, monkeypatch, toy_kn3, toy_corpus
    ):
        sentence = toy_corpus[0][3]
        assert len(sentence) + 1 > 5  # one sentence per chunk
        monkeypatch.setattr(evaluation, "SCORE_CHUNK", 5)
        calls = _spy_walks(monkeypatch, toy_kn3)
        report = perplexity(toy_kn3, [sentence] * 50)
        codes = _walked_codes(toy_kn3, calls)
        assert len(codes) == report.distinct == len(_state_queries(toy_kn3, sentence))

    @pytest.mark.parametrize("chunk", [5, evaluation.SCORE_CHUNK])
    def test_each_distinct_context_is_resolved_once(
        self, monkeypatch, toy_kn3, heldout_with_oov, chunk
    ):
        monkeypatch.setattr(evaluation, "SCORE_CHUNK", chunk)
        calls = _spy_states(monkeypatch, toy_kn3)
        report = perplexity(toy_kn3, heldout_with_oov)
        want = {h for s in heldout_with_oov for h, _ in _token_queries(toy_kn3, s)}
        rows = [h for call in calls for h in call]
        assert len(rows) == len(set(rows)) == report.contexts == len(want)
        assert set(rows) == want
        assert max(map(len, calls)) <= chunk
        # a sentence repeated, each copy in a chunk of its own at 5, adds none
        sentence = heldout_with_oov[-1]
        assert len(sentence) + 1 > 5
        calls.clear()
        again = perplexity(toy_kn3, heldout_with_oov + [sentence] * 30)
        assert sum(map(len, calls)) == again.contexts == len(want)


# Peak tracemalloc bytes per held-out token of the scorer on the stream of
# test_scorer_memory_per_token_is_bounded read 25.51 (kn) and 29.61 (plre).
# The bounds are the figures of a scorer that resolved every token's
# context on its own, 27.61 and 33.77, plus under 20%.
PEAK_BYTES_PER_TOKEN = {"kn": 33.0, "plre": 40.0}


@pytest.mark.parametrize("smoother", sorted(PEAK_BYTES_PER_TOKEN))
def test_scorer_memory_per_token_is_bounded(toy_models, smoother):
    # 65,689 tokens, 34,495 distinct queries: the whole-stream arrays (a
    # code, an argsort, a mask and a narrow rank per token) and the
    # SCORE_CHUNK batches make the peak
    model = toy_models(smoother, 3)
    stream = synthesize_corpus(4000, vocab_size=400, n_topics=8, seed=13)
    perplexity(model, stream)  # lazily built model arrays are not the scorer's
    tracemalloc.start()
    try:
        report = perplexity(model, stream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.tokens == 65_689
    assert peak / report.tokens <= PEAK_BYTES_PER_TOKEN[smoother]


class TestStates:
    @pytest.mark.parametrize("order", [2, 3, 4])
    @pytest.mark.parametrize("smoother", ["mle", "abs", "kn", "mkn", "plre"])
    def test_probability_depends_only_on_the_deepest_observed_context(
        self, toy_models, smoother, order
    ):
        model = toy_models(smoother, order)
        vsize, pad = len(model.vocab), order - 1
        rng = np.random.default_rng(order)
        n = 600
        # observed top-order contexts with some words replaced by unseen,
        # bos, unk and out-of-range ids
        contexts = model.levels[order].contexts[rng.integers(len(model.levels[order].contexts), size=n)]
        odd = rng.choice([-7, -1, Vocabulary.bos_id, Vocabulary.unk_id, vsize, vsize + 3], size=(n, pad))
        poke = rng.random((n, pad)) < 0.25
        contexts = np.where(poke, odd, contexts)
        contexts[: n // 4] = rng.integers(0, vsize, size=(n // 4, pad))  # mostly unseen
        words = rng.integers(0, vsize, size=n)
        cut = np.full_like(contexts, -1)
        for i, h in enumerate(contexts.tolist()):
            deepest = _deepest(model, tuple(h))
            cut[i, : len(deepest)] = deepest
        assert model.score(words, contexts).tobytes() == model.score(words, cut).tobytes()

    @pytest.mark.parametrize("order", [2, 3, 4])
    @pytest.mark.parametrize("smoother", ["kn", "plre"])
    def test_context_orders_count_each_token_by_its_deepest_context(
        self, toy_models, heldout_with_oov, smoother, order
    ):
        model = toy_models(smoother, order)
        report = perplexity(model, heldout_with_oov)
        want = [0] * order
        for sentence in heldout_with_oov:
            for h, _ in _token_queries(model, sentence):
                want[len(_deepest(model, h))] += 1
        assert report.context_orders == want
        assert sum(report.context_orders) == report.tokens


WALK_MODELS = ("plre-rank1", "plre-rank3", "kn")


@pytest.fixture(scope="module")
def walk_models(toy_corpus):
    """PLRE at rank 1 or 3 with two powers at every order, and kn, at
    orders 2-4 on the toy corpus, built on first use."""
    _, vocab, encoded = toy_corpus
    built = {}

    def get(kind, order):
        if (kind, order) not in built:
            top = count_ngrams(encoded, order)
            if kind == "kn":
                built[kind, order] = NgramLM.build(vocab, {order: top}, "kn")
            else:
                rank = int(kind[-1])
                built[kind, order] = build_plre(
                    top,
                    vocab,
                    powers={k: (0.6, 0.3) for k in range(2, order + 1)},
                    ranks={k: (rank, rank) for k in range(2, order + 1)},
                    seed=0,
                )
        return built[kind, order]

    return get


def _every_order_batch(model, rng):
    """A shuffled (states, words) batch with states of every order, each
    several times: observed entries (sparse and low-rank hits), the same
    states with random words, the empty context, and repeated queries."""
    states, words = [np.zeros(6, dtype=np.int64)], [rng.integers(0, len(model.vocab), 6)]
    for k in range(2, model.order + 1):
        level = model.levels[k]
        entries = rng.integers(0, len(level.keys), 12)
        ctx = np.repeat(level.ctx_of_entry[entries], 2)
        states.append(model.state_start[k - 1] + ctx)
        words.append(np.stack([level.keys[entries, 0], rng.integers(0, len(model.vocab), 12)], 1).ravel())
    states, words = np.concatenate(states), np.concatenate(words)
    again = rng.integers(0, len(states), 10)
    states, words = np.append(states, states[again]), np.append(words, words[again])
    shuffle = rng.permutation(len(states))
    return states[shuffle], words[shuffle]


class TestWalk:
    @pytest.mark.parametrize("order", [3, 4])
    @pytest.mark.parametrize("kind", WALK_MODELS)
    def test_each_level_is_searched_once_per_batch(self, monkeypatch, walk_models, kind, order):
        model = walk_models(kind, order)
        rng = np.random.default_rng(order)
        states, words = _every_order_batch(model, rng)
        searches = []
        find = levels._find

        def spy(table, codes):
            searches.append(len(codes))
            return find(table, codes)

        for module in (levels, ensemble):  # wherever a search is looked up
            monkeypatch.setattr(module, "_find", spy, raising=False)
        model.walk(states, words)
        # one entry search per level, and the order-2 low-rank rows (the
        # base's words); every other low-rank lookup reuses a level's search
        low_rank_rows = 1 if model.levels[2].z_tables else 0
        assert len(searches) <= (order - 1) + low_rank_rows
        assert all(n <= len(states) for n in searches)
        searches.clear()
        top = model.levels[order].contexts
        model.states(top[rng.integers(0, len(top), 50)])
        assert len(searches) == order - 1

    @pytest.mark.parametrize("order", [2, 3, 4])
    @pytest.mark.parametrize("kind", WALK_MODELS)
    def test_a_shuffled_batch_is_answered_in_input_order(self, walk_models, kind, order):
        model = walk_models(kind, order)
        if kind == "plre-rank3":
            assert max(z.ranks.max() for lv in model.levels.values() for z in lv.z_tables) > 1
        states, words = _every_order_batch(model, np.random.default_rng(10 + order))
        assert np.any(states[1:] < states[:-1])
        given = (states.copy(), words.copy())
        got = model.walk(states, words)
        want = [model.walk(states[i : i + 1], words[i : i + 1])[0] for i in range(len(states))]
        assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]
        assert np.array_equal(states, given[0]) and np.array_equal(words, given[1])

    @pytest.mark.parametrize("smoother", ["mle", "abs", "kn", "mkn"])
    def test_an_order_one_model_is_its_base_distribution(self, toy_corpus, smoother):
        # no levels: every query, walked, scored or in a perplexity, is
        # answered by the base distribution alone
        sentences, vocab, encoded = toy_corpus
        model = NgramLM.build(vocab, {1: count_ngrams(encoded, 1)}, smoother)
        assert model.levels == {}
        rng = np.random.default_rng(1)
        words = rng.integers(0, len(vocab), 40)
        states = model.states(np.zeros((40, 0), dtype=np.int64))
        assert not states.any()
        assert np.array_equal(model.walk(states, words), model.base[words])
        assert np.array_equal(model.score(words, np.zeros((40, 0), dtype=np.int64)), model.base[words])
        assert np.array_equal(model.dist(), model.base)
        assert model.prob(int(words[0])) == model.base[words[0]]
        report = perplexity(model, sentences[:20])
        assert report.perplexity.hex() == sequential_perplexity(model, sentences[:20]).perplexity.hex()


def _deepest(model, h):
    """The longest prefix of context ``h`` (most recent word first) that a
    level holds, read from the levels' context totals."""
    for k in range(model.order, 1, -1):
        if h[: k - 1] in model.levels[k].context_totals:
            return h[: k - 1]
    return ()


def _token_queries(model, sentence):
    """(full context, word) of each predicted token of a sentence."""
    vocab, pad = model.vocab, model.order - 1
    ids = [vocab.bos_id] * pad + vocab.encode(sentence) + [vocab.eos_id]
    return [(tuple(ids[i - pad : i][::-1]), ids[i]) for i in range(pad, len(ids))]


def _state_queries(model, sentence):
    """The distinct (deepest observed context, word) queries of a sentence."""
    return {(_deepest(model, h), w) for h, w in _token_queries(model, sentence)}
