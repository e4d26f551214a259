"""Held-out evaluation: sentence log-probabilities and perplexity.

Log probabilities are natural-log; perplexity is exp of the negative mean
log-probability per predicted token.  eos is predicted, bos never is; test
tokens outside the vocabulary are scored as unk and counted in the report.

P(w | h) depends on h only through its state, its deepest context the model
holds.  Each predicted token is packed, chunk by chunk, into one int64
code: its full-length context (most recent word most significant), then
its word, as base-V digits.  One sort of the stream's codes gives its
distinct n-grams and, one digit shorter, its distinct contexts; each
distinct context is resolved to its state once, and each distinct (state,
word) query is walked once, in sorted order.  Where V**order overflows
int64, a token's code is its state times V plus its word instead, resolved
chunk by chunk.  Each sentence's log-probabilities are still summed left to
right, so the result is bit-identical to scoring every token in text order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .corpus import run_heads
from .errors import EvalError


@dataclass
class EvalReport:
    tokens: int
    oov: int
    total_logprob: float
    perplexity: float
    # distinct (state, word) queries of the whole stream sent to model.walk
    distinct: int = 0
    # tokens by the order of their state, orders 1..n: the order of their
    # deepest observed context plus the predicted word
    context_orders: List[int] = field(default_factory=list)
    # distinct full-length contexts of the stream resolved to states (where
    # V**order overflows int64, the distinct states)
    contexts: int = 0


# Tokens packed per chunk (whole sentences, so a little more), and contexts
# per model.states call and queries per model.walk call: bounds the
# scorer's working arrays beside its few whole-stream ones.
SCORE_CHUNK = 4096


def _packs(model) -> bool:
    """Whether a context and its word fit one int64 code as base-V digits."""
    return len(model.vocab) ** model.order <= 2**63


def _codes(model, ids: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The code of each predicted token of a chunk: ``ids`` holds the
    sentences back to back and ``lengths`` their lengths.  Each sentence is
    padded with order-1 bos ids and one eos id; every real token plus eos
    is predicted from its full-length context, packed most recent word
    first, then the word, as base-V digits (or, where V**order overflows
    int64, the context's state times V plus the word)."""
    vocab = model.vocab
    vsize, bos, eos, pad = len(vocab), vocab.bos_id, vocab.eos_id, model.order - 1
    words = np.insert(ids, np.cumsum(lengths), eos)
    sizes = lengths + 1
    if np.any(words == bos):
        raise EvalError("bos cannot appear as a predicted token")
    if words.min() < 0 or words.max() >= vsize:
        raise EvalError(f"a word id is outside the vocabulary of {vsize}")
    # Each sentence is preceded by pad bos ids in the stream the contexts
    # are read from.
    at = np.arange(len(words)) + pad * np.repeat(np.arange(1, len(sizes) + 1), sizes)
    stream = np.full(len(words) + pad * len(sizes), bos, dtype=np.int64)
    stream[at] = words
    if not _packs(model):
        return model.states(stream[at[:, None] - np.arange(1, pad + 1)]) * vsize + words
    # Horner's rule over the chunk's padded stream, on slices, then the
    # predicted positions.
    code = np.zeros(len(stream) - pad, dtype=np.int64)
    for back in [*range(1, pad + 1), 0]:
        code *= vsize
        code += stream[pad - back : len(stream) - back]
    return code[at - pad]


def _ranks(first: np.ndarray, order: Optional[np.ndarray] = None) -> np.ndarray:
    """Each sorted code's run index, from the runs' ``first`` mask, put
    back through ``order`` (the argsort that sorted the codes) if given, in
    the narrowest unsigned type that holds the number of runs.  It is
    filled SCORE_CHUNK codes at a time, so no other array as long as
    ``first`` is made."""
    ranks = np.empty(len(first), dtype=np.min_scalar_type(np.count_nonzero(first)))
    top = -1
    for lo in range(0, len(first), SCORE_CHUNK):
        run = np.cumsum(first[lo : lo + SCORE_CHUNK]) + top
        ranks[slice(lo, lo + len(run)) if order is None else order[lo : lo + len(run)]] = run
        top = run[-1]
    return ranks


def _dedup(codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct codes, sorted, and each code's index among them in the
    narrowest unsigned type.  ``codes`` is sorted in place and the distinct
    codes are its prefix; besides it, only its argsort and a mask are as
    long."""
    order = codes.argsort()
    codes.sort()
    first = run_heads(codes)
    inverse = _ranks(first, order)
    del order
    distinct = codes[: np.count_nonzero(first)]
    distinct[:] = codes[first]
    return distinct, inverse


def _logprobs(
    model, codes: np.ndarray, sizes: np.ndarray
) -> Tuple[np.ndarray, int, int, List[int]]:
    """Natural-log probability of each sentence, longest first, the numbers
    of distinct queries walked and contexts resolved, and the tokens per
    state order, from the codes of sentences of ``sizes`` tokens back to
    back.  ``codes`` is overwritten.

    A probability that is not positive and finite is a hard error: every
    smoother here is total over the vocabulary, so a zero or NaN means a
    broken model, not a surprising sentence.

    Each array is dropped once used: besides SCORE_CHUNK-sized batches, at
    most the codes, their argsort, a mask and a narrow rank per token are
    live at once.
    """
    vsize = len(model.vocab)
    grams, inverse = _dedup(codes)
    # Sorted n-grams keep each context's in a run: each distinct context is
    # resolved to its state once, in sorted batches.  Where the codes hold
    # state codes, a context key is its state already.
    first = run_heads(grams // vsize)
    state = grams[first] // vsize
    ctx = _ranks(first)
    del first
    if _packs(model):
        digits = vsize ** np.arange(model.order - 2, -1, -1)
        state = np.concatenate(
            [
                model.states(state[lo : lo + SCORE_CHUNK, None] // digits % vsize)
                for lo in range(0, len(state), SCORE_CHUNK)
            ]
        )
    contexts = len(state)
    # Tokens by state order, counted per order: a bincount would copy the
    # tokens' orders as int64.
    depth = np.searchsorted(model.state_start, state, side="right") - 1
    depth = depth.astype(np.min_scalar_type(model.order))[ctx][inverse]
    by_order = [int(np.count_nonzero(depth == k)) for k in range(model.order)]
    del depth
    # Each distinct (state, word) query is walked once, in sorted batches.
    grams %= vsize
    state = state[ctx]
    state *= vsize
    grams += state
    del state, ctx
    distinct, gram_query = _dedup(grams)
    inverse[:] = gram_query[inverse]  # now each token's query
    del gram_query
    probs = np.empty(len(distinct))
    for lo in range(0, len(distinct), SCORE_CHUNK):
        batch = distinct[lo : lo + SCORE_CHUNK]
        probs[lo : lo + len(batch)] = model.walk(batch // vsize, batch % vsize)
    bad = ~(np.isfinite(probs) & (probs > 0.0))
    if bad.any():
        q = inverse[np.flatnonzero(bad[inverse])[0]]  # the first in text order
        state, w = divmod(int(distinct[q]), vsize)
        raise EvalError(f"probability {probs[q]} for id {w} after {model.context(state)}")
    # math.log, not np.log, which differs in the last bit on some inputs;
    # a memoryview yields one Python float at a time.
    logs = np.fromiter(map(math.log, memoryview(probs)), dtype=np.float64, count=len(probs))
    del probs
    # Each sentence's log-probabilities are summed in order, as predicted:
    # position j of every sentence longer than j at once.  Longest first,
    # those sentences are a prefix.
    by_length = np.argsort(-sizes, kind="stable")
    starts = (np.cumsum(sizes) - sizes)[by_length]
    longer = np.searchsorted(-sizes[by_length], -np.arange(sizes.max()))
    sums = np.zeros(len(sizes))
    for j, live in enumerate(longer.tolist()):
        sums[:live] += logs[inverse[starts[:live] + j]]
    return sums, len(distinct), contexts, by_order


def log_prob_sentence(model, sentence_ids: Sequence[int]) -> float:
    """Natural-log probability of one id sentence under the model."""
    ids = np.asarray(sentence_ids, dtype=np.int64)
    codes = _codes(model, ids, np.array([len(ids)]))
    return float(_logprobs(model, codes, np.array([len(codes)]))[0][0])


def perplexity(model, sentences: Sequence[Sequence[str]]) -> EvalReport:
    """Evaluate token sentences; OOV tokens are mapped to unk and counted."""
    if not sentences:
        raise EvalError("empty test set")
    lookup, unk = model.vocab.word_to_id.get, model.vocab.unk_id
    lengths = np.fromiter(map(len, sentences), dtype=np.int64, count=len(sentences))
    ends = np.cumsum(lengths + 1)  # eos predicted too
    codes = np.empty(int(ends[-1]), dtype=np.int64)
    oov = start = 0
    while start < len(sentences):
        # Whole sentences until the chunk holds SCORE_CHUNK tokens.
        done = int(ends[start - 1]) if start else 0
        stop = min(int(np.searchsorted(ends, done + SCORE_CHUNK)) + 1, len(sentences))
        tokens = itertools.chain.from_iterable(sentences[start:stop])
        ids = np.fromiter(
            map(lookup, tokens, itertools.repeat(-1)),
            dtype=np.int64,
            count=int(lengths[start:stop].sum()),
        )
        unknown = ids < 0
        oov += int(np.count_nonzero(unknown))
        ids[unknown] = unk
        codes[done : ends[stop - 1]] = _codes(model, ids, lengths[start:stop])
        start = stop
    sums, distinct, contexts, by_order = _logprobs(model, codes, lengths + 1)
    total_tokens = int(ends[-1])
    total_logprob = math.fsum(sums.tolist())
    ppl = math.exp(-total_logprob / total_tokens)
    return EvalReport(total_tokens, oov, total_logprob, ppl, distinct, by_order, contexts)
