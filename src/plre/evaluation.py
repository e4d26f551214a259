"""Held-out evaluation: sentence log-probabilities and perplexity.

Log probabilities are natural-log; perplexity is exp of the negative mean
log-probability per predicted token.  eos is predicted, bos never is; test
tokens outside the vocabulary are scored as unk and counted in the report.

P(w | h) depends on h only through its state, its deepest context the model
holds.  Each token is resolved to its state chunk by chunk; each distinct
(state, word) query of the whole stream is then scored once, in sorted
order, and each sentence's log-probabilities are still summed left to
right, so the result is bit-identical to scoring every token in text order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

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


# Tokens resolved to states per chunk (whole sentences, so a little more),
# and queries per model.walk call: bounds the scorer's working arrays.
SCORE_CHUNK = 4096


def _codes(model, ids: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The query code, state times V plus word, of each predicted token of
    a chunk: ``ids`` holds the sentences back to back and ``lengths`` their
    lengths.  Each sentence is padded with order-1 bos ids and one eos id;
    every real token plus eos is predicted from its full-length context."""
    vocab = model.vocab
    vsize, bos, eos, pad = len(vocab), vocab.bos_id, vocab.eos_id, model.order - 1
    words = np.insert(ids, np.cumsum(lengths), eos)
    sizes = lengths + 1
    if np.any(words == bos):
        raise EvalError("bos cannot appear as a predicted token")
    if words.min() < 0 or words.max() >= vsize:
        raise EvalError(f"a word id is outside the vocabulary of {vsize}")
    # Each sentence is preceded by pad bos ids in the stream the contexts
    # are read from, most recent word first.
    at = np.arange(len(words)) + pad * np.repeat(np.arange(1, len(sizes) + 1), sizes)
    stream = np.full(len(words) + pad * len(sizes), bos, dtype=np.int64)
    stream[at] = words
    return model.states(stream[at[:, None] - np.arange(1, pad + 1)]) * vsize + words


def _logprobs(model, codes: np.ndarray, sizes: np.ndarray) -> Tuple[np.ndarray, int, List[int]]:
    """Natural-log probability of each sentence, longest first, the number
    of distinct queries scored and the tokens per state order, from the
    query codes of sentences of ``sizes`` tokens back to back.  ``codes``
    is overwritten.

    A probability that is not positive and finite is a hard error: every
    smoother here is total over the vocabulary, so a zero or NaN means a
    broken model, not a surprising sentence.
    """
    vsize = len(model.vocab)
    # A token's distinct query is its code's rank among the distinct codes.
    order = codes.argsort()
    codes.sort()
    first = np.r_[True, codes[1:] != codes[:-1]]
    distinct = codes[first]
    by_order = np.diff(np.searchsorted(codes, model.state_start * vsize)).tolist()
    codes[:] = first
    np.cumsum(codes, out=codes)  # in place: from the bool mask it would copy
    codes -= 1
    inverse = np.empty(len(codes), dtype=np.min_scalar_type(len(distinct)))
    inverse[order] = codes
    del order, first
    logs = np.empty(len(distinct))  # probabilities until checked
    for lo in range(0, len(distinct), SCORE_CHUNK):
        batch = distinct[lo : lo + SCORE_CHUNK]
        logs[lo : lo + len(batch)] = model.walk(batch // vsize, batch % vsize)
    bad = ~(np.isfinite(logs) & (logs > 0.0))
    if bad.any():
        q = inverse[np.flatnonzero(bad[inverse])[0]]  # the first in text order
        state, w = divmod(int(distinct[q]), vsize)
        raise EvalError(f"probability {logs[q]} for id {w} after {model.context(state)}")
    # math.log, not np.log, which differs in the last bit on some inputs.
    for lo in range(0, len(logs), SCORE_CHUNK):
        logs[lo : lo + SCORE_CHUNK] = list(map(math.log, logs[lo : lo + SCORE_CHUNK].tolist()))
    # Each sentence's log-probabilities are summed in order, as predicted:
    # position j of every sentence longer than j at once.  Longest first,
    # those sentences are a prefix.
    by_length = np.argsort(-sizes, kind="stable")
    starts = (np.cumsum(sizes) - sizes)[by_length]
    longer = np.searchsorted(-sizes[by_length], -np.arange(sizes.max()))
    sums = np.zeros(len(sizes))
    for j, live in enumerate(longer.tolist()):
        sums[:live] += logs[inverse[starts[:live] + j]]
    return sums, len(distinct), by_order


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
    sums, distinct, by_order = _logprobs(model, codes, lengths + 1)
    total_tokens = int(ends[-1])
    total_logprob = math.fsum(sums.tolist())
    ppl = math.exp(-total_logprob / total_tokens)
    return EvalReport(total_tokens, oov, total_logprob, ppl, distinct, by_order)
