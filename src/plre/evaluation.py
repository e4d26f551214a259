"""Held-out evaluation: sentence log-probabilities, perplexity, comparisons.

Log probabilities are natural-log; perplexity is exp of the negative mean
log-probability per predicted token.  eos is predicted, bos never is; test
tokens outside the vocabulary are scored as unk and counted in the report.

Sentences are scored in chunks of whole sentences.  Within a chunk each
distinct (context, word) query is scored once, in sorted order, and each
sentence's log-probabilities are still summed left to right, so the result
is bit-identical to scoring every token in text order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import EvalError, VocabMismatchError


@dataclass
class EvalReport:
    tokens: int
    oov: int
    total_logprob: float
    perplexity: float
    # (context, word) queries sent to model.score: the distinct ones of each
    # chunk, summed over chunks
    distinct: int = 0


# Tokens scored per model.score call (whole sentences, so a little more):
# bounds the scorer's working arrays.
SCORE_CHUNK = 4096


def _chunk_logprobs(model, ids: np.ndarray, lengths: np.ndarray) -> Tuple[np.ndarray, int]:
    """Natural-log probability of each id sentence of a chunk, longest
    sentence first, and the number of distinct queries scored.

    ``ids`` holds the sentences back to back and ``lengths`` their lengths.
    Each sentence is padded with order-1 bos ids and one eos id; every real
    token plus eos is predicted from its full-length context.  A probability
    that is not positive and finite is a hard error: every smoother here is
    total over the vocabulary, so a zero or NaN means a broken model, not a
    surprising sentence.
    """
    vocab = model.vocab
    vsize, bos, eos, pad = len(vocab), vocab.bos_id, vocab.eos_id, model.order - 1
    words = np.insert(ids, np.cumsum(lengths), eos)
    sizes = lengths + 1
    ends = np.cumsum(sizes)
    if np.any(words == bos):
        raise EvalError("bos cannot appear as a predicted token")
    if words.min() < 0 or words.max() >= vsize:
        raise EvalError(f"a word id is outside the vocabulary of {vsize}")
    # Each sentence is preceded by pad bos ids in the stream the contexts
    # are read from, most recent word first.
    at = np.arange(len(words)) + pad * np.repeat(np.arange(1, len(sizes) + 1), sizes)
    stream = np.full(len(words) + pad * len(sizes), bos, dtype=np.int64)
    stream[at] = words
    contexts = stream[at[:, None] - np.arange(1, pad + 1)]
    # One code per query, most recent context word first and the word last,
    # so sorted codes are queries in suffix order.  A code that could
    # overflow is first replaced by its rank among the codes so far.
    code, bound = np.zeros(len(words), dtype=np.int64), 1
    for column in (*contexts.T, words):
        if bound * vsize > np.iinfo(np.int64).max:
            _, code = np.unique(code, return_inverse=True)
            bound = int(code.max()) + 1
        code, bound = code * vsize + column, bound * vsize
    _, inverse = np.unique(code, return_inverse=True)
    query = np.empty(int(inverse.max()) + 1, dtype=np.int64)
    query[inverse] = np.arange(len(code))  # a token asking each distinct query
    probs = model.score(words[query], contexts[query])
    bad = ~(np.isfinite(probs) & (probs > 0.0))
    if bad.any():
        i = np.flatnonzero(bad[inverse])[0]
        raise EvalError(f"probability {probs[inverse[i]]} for id {words[i]} after {contexts[i]}")
    # math.log, not np.log, which differs in the last bit on some inputs.
    logs = np.fromiter(map(math.log, probs.tolist()), dtype=np.float64, count=len(probs))[inverse]
    # Each sentence's log-probabilities are summed in order, as predicted:
    # position j of every sentence longer than j at once.  Longest first,
    # those sentences are a prefix.
    by_length = np.argsort(-sizes, kind="stable")
    starts = (ends - sizes)[by_length]
    longer = np.searchsorted(-sizes[by_length], -np.arange(sizes.max()))
    sums = np.zeros(len(sizes))
    for j, live in enumerate(longer.tolist()):
        sums[:live] += logs[starts[:live] + j]
    return sums, len(query)


def log_prob_sentence(model, sentence_ids: Sequence[int]) -> float:
    """Natural-log probability of one id sentence under the model."""
    ids = np.asarray(sentence_ids, dtype=np.int64)
    return float(_chunk_logprobs(model, ids, np.array([len(ids)]))[0][0])


def perplexity(model, sentences: Sequence[Sequence[str]]) -> EvalReport:
    """Evaluate token sentences; OOV tokens are mapped to unk and counted."""
    if not sentences:
        raise EvalError("empty test set")
    lookup, unk = model.vocab.word_to_id.get, model.vocab.unk_id
    lengths = np.fromiter(map(len, sentences), dtype=np.int64, count=len(sentences))
    ends = np.cumsum(lengths + 1)  # eos predicted too
    sums: List[np.ndarray] = []
    oov = distinct = start = 0
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
        chunk_sums, chunk_distinct = _chunk_logprobs(model, ids, lengths[start:stop])
        sums.append(chunk_sums)
        distinct += chunk_distinct
        start = stop
    total_tokens = int(ends[-1])
    total_logprob = math.fsum(np.concatenate(sums).tolist())
    ppl = math.exp(-total_logprob / total_tokens)
    return EvalReport(total_tokens, oov, total_logprob, ppl, distinct)


def order_sweep(
    models_by_order: Dict[int, Tuple[object, object]],
    sentences: Sequence[Sequence[str]],
) -> List[dict]:
    """Relative perplexity improvement of a candidate over a baseline per order.

    ``models_by_order`` maps order -> (baseline model, candidate model); both
    must share a vocabulary.  Improvement is (baseline - candidate)/baseline
    in percent, positive when the candidate is better.
    """
    rows = []
    for order in sorted(models_by_order):
        baseline, candidate = models_by_order[order]
        if baseline.vocab.id_to_word != candidate.vocab.id_to_word:
            raise VocabMismatchError(f"order {order}: models use different vocabularies")
        base_report = perplexity(baseline, sentences)
        cand_report = perplexity(candidate, sentences)
        rows.append(
            {
                "order": order,
                "baseline_perplexity": base_report.perplexity,
                "candidate_perplexity": cand_report.perplexity,
                "improvement_pct": 100.0
                * (base_report.perplexity - cand_report.perplexity)
                / base_report.perplexity,
            }
        )
    return rows
