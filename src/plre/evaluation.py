"""Held-out evaluation: sentence log-probabilities, perplexity, comparisons.

Log probabilities are natural-log; perplexity is exp of the negative mean
log-probability per predicted token.  eos is predicted, bos never is; test
tokens outside the vocabulary are scored as unk and counted in the report.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
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


# Tokens scored per model.score call (whole sentences, so a little more):
# bounds the scorer's working arrays.
SCORE_CHUNK = 4096


def _sentence_logprobs(model, id_sentences: Sequence[Sequence[int]]) -> List[float]:
    """Natural-log probability of each id sentence, scored in one call.

    Each sentence is padded with order-1 bos ids and one eos id; every real
    token plus eos is predicted from its full-length context.  A probability
    that is not positive and finite is a hard error: every smoother here is
    total over the vocabulary, so a zero or NaN means a broken model, not a
    surprising sentence.
    """
    bos, eos, pad = model.vocab.bos_id, model.vocab.eos_id, model.order - 1
    lengths = np.array([len(ids) + 1 for ids in id_sentences], dtype=np.int64)
    tokens = itertools.chain.from_iterable([*ids, eos] for ids in id_sentences)
    words = np.fromiter(tokens, dtype=np.int32, count=int(lengths.sum()))
    if np.any(words == bos):
        raise EvalError("bos cannot appear as a predicted token")
    # Each sentence is preceded by pad bos ids in the stream the contexts
    # are read from, most recent word first.
    at = np.arange(len(words)) + pad * np.repeat(np.arange(1, len(lengths) + 1), lengths)
    stream = np.full(len(words) + pad * len(lengths), bos, dtype=np.int32)
    stream[at] = words
    contexts = stream[at[:, None] - np.arange(1, pad + 1)]
    probs = model.score(words, contexts)
    bad = np.flatnonzero(~(np.isfinite(probs) & (probs > 0.0)))
    if len(bad):
        i = bad[0]
        raise EvalError(f"probability {probs[i]} for id {words[i]} after {contexts[i]}")
    # Each sentence's log-probabilities are summed in order, as predicted.
    ends = np.cumsum(lengths).tolist()
    return [
        functools.reduce(operator.add, map(math.log, probs[e - n : e].tolist()), 0.0)
        for n, e in zip(lengths.tolist(), ends)
    ]


def log_prob_sentence(model, sentence_ids: Sequence[int]) -> float:
    """Natural-log probability of one id sentence under the model."""
    return _sentence_logprobs(model, [sentence_ids])[0]


def perplexity(model, sentences: Sequence[Sequence[str]]) -> EvalReport:
    """Evaluate token sentences; OOV tokens are mapped to unk and counted."""
    if not sentences:
        raise EvalError("empty test set")
    vocab = model.vocab
    oov = sum(1 for sent in sentences for tok in sent if tok not in vocab)
    total_tokens = sum(len(sent) + 1 for sent in sentences)  # eos predicted too
    sentence_logprobs: List[float] = []
    start = budget = 0
    for i, sent in enumerate(sentences):
        budget += len(sent) + 1
        if budget >= SCORE_CHUNK or i == len(sentences) - 1:
            chunk = [vocab.encode(s) for s in sentences[start : i + 1]]
            sentence_logprobs += _sentence_logprobs(model, chunk)
            start, budget = i + 1, 0
    total_logprob = math.fsum(sentence_logprobs)
    ppl = math.exp(-total_logprob / total_tokens)
    return EvalReport(total_tokens, oov, total_logprob, ppl)


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
