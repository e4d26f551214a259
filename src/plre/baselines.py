"""Classical interpolated smoothers: MLE, absolute discounting, KN, modified KN.

All four share one recursion

    P(w | h) = max(c(w,h) - D(c), 0) / c(h) + gamma(h) * P(w | shorter h)

and differ only in which count tables feed each order (raw counts for
mle/abs; at lower orders, distinct-extension type counts for kn/mkn), and in
the discount schedule (zero for mle, one Good-Turing value for abs/kn, the
Chen-Goodman triple for mkn).  gamma(h) carries exactly the discounted mass,
so every smoother is a proper distribution; for a context with zero count the
discounted term vanishes and gamma is 1 (fall through to the shorter
history).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .corpus import CountTable, Key, Vocabulary, adjusted_tables
from .errors import DataError

SMOOTHERS = ("mle", "abs", "kn", "mkn")


def good_turing_discount(n1: int, n2: int) -> float:
    """Good-Turing discount n1/(n1 + 2*n2), clamped to [0.01, 0.99].

    Falls back to 0.5 when the counts-of-counts give a zero denominator.
    """
    denom = n1 + 2 * n2
    d = n1 / denom if denom > 0 else 0.5
    return min(max(d, 0.01), 0.99)


def mkn_discounts(n1: int, n2: int, n3: int, n4: int) -> Tuple[float, float, float]:
    """Chen-Goodman discount triple (D1, D2, D3plus) from counts-of-counts.

    Y = n1/(n1+2n2); Dk = k - (k+1)*Y*n_{k+1}/n_k.  Any term whose formula
    divides by zero falls back to the single Good-Turing discount.  Dk is
    clamped to [0, k] so that discounting a count of k can never go negative.
    """
    fallback = good_turing_discount(n1, n2)
    denom = n1 + 2 * n2
    y = n1 / denom if denom > 0 else None
    d1 = 1.0 - 2.0 * y * n2 / n1 if y is not None and n1 > 0 else fallback
    d2 = 2.0 - 3.0 * y * n3 / n2 if y is not None and n2 > 0 else fallback
    d3 = 3.0 - 4.0 * y * n4 / n3 if y is not None and n3 > 0 else fallback
    return (
        min(max(d1, 0.0), 1.0),
        min(max(d2, 0.0), 2.0),
        min(max(d3, 0.0), 3.0),
    )


def count_of_counts(values: Iterable[int], max_k: int = 4) -> Tuple[int, ...]:
    """(n1, ..., n_max_k): how many entries occur exactly k times."""
    out = [0] * max_k
    for v in values:
        if 1 <= v <= max_k:
            out[v - 1] += 1
    return tuple(out)


@dataclass(frozen=True)
class DiscountParams:
    """Count-dependent discount schedule.

    For abs/kn a single value is used regardless of count; mkn selects by
    count (1, 2, >=3).  The gamma numerator D1*N1(h) + D2*N2(h) + D3*N3plus(h)
    reduces to D*Nplus(h) in the single case, so one query path serves all
    smoothers.
    """

    d1: float
    d2: float
    d3plus: float

    @classmethod
    def single(cls, d: float) -> "DiscountParams":
        return cls(d, d, d)

    def for_count(self, c: int) -> float:
        if c <= 1:
            return self.d1
        if c == 2:
            return self.d2
        return self.d3plus


def make_base_distribution(
    counts: np.ndarray, bos_id: int = Vocabulary.bos_id
) -> np.ndarray:
    """Normalize unigram numerator counts into the base distribution.

    Types (other than bos) with a zero numerator — in practice an unk symbol
    the training data never produced — get a uniform 1/V floor added before
    normalizing, so the base is positive everywhere a prediction can be
    asked for.  bos keeps probability zero: it is never a predicted token.
    When nothing is floored the distribution is exactly counts/total, which
    the marginal-preservation identities rely on.
    """
    numer = np.asarray(counts, dtype=np.float64).copy()
    zero = numer == 0.0
    zero[bos_id] = False
    if zero.any():
        numer[zero] = 1.0 / len(numer)
    return numer / numer.sum()


# Per-context numerator statistics: (total, n_count_1, n_count_2, n_count_3plus).
ContextStats = Tuple[int, int, int, int]


class NgramLM:
    """Interpolated n-gram model for one of the SMOOTHERS kinds.

    Immutable after build; queries are lock-free dict/array lookups.
    """

    def __init__(
        self,
        vocab: Vocabulary,
        order: int,
        smoother: str,
        tables: Dict[int, CountTable],
        discounts: Dict[int, DiscountParams],
    ):
        if smoother not in SMOOTHERS:
            raise ValueError(f"unknown smoother {smoother!r}")
        self.vocab = vocab
        self.order = order
        self.smoother = smoother
        self.tables = tables
        self.discounts = discounts
        self.stats: Dict[int, Dict[Key, ContextStats]] = {
            k: _context_stats(tables[k]) for k in range(2, order + 1)
        }
        self.base_counts = np.zeros(len(vocab), dtype=np.int64)
        for (w,), c in tables[1].entries.items():
            self.base_counts[w] = c
        self.base = make_base_distribution(self.base_counts)

    @classmethod
    def build(
        cls, vocab: Vocabulary, raw_tables: Dict[int, CountTable], smoother: str
    ) -> "NgramLM":
        """Assemble a model from raw per-order count tables.

        kn/mkn replace every order below the top with distinct-extension
        type-count tables derived from the order above; mle/abs keep raw
        counts everywhere.  Discounts come from each order's own
        counts-of-counts (mle: zero).
        """
        order = max(raw_tables)
        if smoother in ("kn", "mkn"):
            # Everything below the top order is derived, so only the raw
            # top-order table is needed.
            tables = adjusted_tables(raw_tables[order])
        else:
            if sorted(raw_tables) != list(range(1, order + 1)):
                raise ValueError("raw_tables must cover orders 1..n")
            tables = dict(raw_tables)
        discounts: Dict[int, DiscountParams] = {}
        for k in range(2, order + 1):
            if smoother == "mle":
                discounts[k] = DiscountParams.single(0.0)
                continue
            n1, n2, n3, n4 = count_of_counts(tables[k].entries.values())
            if smoother == "mkn":
                discounts[k] = DiscountParams(*mkn_discounts(n1, n2, n3, n4))
            else:
                discounts[k] = DiscountParams.single(good_turing_discount(n1, n2))
        return cls(vocab, order, smoother, tables, discounts)

    def prob(self, w: int, context: Sequence[int]) -> float:
        """P(w | context) with context ordered most-recent-first.

        Contexts longer than order-1 are truncated to the most recent words.
        """
        return self._prob(w, tuple(context)[: self.order - 1])

    def score(self, words, contexts) -> np.ndarray:
        """prob() for a batch of words and their context rows."""
        rows = np.asarray(contexts)[:, : self.order - 1].tolist()
        pairs = zip(np.asarray(words).tolist(), rows)
        return np.array([self._prob(w, tuple(h)) for w, h in pairs], dtype=np.float64)

    def _prob(self, w: int, context: Key) -> float:
        if not context:
            return float(self.base[w])
        k = len(context) + 1
        st = self.stats[k].get(context)
        if st is None:
            # Unseen context: gamma = 1, nothing discounted at this order.
            return self._prob(w, context[:-1])
        total, n1, n2, n3p = st
        dp = self.discounts[k]
        c = self.tables[k].entries.get((w,) + context, 0)
        num = max(c - dp.for_count(c), 0.0) if c else 0.0
        gamma = (dp.d1 * n1 + dp.d2 * n2 + dp.d3plus * n3p) / total
        return num / total + gamma * self._prob(w, context[:-1])

    def dist(self, context: Sequence[int]) -> np.ndarray:
        """Full conditional distribution over the vocabulary (for sweeps)."""
        return self._dist(tuple(context)[: self.order - 1])

    def _dist(self, context: Key) -> np.ndarray:
        if not context:
            return self.base.copy()
        k = len(context) + 1
        st = self.stats[k].get(context)
        if st is None:
            return self._dist(context[:-1])
        total, n1, n2, n3p = st
        dp = self.discounts[k]
        gamma = (dp.d1 * n1 + dp.d2 * n2 + dp.d3plus * n3p) / total
        vec = gamma * self._dist(context[:-1])
        for word, c in self.tables[k].by_context()[context]:
            vec[word] += max(c - dp.for_count(c), 0.0) / total
        return vec


def _context_stats(table: CountTable) -> Dict[Key, ContextStats]:
    stats: Dict[Key, ContextStats] = {}
    for context, members in table.by_context().items():
        total = 0
        n1 = n2 = n3p = 0
        for _, c in members:
            total += c
            if c == 1:
                n1 += 1
            elif c == 2:
                n2 += 1
            else:
                n3p += 1
        stats[context] = (total, n1, n2, n3p)
    return stats
