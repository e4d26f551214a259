"""Classical interpolated smoothers: MLE, absolute discounting, KN, modified KN.

All four share one recursion

    P(w | h) = max(c(w,h) - D(c), 0) / c(h) + gamma(h) * P(w | shorter h)

and differ only in which count tables feed each order, all derived from
the top order's raw counts (at lower orders, their marginals for mle/abs and
distinct-extension type counts for kn/mkn), and in
the discount schedule (zero for mle, one Good-Turing value for abs/kn, the
Chen-Goodman triple for mkn).  gamma(h) carries exactly the discounted mass,
so every smoother is a proper distribution; for a context with zero count the
discounted term vanishes and gamma is 1 (fall through to the shorter
history).  Each order is stored as a sorted-array level and scored by the
walk PLRE uses (``levels.LevelModel``): a PLRE level with no intermediate
powers holds exactly these quantities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from .corpus import CountTable, Vocabulary, adjusted_tables, marginal_tables
from .levels import Level, LevelModel, timed

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


def count_of_counts(counts: np.ndarray, max_k: int = 4) -> Tuple[int, ...]:
    """(n1, ..., n_max_k): how many entries occur exactly k times."""
    counts = np.clip(np.asarray(counts, dtype=np.int64), 0, max_k + 1)
    return tuple(np.bincount(counts, minlength=max_k + 2)[1 : max_k + 1].tolist())


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

    def for_count(self, c) -> np.ndarray:
        """The discount of each count in ``c``: d1, d2 or d3plus."""
        return np.where(c <= 1, self.d1, np.where(c == 2, self.d2, self.d3plus))


class NgramLM(LevelModel):
    """Interpolated n-gram model for one of the SMOOTHERS kinds.

    Each order above 1 is a sorted-array level with one gamma row and no
    low-rank tables, so queries go through the walk PLRE uses.  ``tables``
    maps every order 1..n to its CountTable.
    """

    def __init__(
        self,
        vocab: Vocabulary,
        order: int,
        smoother: str,
        tables: Mapping[int, CountTable],
        discounts: Dict[int, DiscountParams],
    ):
        if smoother not in SMOOTHERS:
            raise ValueError(f"unknown smoother {smoother!r}")
        levels = {k: _level(tables[k], discounts[k]) for k in range(2, order + 1)}
        base_counts = np.zeros(len(vocab), dtype=np.int64)
        base_counts[tables[1].words] = tables[1].counts
        super().__init__(vocab, order, levels, base_counts)
        self.smoother = smoother
        self.discounts = discounts

    @classmethod
    def build(
        cls,
        vocab: Vocabulary,
        raw_tables: Dict[int, CountTable],
        smoother: str,
        timings: Optional[Dict[str, float]] = None,
    ) -> "NgramLM":
        """Assemble a model from the top-order raw count table, the highest
        order in ``raw_tables``; every lower order is derived from it.

        kn/mkn take distinct-extension type counts below the top
        (``adjusted_tables``), mle/abs its marginals, which are the raw
        counts (``marginal_tables``).  Discounts come from each order's own
        counts-of-counts (mle: zero).  Seconds per build stage are added
        to ``timings`` (adjusted_tables, discounts).
        """
        top = raw_tables[max(raw_tables)]
        if smoother in ("kn", "mkn"):
            with timed(timings, "adjusted_tables"):
                tables = adjusted_tables(top)
        else:
            tables = marginal_tables(top)
        with timed(timings, "discounts"):
            discounts: Dict[int, DiscountParams] = {}
            for k in range(2, top.order + 1):
                if smoother == "mle":
                    discounts[k] = DiscountParams.single(0.0)
                    continue
                n1, n2, n3, n4 = count_of_counts(tables[k].counts)
                if smoother == "mkn":
                    discounts[k] = DiscountParams(*mkn_discounts(n1, n2, n3, n4))
                else:
                    discounts[k] = DiscountParams.single(good_turing_discount(n1, n2))
            return cls(vocab, top.order, smoother, tables, discounts)


def _level(table: CountTable, dp: DiscountParams) -> Level:
    """One order as a level: numerators max(c - D(c), 0) and the gamma row
    (D1 N1(h) + D2 N2(h) + D3+ N3+(h)) / c(h), with D(c) picked per count."""
    counts, starts = table.counts, table.ctx_start[:-1]
    n1, n2, n3p = (
        np.add.reduceat(kind.astype(np.int64), starts)
        for kind in (counts <= 1, counts == 2, counts > 2)
    )
    gamma = (dp.d1 * n1 + dp.d2 * n2 + dp.d3plus * n3p) / table.totals
    top = np.maximum(counts - dp.for_count(counts), 0.0)
    return Level(table, top, gamma[None])
