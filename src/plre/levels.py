"""Sorted-array n-gram levels and the one query walk every model shares.

A model of order n keeps one level per order n, n-1, ..., 2 over a unigram
base distribution.  A level is one sorted-array table (the layout of
KenLM, Heafield, WMT 2011): keys sorted by context, then word, carrying
the sparse term's numerators ``top``, one row of hand-off weights per chain
step in ``gammas`` and, for PLRE, one low-rank table per intermediate step.
Interpolated Kneser-Ney and the other classical smoothers are levels with
one gamma row and no low-rank tables.  One vectorized walk,
``LevelModel.score``, answers every query of every model.
"""

from __future__ import annotations

from collections import abc
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .corpus import Key, Vocabulary


class OpCounter:
    """Counts multiply-adds spent in low-rank lookups (query-cost probe)."""

    __slots__ = ("muladds",)

    def __init__(self):
        self.muladds = 0


def _segments(sizes: np.ndarray) -> np.ndarray:
    """CSR offsets of consecutive runs with the given sizes."""
    return np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)


def _find(table: np.ndarray, codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(position, found) of each code in a strictly increasing code table."""
    if len(table) == 0:
        return np.zeros(len(codes), dtype=np.int64), np.zeros(len(codes), dtype=bool)
    pos = np.minimum(np.searchsorted(table, codes), len(table) - 1)
    return pos, table[pos] == codes


def _strictly_increasing(codes: np.ndarray, what: str) -> None:
    if np.any(codes[1:] <= codes[:-1]):
        raise ValueError(f"{what} must be sorted and unique")


def context_starts(keys: np.ndarray) -> np.ndarray:
    """CSR offsets of the runs of equal contexts (``keys[:, 1:]``) in keys
    sorted by context."""
    change = np.flatnonzero(np.any(keys[1:, 1:] != keys[:-1, 1:], axis=1)) + 1
    return np.concatenate(([0], change, [len(keys)])).astype(np.int64)


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


class ContextTotals(abc.Mapping):
    """Read-only view of one level's context totals, keyed by context tuple."""

    def __init__(self, level: "Level"):
        self._level = level

    def __len__(self) -> int:
        return len(self._level.totals)

    def __iter__(self) -> Iterator[Key]:
        return map(tuple, self._level.contexts.tolist())

    def __getitem__(self, context: Key) -> int:
        level = self._level
        if len(context) != level.order - 1:
            raise KeyError(context)
        idx, found = level.find(np.asarray([context], dtype=np.int64))[-1]
        if not found[0]:
            raise KeyError(context)
        return int(level.totals[idx[0]])


@dataclass(eq=False)
class Level:
    """One order's table as sorted arrays.

    ``keys`` (n x order, most-recent-first) are sorted by context, then
    word, and carry ``counts`` and the sparse term's ``top`` numerators.
    Context c, derived from the keys, owns entries ``ctx_start[c]:
    ctx_start[c+1]``; ``totals``, ``gammas`` rows (one per chain step, the
    last one the hand-off to the order below) and each low-rank table's
    ``denominators`` are aligned with the contexts.  A context is coded as
    its parent's index one order lower times V plus its oldest word.
    """

    order: int
    keys: np.ndarray
    counts: np.ndarray
    top: np.ndarray
    gammas: np.ndarray
    z_tables: List

    def __post_init__(self):
        self.keys = self.keys.astype(np.int64)  # as the low-rank tables' ids
        n, k = len(self.keys), self.order
        shapes = (self.keys.shape, self.counts.shape, self.top.shape)
        if n == 0 or shapes != ((n, k), (n,), (n,)):
            raise ValueError(f"order {k}: table arrays disagree in length")
        self.ctx_start = context_starts(self.keys)
        self.contexts = self.keys[self.ctx_start[:-1], 1:]
        self.totals = np.add.reduceat(self.counts, self.ctx_start[:-1])
        m = len(self.contexts)
        if self.gammas.shape != (len(self.z_tables) + 1, m) or any(
            z.denominators.shape != (m,) for z in self.z_tables
        ):
            raise ValueError(f"order {k}: gamma/z tables disagree with keys")
        self.ctx_of_entry = np.repeat(np.arange(m), np.diff(self.ctx_start))

    @property
    def context_totals(self) -> ContextTotals:
        return ContextTotals(self)

    def link(self, lower: Optional["Level"], vsize: int) -> None:
        """Index this level through the level one order lower (None at
        order 2, whose contexts all extend the empty context)."""
        self.lower = lower
        self.vsize = vsize

        def parents(interiors: np.ndarray) -> np.ndarray:
            if lower is None:
                return np.zeros(len(interiors), dtype=np.int64)
            idx, found = lower.find(interiors)[-1]
            if not found.all():
                raise ValueError(f"order {self.order}: a context has no lower-order parent")
            return idx

        ctx_parent = parents(self.contexts[:, :-1])
        self.ctx_code = ctx_parent * vsize + self.contexts[:, -1]
        _strictly_increasing(self.ctx_code, f"order {self.order} contexts")
        self.entry_code = self.ctx_of_entry * vsize + self.keys[:, 0]
        _strictly_increasing(self.entry_code, f"order {self.order} keys")
        for z in self.z_tables:
            z.link(parents(z.slices), ctx_parent, self.contexts[:, -1], vsize)

    def find(self, contexts: np.ndarray) -> List[Tuple[np.ndarray, np.ndarray]]:
        """(index, found) of the rows of ``contexts`` (n x order-1) and of
        their prefixes, one per order from the empty context up to this one."""
        n = len(contexts)
        root = [(np.zeros(n, dtype=np.int64), np.ones(n, dtype=bool))]
        chain = self.lower.find(contexts[:, :-1]) if self.lower else root
        parent, found = chain[-1]
        oldest = contexts[:, -1]
        pos, hit = _find(self.ctx_code, parent * self.vsize + oldest)
        return chain + [(pos, hit & found & (oldest >= 0) & (oldest < self.vsize))]

    def terms(
        self, ctx: np.ndarray, words: np.ndarray, counter: Optional[OpCounter] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(level value, gamma hand-off) for a batch of words after the
        level's contexts ``ctx``."""
        pos, hit = _find(self.entry_code, ctx * self.vsize + words)
        value = np.where(hit, self.top[pos], 0.0) / self.totals[ctx]
        g = self.gammas[0, ctx]
        for j, z in enumerate(self.z_tables):
            value += g * z.values(ctx, words, counter)
            g = g * self.gammas[j + 1, ctx]
        return value, g

    def column(self, ctx: int) -> Tuple[np.ndarray, float]:
        """(level value over the vocabulary, gamma hand-off) for one of the
        level's contexts: its CSR row and one factor block per chain step."""
        lo, hi = self.ctx_start[ctx : ctx + 2].tolist()
        vec = np.zeros(self.vsize)
        vec[self.keys[lo:hi, 0]] = self.top[lo:hi] / self.totals[ctx]
        gammas = self.gammas[:, ctx].tolist()
        g = gammas[0]
        for j, z in enumerate(self.z_tables):
            s = int(z.ctx_slice[ctx])
            if s >= 0:
                rows, _, L, R = z.factors(s)
                vec[rows] += (g / z.denominators[ctx]) * (L @ R[:, z.ctx_col[ctx]])
            g *= gammas[j + 1]
        return vec, g


class LevelModel:
    """Levels for orders n..2 over the unigram base, queried by one walk."""

    def __init__(self, vocab: Vocabulary, order: int, levels, base_counts: np.ndarray):
        self.vocab = vocab
        self.order = order
        self.levels = levels
        self.base_counts = np.asarray(base_counts, dtype=np.int64)
        self.base = make_base_distribution(self.base_counts)
        lower = None
        for k in range(2, order + 1):
            levels[k].link(lower, len(vocab))
            lower = levels[k]

    def count_arrays(self) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
        """(keys, counts) of every order 1..n, sorted by context then word:
        the base's nonzero unigram counts, then each level's table."""
        words = np.flatnonzero(self.base_counts)
        out = {1: (words[:, None], self.base_counts[words])}
        out.update((k, (level.keys, level.counts)) for k, level in self.levels.items())
        return out

    def _lookup(self, contexts: np.ndarray) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Every level's lookup of the context rows; entry k-1 is order k's."""
        c = contexts.shape[1]
        return self.levels[c + 1].find(contexts) if c else []

    def score(
        self, words, contexts, counter: Optional[OpCounter] = None
    ) -> np.ndarray:
        """P(w | h) for a batch: ``words`` (n,) and ``contexts`` (n x c,
        most recent word first, truncated to order-1).

        Contexts are found level by level from the shortest; then each
        level, from the longest context down, adds its value weighted by the
        hand-offs above it, and the base distribution takes what is left.
        A context a level does not hold adds nothing and hands off with
        multiplier 1.  Low-rank multiply-adds are added to ``counter``.
        """
        words = np.asarray(words, dtype=np.int64)
        contexts = np.asarray(contexts, dtype=np.int64)[:, : self.order - 1]
        found = self._lookup(contexts)
        acc = np.zeros(len(words))
        mult = np.ones(len(words))
        for k in range(contexts.shape[1] + 1, 1, -1):
            ctx, ok = found[k - 1]
            value, g = self.levels[k].terms(ctx[ok], words[ok], counter)
            acc[ok] += mult[ok] * value
            mult[ok] *= g
        return acc + mult * self.base[words]

    def prob(
        self, w: int, context: Sequence[int] = (), counter: Optional[OpCounter] = None
    ) -> float:
        """P(w | context), context most-recent-first, truncated to order-1."""
        return float(self.score([w], [tuple(context)], counter)[0])

    def query_cost(self, w: int, context: Sequence[int]) -> int:
        """Multiply-adds a prob() call spends in low-rank lookups."""
        counter = OpCounter()
        self.prob(w, context, counter)
        return counter.muladds

    def dist(self, context: Sequence[int] = ()) -> np.ndarray:
        """Conditional distribution over the whole vocabulary."""
        contexts = np.asarray([tuple(context)], dtype=np.int64)[:, : self.order - 1]
        found = self._lookup(contexts)
        acc = np.zeros(len(self.vocab))
        mult = 1.0
        for k in range(contexts.shape[1] + 1, 1, -1):
            ctx, ok = found[k - 1]
            if ok[0]:
                vec, g = self.levels[k].column(int(ctx[0]))
                acc += mult * vec
                mult *= g
        return acc + mult * self.base
