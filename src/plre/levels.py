"""Sorted-array n-gram levels and the one query walk every model shares.

A model of order n keeps one level per order n, n-1, ..., 2 over a unigram
base distribution.  A level is one count table of sorted 1-D trie codes
(``corpus.CountTable``; the trie of KenLM, Heafield, WMT 2011): each
context is its parent's row one order lower times RADIX plus its oldest
word, and each entry its context's row times RADIX plus its word.  The
entries carry the sparse term's numerators ``top``, one row of hand-off
weights per chain step in ``gammas`` and, for PLRE, one low-rank table per
intermediate step.  Interpolated Kneser-Ney and the other classical
smoothers are levels with one gamma row and no low-rank tables.  Every
level of a model shares one trie, so a context's parent row is its link to
the next level, with no search.  One vectorized walk, ``LevelModel.walk``,
answers every query of every model from its state, the deepest context of
the query a level holds.  It searches each level's entries once per batch:
a low-rank table's slice s is context s one order lower, and its rows are
that context's entries, so the search the walk runs there for its next
step finds the table's rows too.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .corpus import RADIX, ROOT, CountTable, Vocabulary


class OpCounter:
    """Counts multiply-adds spent in low-rank lookups (query-cost probe)."""

    __slots__ = ("muladds",)

    def __init__(self):
        self.muladds = 0


@contextmanager
def timed(seconds: Optional[Dict[str, float]], stage: str) -> Iterator[None]:
    """Add the wall time of the block to ``seconds[stage]``, if a dict is
    given (build-stage timing for reports; never stored in a model)."""
    start = time.perf_counter()
    try:
        yield
    finally:
        if seconds is not None:
            seconds[stage] = seconds.get(stage, 0.0) + time.perf_counter() - start


def _find(table: np.ndarray, codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(position, found) of each code in a nonempty strictly increasing table."""
    pos = np.minimum(np.searchsorted(table, codes), len(table) - 1)
    return pos, table[pos] == codes


def make_base_distribution(
    counts: np.ndarray, bos_id: int = Vocabulary.bos_id
) -> np.ndarray:
    """Normalize unigram numerator counts into the base distribution.

    Types (other than bos) with a zero numerator — in practice an unk symbol
    the training data never produced — get a uniform 1/V floor added before
    normalizing, so the base is positive everywhere a prediction can be
    asked for.  bos keeps probability zero: it is never a predicted token.
    When nothing is floored the distribution is exactly counts/total, which
    the marginal-preservation identities rely on; otherwise
    ``marginal_error_bound`` adds the largest shift the floor makes, times
    the mass that reaches the base.
    """
    numer = np.asarray(counts, dtype=np.float64).copy()
    zero = numer == 0.0
    zero[bos_id] = False
    if zero.any():
        numer[zero] = 1.0 / len(numer)
    return numer / numer.sum()


class Level(CountTable):
    """One order's count table with its smoothing terms.

    The table's entries carry the sparse term's ``top`` numerators;
    ``gammas`` rows (one per chain step, the last one the hand-off to the
    order below) and each low-rank table's ``denominators`` are aligned
    with its contexts.  A level is made from its table's arrays and
    whatever the table has derived from them, with no copy.
    """

    def __init__(self, table: CountTable, top: np.ndarray, gammas: np.ndarray):
        vars(self).update(vars(table))
        self.top, self.gammas, self.z_tables = top, gammas, []

    def terms(
        self,
        ctx: np.ndarray,
        found: Tuple[np.ndarray, np.ndarray],
        rows: Optional[Tuple[np.ndarray, np.ndarray]],
        counter: Optional[OpCounter] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(level value, gamma hand-off) for a batch of queries after the
        level's contexts ``ctx``.  ``found`` is (position, hit) of each
        query's (context, word) code among ``entry_code``; ``rows`` is the
        same for the low-rank tables' rows, the (parent, word) code among
        the entries one order lower (the word among the base's at order
        2), and may be None for a level without low-rank tables."""
        pos, hit = found
        value = np.where(hit, self.top[pos], 0.0) / self.totals[ctx]
        g = self.gammas[0, ctx]
        for j, z in enumerate(self.z_tables):
            value += g * z.values(ctx, *rows, counter)
            g = g * self.gammas[j + 1, ctx]
        return value, g


class LevelModel:
    """Levels for orders n..2 over the unigram base, queried by one walk."""

    def __init__(self, vocab: Vocabulary, order: int, levels, base_counts: np.ndarray):
        self.vocab = vocab
        self.order = order
        self.levels = levels
        # State ids: 0 is the empty context, then order k's contexts from
        # state_start[k-1] on, k = 2..n; a query code is state * V + word.
        sizes = [1] + [len(levels[k].ctx_code) for k in range(2, order + 1)]
        self.state_start = np.cumsum([0] + sizes)
        if int(self.state_start[-1]) * len(vocab) > np.iinfo(np.int64).max:
            raise ValueError(f"{self.state_start[-1]} states x V overflow int64 query codes")
        self.base_counts = np.asarray(base_counts, dtype=np.int64)
        self.base = make_base_distribution(self.base_counts)
        # Parents are rows one order lower: each trie must extend the one below.
        for k in range(3, order + 1):
            if not all(map(np.array_equal, levels[k].trie, levels[k - 1].trie)):
                raise ValueError(f"order {k}: a context has no lower-order parent")

    def tables(self) -> Dict[int, CountTable]:
        """Every order's count table: the base's nonzero counts, the levels."""
        words = np.flatnonzero(self.base_counts)
        return {1: CountTable((ROOT,), words, self.base_counts[words]), **self.levels}

    def states(self, contexts) -> np.ndarray:
        """The state of each row of ``contexts`` (most recent word first,
        truncated to order-1): the id of its deepest context a level holds.
        A shorter context adds nothing to P(w | h) and hands off with
        multiplier 1, so P depends on h only through its state.  Each level
        is searched once, for the rows whose context the level below held,
        in the order of their codes (a search on sorted keys stays in
        cache), and the rows found are put back in place."""
        contexts = np.asarray(contexts, dtype=np.int64)[:, : self.order - 1]
        state = np.zeros(len(contexts), dtype=np.int64)
        # Level k searches only the rows ``at`` whose context level k-1
        # held; they stay a slice, with no gather, until a row is missed.
        every = slice(None)
        at, row = every, 0
        for k in range(2, contexts.shape[1] + 2):
            level, oldest = self.levels[k], contexts[at, k - 2]
            codes = row * RADIX + oldest
            by_code = np.argsort(codes)
            row, hit = np.empty_like(codes), np.empty(len(codes), dtype=bool)
            row[by_code], hit[by_code] = _find(level.ctx_code, codes[by_code])
            hit &= (oldest >= 0) & (oldest < RADIX)
            if not hit.all():
                at, row = (np.flatnonzero(hit) if at is every else at[hit]), row[hit]
            state[at] = self.state_start[k - 1] + row
        return state

    def context(self, state: int) -> List[int]:
        """The context a state stands for, most recent word first."""
        k = int(np.searchsorted(self.state_start, state, side="right"))
        return self.levels[k].contexts[state - self.state_start[k - 1]].tolist() if k > 1 else []

    def walk(self, states: np.ndarray, words, counter: Optional[OpCounter] = None) -> np.ndarray:
        """P(w | state) for a batch: each level from the state's order down
        adds its value weighted by the hand-offs above it and hands on to
        the parent context; the base distribution takes what is left.
        Low-rank multiply-adds are added to ``counter``.

        Unless it already is, the batch is sorted by state (stably), so
        the queries a level answers are a suffix of it: those of its order
        or deeper, at their own contexts or their contexts' ancestors.
        Each level's entries are searched once, for that suffix.  The
        search serves the level's sparse term and the low-rank tables one
        order up, whose slice s is this level's context s and whose rows
        are that context's entries; the order-2 tables' rows, the base's
        words, take one more search.  Answers come back in input order."""
        states = np.asarray(states, dtype=np.int64)
        words = np.asarray(words, dtype=np.int64)
        if self.order == 1:  # no levels: the base answers every query
            return self.base[words]
        by_state = None
        if np.any(states[1:] < states[:-1]):
            by_state = np.argsort(states, kind="stable")
            states, words = states[by_state], words[by_state]
        n, start = self.order, self.state_start
        # lo[k - 1] is the first query of order k or deeper.  Level k's
        # contexts are its own queries', then the parents of those of
        # level k + 1, in suffix order.
        lo = np.searchsorted(states, start[:n]).tolist()
        ctx = {n: states[lo[n - 1] :] - start[n - 1]}
        for k in range(n, 2, -1):
            own = states[lo[k - 2] : lo[k - 1]] - start[k - 2]
            ctx[k - 1] = np.concatenate((own, self.levels[k].parent[ctx[k]]))
        found = {
            k: _find(self.levels[k].entry_code, c * RADIX + words[lo[k - 1] :])
            for k, c in ctx.items()
        }
        if self.levels[2].z_tables:  # their rows are the base's words
            found[1] = _find(self.levels[2].z_tables[0].layout.row_ids, words)
        acc = np.zeros(len(words))
        mult = np.ones(len(words))
        for k in range(n, 1, -1):
            level, at = self.levels[k], lo[k - 1]
            rows = tuple(a[at - lo[k - 2] :] for a in found[k - 1]) if level.z_tables else None
            value, g = level.terms(ctx[k], found[k], rows, counter)
            acc[at:] += mult[at:] * value
            mult[at:] *= g
        out = acc + mult * self.base[words]
        if by_state is not None:
            out[by_state] = out.copy()
        return out

    def score(self, words, contexts, counter: Optional[OpCounter] = None) -> np.ndarray:
        """P(w | h) for a batch: ``words`` (n,) and ``contexts`` (n x c,
        most recent word first, truncated to order-1)."""
        return self.walk(self.states(contexts), words, counter)

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
        """P(w | context) for every word w: the context resolved to its
        state once, then walked with the whole vocabulary, so each entry is
        bit-identical to ``prob(w, context)``."""
        words = np.arange(len(self.vocab))
        state = self.states(np.asarray([tuple(context)], dtype=np.int64))
        return self.walk(np.repeat(state, len(words)), words)
