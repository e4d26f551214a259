"""Independent reference smoothers that the benchmark checks plre against.

They are written from the formulas, with their own counting over the raw
text: n-grams are tuples of word strings ordered oldest word first, so no
table, id map or key convention is shared with the package under test.

* ``KneserNey``: interpolated Kneser-Ney and modified Kneser-Ney (Chen and
  Goodman, 1998).  Below the top order every table holds continuation
  counts, N1+(. g), derived from the table one order up; the discount is the
  Good-Turing value n1/(n1 + 2 n2) (kn) or the triple D1, D2, D3+ (mkn).
* ``RankOnePlre``: the power low-rank ensemble with rank 1 at every
  intermediate power.  A rank-1 gKL factorization has a closed form, so each
  slice term is row sum x column sum / slice total, the hand-off weights are
  gamma_j(h) = d* S_{j+1}(h) / S_j(h), and d* is the (eta+1)-th root of the
  Good-Turing discount.

Both treat a context never seen at an order as handing all its mass to the
next shorter one, and both end at the continuation unigram, where a type
that no bigram continues (other than <s>) gets a 1/V floor before
normalizing.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

UNK, BOS, EOS = "<unk>", "<s>", "</s>"

Gram = Tuple[str, ...]


class Counts:
    """Vocabulary and count tables of every order for one training text."""

    def __init__(self, lines: Iterable[str], order: int, unk_threshold: int = 1):
        sentences = [line.split() for line in lines]
        sentences = [s for s in sentences if s]
        freq = Counter(tok for s in sentences for tok in s)
        self.words = {UNK, BOS, EOS} | {
            w for w, c in freq.items() if c > unk_threshold
        }
        self.order = order
        top: Counter = Counter()
        for s in sentences:
            padded = [BOS] * (order - 1) + [self.map(t) for t in s] + [EOS]
            for i in range(order - 1, len(padded)):
                top[tuple(padded[i - order + 1 : i + 1])] += 1
        # tables[k][gram]: raw counts at the top order, continuation counts
        # (distinct one-word-older extensions) below it.
        self.tables: Dict[int, Dict[Gram, int]] = {order: dict(top)}
        for k in range(order - 1, 0, -1):
            cont: Counter = Counter(g[1:] for g in self.tables[k + 1])
            self.tables[k] = dict(cont)

    def map(self, word: str) -> str:
        return word if word in self.words else UNK

    def contexts(self, k: int) -> Dict[Gram, List[int]]:
        """Context (k-1 words) -> the counts of its order-k entries."""
        out: Dict[Gram, List[int]] = defaultdict(list)
        for g, c in self.tables[k].items():
            out[g[:-1]].append(c)
        return dict(out)

    def base(self) -> Dict[str, float]:
        numer = {w: float(self.tables[1].get((w,), 0)) for w in self.words}
        floor = 1.0 / len(self.words)
        for w, c in numer.items():
            if c == 0.0 and w != BOS:
                numer[w] = floor
        total = math.fsum(numer.values())
        return {w: c / total for w, c in numer.items()}


def good_turing(values: Iterable[int]) -> float:
    n = Counter(v for v in values if v <= 2)
    denom = n[1] + 2 * n[2]
    d = n[1] / denom if denom else 0.5
    return min(max(d, 0.01), 0.99)


def modified_discounts(values: Iterable[int]) -> Tuple[float, float, float]:
    values = list(values)
    n = Counter(v for v in values if v <= 4)
    fallback = good_turing(values)
    denom = n[1] + 2 * n[2]
    y = n[1] / denom if denom else None
    out = []
    for k in (1, 2, 3):
        if y is None or n[k] == 0:
            d = fallback
        else:
            d = k - (k + 1) * y * n[k + 1] / n[k]
        out.append(min(max(d, 0.0), float(k)))
    return out[0], out[1], out[2]


class KneserNey:
    """Interpolated KN (``modified=False``) or modified KN."""

    def __init__(self, counts: Counts, modified: bool):
        self.counts = counts
        self.base = counts.base()
        self.discount: Dict[int, Tuple[float, float, float]] = {}
        self.stats: Dict[int, Dict[Gram, Tuple[int, int, int, int]]] = {}
        for k in range(2, counts.order + 1):
            values = counts.tables[k].values()
            if modified:
                self.discount[k] = modified_discounts(values)
            else:
                d = good_turing(values)
                self.discount[k] = (d, d, d)
            self.stats[k] = {
                h: (
                    sum(cs),
                    sum(1 for c in cs if c == 1),
                    sum(1 for c in cs if c == 2),
                    sum(1 for c in cs if c >= 3),
                )
                for h, cs in counts.contexts(k).items()
            }

    def prob(self, word: str, context: Sequence[str]) -> float:
        """P(word | context), the context given oldest word first."""
        n = self.counts.order
        h = tuple(context)[len(context) - (n - 1) :] if n > 1 else ()
        return self._prob(word, h)

    def _prob(self, word: str, h: Gram) -> float:
        if not h:
            return self.base[word]
        k = len(h) + 1
        lower = self._prob(word, h[1:])
        st = self.stats[k].get(h)
        if st is None:
            return lower
        total, n1, n2, n3 = st
        d1, d2, d3 = self.discount[k]
        c = self.counts.tables[k].get(h + (word,), 0)
        d = d1 if c == 1 else d2 if c == 2 else d3
        num = max(c - d, 0.0) if c else 0.0
        gamma = (d1 * n1 + d2 * n2 + d3 * n3) / total
        return num / total + gamma * lower


class RankOnePlre:
    """Power low-rank ensemble with every intermediate term at rank 1.

    ``powers[k]`` is the descending chain of intermediate powers at order k
    (empty: the level is a discounted sparse term plus its hand-off).
    """

    def __init__(self, counts: Counts, powers: Dict[int, Tuple[float, ...]]):
        self.counts = counts
        self.base = counts.base()
        self.levels = {
            k: _RankOneLevel(counts.tables[k], (1.0,) + tuple(powers.get(k, ())) + (0.0,))
            for k in range(2, counts.order + 1)
        }

    def prob(self, word: str, context: Sequence[str]) -> float:
        n = self.counts.order
        h = tuple(context)[len(context) - (n - 1) :]
        acc, mult = 0.0, 1.0
        for k in range(n, 1, -1):
            value, handoff = self.levels[k].eval(word, h[len(h) - (k - 1) :])
            acc += mult * value
            mult *= handoff
        return acc + mult * self.base[word]


class _RankOneLevel:
    def __init__(self, table: Dict[Gram, int], chain: Tuple[float, ...]):
        self.table = table
        self.chain = chain
        eta = len(chain) - 2
        d = good_turing(table.values())
        self.dstar = d ** (1.0 / (eta + 1))
        # sums[j][h] = S_j(h) = sum_w c(h w)^rho_j.
        self.sums: List[Dict[Gram, float]] = [defaultdict(float) for _ in chain]
        for g, c in table.items():
            for j, rho in enumerate(chain):
                self.sums[j][g[:-1]] += float(c) ** rho
        # Per intermediate step j: the slice of context h is keyed by h minus
        # its oldest word; rows are predicted words, columns oldest words.
        self.slices: List[Dict[Gram, tuple]] = []
        for j in range(1, eta + 1):
            rows: Dict[Gram, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
            cols: Dict[Gram, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
            for g, c in table.items():
                v = float(c) ** chain[j] - self.dstar * float(c) ** chain[j + 1]
                if v <= 0.0:
                    continue
                interior = g[1:-1]
                rows[interior][g[-1]] += v
                cols[interior][g[0]] += v
            self.slices.append(
                {
                    i: (rows[i], cols[i], math.fsum(rows[i].values()))
                    for i in rows
                }
            )

    def eval(self, word: str, h: Gram) -> Tuple[float, float]:
        s0 = self.sums[0].get(h)
        if not s0:
            return 0.0, 1.0
        c = self.table.get(h + (word,), 0)
        value = (c - self.dstar * float(c) ** self.chain[1]) / s0 if c else 0.0
        mult = self.dstar * self.sums[1][h] / s0
        for j, slices in enumerate(self.slices, start=1):
            sl = slices.get(h[1:])
            if sl is not None:
                rows, cols, total = sl
                value += mult * rows.get(word, 0.0) * cols.get(h[0], 0.0) / total / self.sums[j][h]
            mult *= self.dstar * self.sums[j + 1][h] / self.sums[j][h]
        return value, mult


def worst_relative_error(
    queries: Iterable[tuple],
    program: Callable[..., float],
    reference: Callable[..., float],
) -> float:
    """Largest |program - reference| / reference over the queries.

    A query is an argument tuple both callables accept.  A non-finite or
    negative probability from the program, or a nonzero one where the
    reference gives zero, counts as an infinite error.
    """
    worst = 0.0
    for q in queries:
        p = program(*q)
        r = reference(*q)
        if not (math.isfinite(p) and p >= 0.0) or (r == 0.0 and p != 0.0):
            return math.inf
        if r != 0.0:
            worst = max(worst, abs(p - r) / r)
    return worst
