"""Shared fixtures and from-scratch reference implementations.

The reference smoother here is written directly from the textbook
interpolated-discounting recursion with left-to-right context keys and
plain dicts, so it shares no code paths (or key conventions) with the
package it checks.
"""

from collections import Counter
from typing import Dict, Tuple

import pytest

from plre.corpus import Vocabulary, build_vocabulary, count_ngrams
from plre.ensemble import build_plre
from plre.baselines import NgramLM
from plre.synthetic import synthesize_corpus

TINY_TEXT = """\
the cat sat on the mat
the dog sat on the rug
a cat saw the dog
the dog saw a bird
a bird flew over the house
the cat chased a mouse
a mouse ran under the house
the dog chased the cat
every bird sang in the morning
the cat slept on the rug
a dog barked at the moon
the moon rose over the house
every mouse feared the cat
the bird watched the moon
a cat and a dog played
the mouse ate old cheese
stale bread lay on the mat
the dog ate the cheese
a house stood on the hill
the hill overlooked the sea
"""


@pytest.fixture(scope="session")
def tiny_sentences():
    return [line.split() for line in TINY_TEXT.strip().splitlines()]


@pytest.fixture(scope="session")
def tiny_setup(tiny_sentences):
    """(sentences, vocab, encoded) for the hand-written corpus, threshold 1."""
    vocab = build_vocabulary(tiny_sentences, unk_threshold=1)
    encoded = [vocab.encode(s) for s in tiny_sentences]
    return tiny_sentences, vocab, encoded


@pytest.fixture(scope="session")
def toy_corpus():
    """A topic-structured random corpus small enough for brute-force sums.

    Sized so that singleton words exist: the unk symbol is then attested in
    training and the unigram floor stays inactive, which the exact
    marginal-preservation assertions rely on.
    """
    sents = synthesize_corpus(260, vocab_size=400, n_topics=8, seed=11)
    vocab = build_vocabulary(sents, unk_threshold=1)
    encoded = [vocab.encode(s) for s in sents]
    assert sum(1 for s in encoded for t in s if t == Vocabulary.unk_id) > 0
    return sents, vocab, encoded


@pytest.fixture(scope="session")
def toy_top3(toy_corpus):
    _, _, encoded = toy_corpus
    return count_ngrams(encoded, 3)


@pytest.fixture(scope="session")
def toy_plre3(toy_corpus, toy_top3):
    _, vocab, _ = toy_corpus
    return build_plre(toy_top3, vocab, seed=0)


@pytest.fixture(scope="session")
def toy_plre3_rank1(toy_corpus, toy_top3):
    _, vocab, _ = toy_corpus
    return build_plre(toy_top3, vocab, ranks={2: (1,), 3: (1,)}, seed=0)


@pytest.fixture(scope="session")
def toy_plre3_eta0(toy_corpus, toy_top3):
    _, vocab, _ = toy_corpus
    return build_plre(toy_top3, vocab, powers={2: (), 3: ()}, ranks={2: (), 3: ()})


@pytest.fixture(scope="session")
def toy_kn3(toy_corpus, toy_top3):
    _, vocab, _ = toy_corpus
    return NgramLM.build(vocab, {3: toy_top3}, "kn")


@pytest.fixture(scope="session")
def toy_mkn3(toy_corpus, toy_top3):
    _, vocab, _ = toy_corpus
    return NgramLM.build(vocab, {3: toy_top3}, "mkn")


def write_corpus(path, sentences):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(" ".join(s) + "\n" for s in sentences)


# ---------------------------------------------------------------------------
# Reference smoother, textbook style: left-to-right keys, no shared code.
# ---------------------------------------------------------------------------

Key = Tuple[int, ...]


def ref_raw_counts(encoded, order: int) -> Dict[Key, int]:
    """Raw order-k windows, keys oldest-word-first, per-order bos padding."""
    counts: Counter = Counter()
    for sent in encoded:
        padded = (
            [Vocabulary.bos_id] * (order - 1) + list(sent) + [Vocabulary.eos_id]
        )
        for i in range(len(padded) - order + 1):
            counts[tuple(padded[i : i + order])] += 1
    return dict(counts)


def ref_adjusted_counts(encoded, order: int) -> Dict[int, Dict[Key, int]]:
    """Raw counts at the top order; each lower order counts the distinct
    one-word-left extensions present in the table above it."""
    tables = {order: ref_raw_counts(encoded, order)}
    for k in range(order - 1, 0, -1):
        lower: Counter = Counter()
        for key in tables[k + 1]:
            lower[key[1:]] += 1
        tables[k] = dict(lower)
    return tables


def _ref_gt(values) -> float:
    n1 = sum(1 for v in values if v == 1)
    n2 = sum(1 for v in values if v == 2)
    denom = n1 + 2 * n2
    d = n1 / denom if denom > 0 else 0.5
    return min(max(d, 0.01), 0.99)


def _ref_mkn(values) -> Tuple[float, float, float]:
    n = [0, 0, 0, 0]
    for v in values:
        if 1 <= v <= 4:
            n[v - 1] += 1
    fallback = _ref_gt(values)
    out = []
    for k in range(1, 4):
        if n[0] + 2 * n[1] > 0 and n[k - 1] > 0:
            y = n[0] / (n[0] + 2.0 * n[1])
            d = k - (k + 1.0) * y * n[k] / n[k - 1]
        else:
            d = fallback
        out.append(min(max(d, 0.0), float(k)))
    return tuple(out)


class RefInterpolatedLM:
    """Interpolated discounting over explicit per-order tables.

    smoother selects both the table family (raw for mle/abs, adjusted for
    kn/mkn) and the discount rule.  Queries take contexts most-recent-first
    (the package convention) and flip them internally.
    """

    def __init__(self, encoded, order: int, vsize: int, smoother: str):
        self.order = order
        self.vsize = vsize
        if smoother in ("kn", "mkn"):
            self.tables = ref_adjusted_counts(encoded, order)
        else:
            self.tables = {k: ref_raw_counts(encoded, k) for k in range(1, order + 1)}
        self.discounts = {}
        for k in range(2, order + 1):
            values = list(self.tables[k].values())
            if smoother == "mle":
                self.discounts[k] = (0.0, 0.0, 0.0)
            elif smoother == "mkn":
                self.discounts[k] = _ref_mkn(values)
            else:
                d = _ref_gt(values)
                self.discounts[k] = (d, d, d)
        self.groups = {}
        for k in range(2, order + 1):
            g: Dict[Key, Dict[int, int]] = {}
            for key, c in self.tables[k].items():
                g.setdefault(key[:-1], {})[key[-1]] = c
            self.groups[k] = g
        uni = self.tables[1]
        total = float(sum(uni.values()))
        numers = []
        for x in range(vsize):
            c = uni.get((x,), 0)
            if c == 0 and x != Vocabulary.bos_id:
                numers.append(1.0 / vsize)
            else:
                numers.append(float(c))
        norm = sum(numers)
        self.base = [v / norm for v in numers]

    def _rec(self, w: int, hist: Key) -> float:
        if not hist:
            return self.base[w]
        k = len(hist) + 1
        members = self.groups[k].get(hist)
        if members is None:
            return self._rec(w, hist[1:])
        total = float(sum(members.values()))
        d1, d2, d3 = self.discounts[k]

        def disc(c):
            return d1 if c == 1 else d2 if c == 2 else d3

        n1 = sum(1 for c in members.values() if c == 1)
        n2 = sum(1 for c in members.values() if c == 2)
        n3 = sum(1 for c in members.values() if c >= 3)
        gamma = (d1 * n1 + d2 * n2 + d3 * n3) / total
        c = members.get(w, 0)
        num = max(c - disc(c), 0.0) if c else 0.0
        return num / total + gamma * self._rec(w, hist[1:])

    def prob(self, w: int, context) -> float:
        hist = tuple(reversed(tuple(context)[: self.order - 1]))
        return self._rec(w, hist)


class ZReader:
    """Lookups in one low-rank table, read off its arrays in plain Python.

    ``contexts`` are the contexts the table's denominators are aligned
    with, in order.  This is the tests' reference for what a conditional
    lookup in the table finds and costs, kept apart from the package's
    vectorized walk.
    """

    def __init__(self, z, contexts):
        self.denominators = dict(zip(contexts, z.denominators.tolist()))
        self.slices = {}
        for s, interior in enumerate(map(tuple, z.slices.tolist())):
            rows, cols, L, R = z.factors(s)
            self.slices[interior] = (
                {w: i for i, w in enumerate(rows.tolist())},
                {x: j for j, x in enumerate(cols.tolist())},
                L,
                R,
            )

    def _find(self, w: int, h: Key):
        sl = self.slices.get(h[:-1]) if h in self.denominators else None
        if sl is None or w not in sl[0] or h[-1] not in sl[1]:
            return None
        return sl[0][w], sl[1][h[-1]], sl[2], sl[3]

    def cond(self, w: int, h: Key) -> float:
        """Z(w | h): one L-row . R-column product over the denominator."""
        hit = self._find(w, h)
        if hit is None:
            return 0.0
        i, j, L, R = hit
        return float(L[i] @ R[:, j]) / self.denominators[h]

    def rank(self, w: int, h: Key) -> int:
        """Multiply-adds the lookup of w after h spends (0 if none)."""
        hit = self._find(w, h)
        return 0 if hit is None else hit[2].shape[1]
