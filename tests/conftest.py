"""Shared fixtures and from-scratch reference implementations.

The reference smoother here is written directly from the textbook
interpolated-discounting recursion with left-to-right context keys and
plain dicts, so it shares no code paths (or key conventions) with the
package it checks.
"""

import functools
import math
import operator
from collections import Counter
from typing import Dict, Tuple

import numpy as np
import pytest

from plre.corpus import CountTable, Vocabulary, build_vocabulary, count_ngrams
from plre.ensemble import build_plre, derive_dstar
from plre.baselines import NgramLM, good_turing_discount
from plre.errors import EvalError
from plre.evaluation import EvalReport
from plre.factorization import nmf_gkl
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


def dense_marginal(model, order: int) -> np.ndarray:
    """sum_h P̂(h) P(.|h) over the order-k level's contexts h, adding one
    whole-vocabulary distribution per context: the tests' oracle for the
    package's sparse aggregation, at contexts x V cost."""
    level = model.levels[order]
    total = float(level.totals.sum())
    acc = np.zeros(len(model.vocab))
    for ctx_count, h in zip(level.totals.tolist(), level.context_totals):
        acc += (ctx_count / total) * model.dist(h)
    return acc


def sequential_logprobs(model, sentences):
    """Each sentence's natural-log probability, its tokens scored in text
    order by one ``score`` call and their logs added left to right."""
    vocab = model.vocab
    bos, eos, pad = vocab.bos_id, vocab.eos_id, model.order - 1
    sentence_logprobs = []
    for sent in sentences:
        ids = vocab.encode(sent) + [eos]
        padded = [bos] * pad + ids
        contexts = [padded[i : i + pad][::-1] for i in range(len(ids))]
        probs = model.score(
            np.array(ids, dtype=np.int64), np.array(contexts, dtype=np.int64).reshape(len(ids), pad)
        ).tolist()
        for w, h, p in zip(ids, contexts, probs):
            if not 0.0 < p < math.inf:
                raise EvalError(f"probability {p} for id {w} after {h}")
        sentence_logprobs.append(functools.reduce(operator.add, map(math.log, probs), 0.0))
    return sentence_logprobs


def sequential_perplexity(model, sentences) -> EvalReport:
    """Perplexity as the exact sum of ``sequential_logprobs``: the tests'
    oracle for the package's chunked, deduplicated and sorted scoring,
    which must give the same bits."""
    oov = sum(1 for sent in sentences for tok in sent if tok not in model.vocab)
    tokens = sum(len(sent) + 1 for sent in sentences)
    total = math.fsum(sequential_logprobs(model, sentences))
    return EvalReport(tokens, oov, total, math.exp(-total / tokens))


def looped_error_bound(model, order: int) -> float:
    """marginal_error_bound with each slice's factor row sums taken in its
    own loop iteration, and the mass reaching the base summed over
    contexts: the tests' oracle for the vectorized segment sums and the
    closed form."""
    bound, lam, upper_total = 0.0, 1.0, None
    for k in range(order, 1, -1):
        level = model.levels[k]
        total = float(level.totals.sum())
        if upper_total is not None:
            up = model.levels[k + 1]
            lam *= (up.dstar ** (up.eta + 1)) * total / upper_total
        chain = (1.0,) + level.powers + (0.0,)
        counts = level.counts.astype(np.float64)
        for j, z in enumerate(level.z_tables, start=1):
            v = counts ** chain[j] - level.dstar * counts ** chain[j + 1]
            resid = np.zeros(len(model.vocab))
            np.add.at(resid, level.keys[:, 0], -np.maximum(v, 0.0))
            for s in range(len(z.slices)):
                rows, _, L, R = z.factors(s)
                resid[rows] += L @ R.sum(axis=1)
            bound += lam * (level.dstar ** j) / total * float(np.max(np.abs(resid)))
        upper_total = total
    # the floor's shift of the base, times the mass that reaches the base,
    # handed down context by context
    weight = model.levels[order].totals / float(model.levels[order].totals.sum())
    for k in range(order, 1, -1):
        level = model.levels[k]
        parents = len(model.levels[k - 1].totals) if k > 2 else 1
        weight = np.bincount(level.parent, weight * np.prod(level.gammas, axis=0), parents)
    ideal = model.base_counts / model.base_counts.sum()
    return bound + weight[0] * float(np.max(np.abs(model.base - ideal)))


def dense_gkl(M, P) -> float:
    """gKL(M, P) over two dense matrices, 0 * log(0 / x) taken as 0:
    infinite where a positive entry of M meets a zero of P."""
    M, P = np.asarray(M, dtype=np.float64), np.asarray(P, dtype=np.float64)
    at = M > 0.0
    if (P[at] <= 0.0).any():
        return math.inf
    return float(np.sum(M[at] * np.log(M[at] / P[at])) - M.sum() + P.sum())


def dense_residuals(M, P) -> Tuple[float, float]:
    """The largest |row sum| and |column sum| deviations of P from M."""
    M, P = np.asarray(M, dtype=np.float64), np.asarray(P, dtype=np.float64)
    return (
        float(np.abs(P.sum(axis=1) - M.sum(axis=1)).max()),
        float(np.abs(P.sum(axis=0) - M.sum(axis=0)).max()),
    )


def count_table(order: int, entries: Dict[Key, int]) -> CountTable:
    """A CountTable from most-recent-first keys to counts."""
    keys = sorted(entries, key=lambda key: (key[1:], key[0]))
    return CountTable.from_keys(
        np.array(keys, dtype=np.int64).reshape(len(keys), order),
        np.array([entries[key] for key in keys], dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# Reference PLRE build over tuple-keyed dicts, entry by entry and slice by
# slice: the tests' oracle for the package's array build, which must give
# the same bytes.
# ---------------------------------------------------------------------------


def dict_counts(encoded, order: int) -> Dict[Key, int]:
    """Most-recent-first order-k windows and their counts."""
    entries: Dict[Key, int] = {}
    for sent in encoded:
        padded = [Vocabulary.bos_id] * (order - 1) + list(sent) + [Vocabulary.eos_id]
        for i in range(order - 1, len(padded)):
            key = tuple(padded[i - j] for j in range(order))
            entries[key] = entries.get(key, 0) + 1
    return entries


def _dict_powered(entries: Dict[Key, int], power: float):
    """(c^power per key, its sum per context), each context summed in key
    order: by context, then word."""
    if power == 1.0:
        powered = {key: float(c) for key, c in entries.items()}
    elif power == 0.0:
        powered = {key: 1.0 for key in entries}
    else:
        powered = {key: c**power for key, c in entries.items()}
    sums: Dict[Key, float] = {}
    for key in sorted(powered, key=lambda key: (key[1:], key[0])):
        sums[key[1:]] = sums.get(key[1:], 0.0) + powered[key]
    return powered, sums


def _dict_slice_matrix(entries: Dict[Tuple[int, int], float]):
    """A slice as a dense matrix over its nonzero rows and columns, with
    their ids."""
    row_ids = sorted({w for w, _ in entries})
    col_ids = sorted({x for _, x in entries})
    row_index = {w: i for i, w in enumerate(row_ids)}
    col_index = {x: j for j, x in enumerate(col_ids)}
    M = np.zeros((len(row_ids), len(col_ids)))
    for (w, x), v in entries.items():
        M[row_index[w], col_index[x]] = v
    return M, row_ids, col_ids


def _dict_rank1(M: np.ndarray):
    """The closed-form rank-1 factors of a dense slice, L = row sums / total
    and R = column sums: each row and column summed left to right over its
    nonzeros, and the total the column sums summed left to right."""
    rows, cols = M.shape
    add = functools.partial(functools.reduce, operator.add)
    row_sums = [add([v for v in M[i].tolist() if v > 0], 0.0) for i in range(rows)]
    col_sums = [add([v for v in M[:, j].tolist() if v > 0], 0.0) for j in range(cols)]
    total = add(col_sums, 0.0)
    return np.array(row_sums).reshape(rows, 1) / total, np.array(col_sums).reshape(1, cols)


def _dict_z(entries, powered, sums, next_power, dstar, rank, level, seed):
    order = len(next(iter(entries)))
    slice_entries: Dict[Key, Dict[Tuple[int, int], float]] = {}
    for key, p in powered.items():
        v = p - dstar * entries[key] ** next_power
        if v > 0.0:
            slice_entries.setdefault(key[1:-1], {})[(key[0], key[-1])] = v
    interiors = sorted(slice_entries)
    slices = [_dict_slice_matrix(slice_entries[h]) for h in interiors]
    # Each slice's rank: its nonzeros over its rows plus columns, in [1, rank];
    # higher ranks solved alone, from the slice's own seed.
    pairs = []
    for idx, (M, _, _) in enumerate(slices):
        r = min(rank, max(1, len(np.flatnonzero(M)) // sum(M.shape)))
        if r == 1:
            pairs.append(_dict_rank1(M))
        else:
            seq = np.random.SeedSequence(seed, spawn_key=(order, level, idx))
            pairs.append(nmf_gkl(M, r, seed=seq)[0])

    def cat(parts, dtype):
        return np.concatenate(parts).astype(dtype) if parts else np.zeros(0, dtype=dtype)

    return {
        "slices": np.array(interiors, dtype=np.int32).reshape(len(interiors), order - 2),
        "dims": np.array(
            [(*M.shape, L.shape[1]) for (M, _, _), (L, _) in zip(slices, pairs)], dtype=np.int32
        ).reshape(len(pairs), 3),
        "row_ids": cat([r for _, r, _ in slices], np.int64),
        "col_ids": cat([c for _, _, c in slices], np.int64),
        "L": cat([L.ravel() for L, _ in pairs], np.float64),
        "R": cat([R.ravel() for _, R in pairs], np.float64),
        "denominators": np.array([sums[h] for h in sorted(sums)]),
        "matrices": [M for M, _, _ in slices],
    }


def dict_plre_levels(encoded, order, powers, ranks, dstar="gt-root", seed=0):
    """Per order k: the level's keys, counts, top numerators and gammas,
    and each low-rank table's arrays and dense slices, built through dicts."""
    tables = {order: dict_counts(encoded, order)}
    for k in range(order - 1, 0, -1):
        lower: Dict[Key, int] = {}
        for key in tables[k + 1]:
            lower[key[:-1]] = lower.get(key[:-1], 0) + 1
        tables[k] = lower
    out = {}
    for k in range(order, 1, -1):
        entries = tables[k]
        chain = (1.0,) + tuple(powers[k]) + (0.0,)
        if dstar == "gt-root":
            n1 = sum(1 for c in entries.values() if c == 1)
            n2 = sum(1 for c in entries.values() if c == 2)
            d = derive_dstar(good_turing_discount(n1, n2), len(chain) - 2)
        else:
            d = dstar
        powered = [_dict_powered(entries, rho) for rho in chain]
        gammas = [
            {h: d * powered[j + 1][1][h] / s for h, s in powered[j][1].items()}
            for j in range(len(chain) - 1)
        ]
        keys = sorted(entries, key=lambda key: (key[1:], key[0]))
        contexts = sorted(powered[0][1])
        out[k] = {
            "keys": np.array(keys, dtype=np.int64),
            "counts": np.array([entries[key] for key in keys], dtype=np.int64),
            "top": np.array([float(entries[key]) - d * entries[key] ** chain[1] for key in keys]),
            "gammas": np.array([[g[h] for h in contexts] for g in gammas]),
            "z": [
                _dict_z(entries, *powered[j], chain[j + 1], d, ranks[k][j - 1], j, seed)
                for j in range(1, len(chain) - 1)
            ],
        }
    return out
