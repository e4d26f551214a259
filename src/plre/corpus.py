"""Corpus ingestion: vocabulary building, n-gram counting, adjusted tables.

Conventions used throughout the toolkit:

* A sentence is a list of token ids; text input is one sentence per line,
  whitespace-tokenized, UTF-8.
* N-gram keys (rows of an id array; tuples in mapping views) are ordered
  most-recent-word-first:
  ``(w_i, w_{i-1}, ..., w_{i-n+1})``.  The context of a key is ``key[1:]``,
  i.e. ``(w_{i-1}, ..., w_{i-n+1})``.
* The order-k counter pads each sentence with ``k-1`` bos symbols and one
  eos symbol, so every counted position has a full-length context and the
  unigram table contains no bos.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter, abc
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from .errors import DataError, EmptyCorpusError

UNK = "<unk>"
BOS = "<s>"
EOS = "</s>"

Key = Tuple[int, ...]


class Vocabulary:
    """Bidirectional word/id map with reserved unk, bos and eos symbols.

    Ids 0, 1, 2 are always unk, bos, eos, and each word appears once.
    ``build_vocabulary`` numbers the remaining types; a container stores
    the words alone, one per line in id order.
    """

    def __init__(self, words: List[str]):
        if words[:3] != [UNK, BOS, EOS]:
            raise DataError("vocabulary must start with reserved symbols")
        self.id_to_word = list(words)
        self.word_to_id = {w: i for i, w in enumerate(words)}
        if len(self.word_to_id) != len(words):
            raise DataError("duplicate type in vocabulary")

    unk_id = 0
    bos_id = 1
    eos_id = 2

    def __len__(self) -> int:
        return len(self.id_to_word)

    def __contains__(self, word: str) -> bool:
        return word in self.word_to_id

    def encode(self, tokens: Sequence[str]) -> List[int]:
        """Map tokens to ids, sending out-of-vocabulary types to unk."""
        w2i = self.word_to_id
        unk = self.unk_id
        return [w2i.get(t, unk) for t in tokens]


def build_vocabulary(
    sentences: Iterable[Sequence[str]], unk_threshold: int = 1
) -> Vocabulary:
    """Build a vocabulary from tokenized sentences.

    Every type with corpus frequency <= ``unk_threshold`` is dropped from the
    vocabulary (its occurrences will encode to unk).  The kept types follow
    the reserved symbols in frequency-descending order, ties broken by first
    occurrence, which makes id assignment deterministic for a given corpus.
    Literal occurrences of the reserved symbols keep their reserved ids.
    """
    # A Counter keeps its keys in first-occurrence order, which the stable
    # sort below keeps among equal frequencies.
    freq = Counter(itertools.chain.from_iterable(sentences))
    if not freq:
        raise EmptyCorpusError("no tokens in corpus")
    for sym in (UNK, BOS, EOS):
        freq.pop(sym, None)
    kept = sorted((w for w, c in freq.items() if c > unk_threshold), key=lambda w: -freq[w])
    return Vocabulary([UNK, BOS, EOS] + kept)


def segments(sizes: np.ndarray) -> np.ndarray:
    """CSR offsets of consecutive runs with the given sizes."""
    return np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)


def offsets(sizes: np.ndarray) -> np.ndarray:
    """Position of each element within its run, for runs of the given sizes."""
    return np.arange(int(sizes.sum())) - np.repeat(segments(sizes)[:-1], sizes)


def run_heads(rows: np.ndarray) -> np.ndarray:
    """True at the first of each run of equal consecutive rows."""
    heads = np.zeros(len(rows), dtype=bool)
    heads[:1] = True
    # Column by column: a 2-d comparison and its row-wise any() cost ~5x.
    for col in rows.T:
        heads[1:] |= col[1:] != col[:-1]
    return heads


def _runs(rows: np.ndarray) -> np.ndarray:
    """CSR offsets of the runs of equal consecutive rows."""
    return np.append(np.flatnonzero(run_heads(rows)), len(rows))


def context_starts(keys: np.ndarray) -> np.ndarray:
    """CSR offsets of the runs of equal contexts (``keys[:, 1:]``) in keys
    sorted by context."""
    return _runs(keys[:, 1:])


def _key_columns(order: int) -> List[int]:
    """The columns keys sort by, most significant first: context, then word."""
    return list(range(1, order)) + [0]


class RowMap(abc.Mapping):
    """Read-only map from the rows of a sorted id array, as tuples, to values;
    ``columns`` lists the sort columns, most significant first."""

    def __init__(self, rows: np.ndarray, values: np.ndarray, columns: Sequence[int] = ()):
        self._rows = rows
        self._values = values
        self._columns = list(columns) or list(range(rows.shape[1]))

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Key]:
        return map(tuple, self._rows.tolist())

    def __getitem__(self, key: Key):
        if len(key) != self._rows.shape[1]:
            raise KeyError(key)
        lo, hi = 0, len(self._rows)
        for c in self._columns:
            col = self._rows[lo:hi, c]
            lo, hi = lo + np.searchsorted(col, key[c]), lo + np.searchsorted(col, key[c], "right")
            if lo == hi:
                raise KeyError(key)
        return self._values[lo].item()


class CountTable:
    """Counts for one n-gram order as sorted arrays.

    ``keys`` (n x order, most-recent-first, int64) are sorted by context,
    then predicted word, and carry ``counts``.  Context c owns entries
    ``ctx_start[c]:ctx_start[c+1]`` and has ``totals[c]``.  ``entries`` and
    ``context_totals`` are read-only mapping views keyed by tuples.
    """

    def __init__(self, order: int, keys: np.ndarray, counts: np.ndarray):
        n = len(keys)
        if n == 0 or keys.shape != (n, order) or counts.shape != (n,):
            raise ValueError(f"order {order}: table arrays disagree in length")
        self.order = order
        self.keys = keys.astype(np.int64, copy=False)
        self.counts = counts.astype(np.int64, copy=False)
        self.ctx_start = context_starts(self.keys)
        self.contexts = self.keys[self.ctx_start[:-1], 1:]
        self.totals = np.add.reduceat(self.counts, self.ctx_start[:-1])
        self.ctx_of_entry = np.repeat(np.arange(len(self.contexts)), np.diff(self.ctx_start))

    @property
    def entries(self) -> RowMap:
        return RowMap(self.keys, self.counts, _key_columns(self.order))

    @property
    def context_totals(self) -> RowMap:
        return RowMap(self.contexts, self.totals)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @functools.cached_property
    def interior_runs(self) -> Tuple[np.ndarray, np.ndarray]:
        """(CSR offsets of the runs of equal interiors among the contexts,
        each context's run index).  A context's interior is the context less
        its oldest word; sorted contexts keep equal interiors in runs, in
        order, so a run's index is its interior's row one order lower."""
        heads = run_heads(self.contexts[:, :-1])
        return np.append(np.flatnonzero(heads), len(heads)), np.cumsum(heads) - 1

    @functools.cached_property
    def distinct_counts(self) -> Tuple[np.ndarray, np.ndarray]:
        """(the distinct counts, each entry's index among them): the run
        heads of the sorted counts, then one search per entry.  Unlike
        ``np.bincount``, this allocates nothing by the largest count."""
        ordered = np.sort(self.counts)
        distinct = ordered[np.append(True, ordered[1:] != ordered[:-1])]
        return distinct, np.searchsorted(distinct, self.counts)

    def context_sums(self, values: np.ndarray) -> np.ndarray:
        """Per context, the sum of ``values`` (one per entry), added in key
        order: it follows from the keys and the values alone."""
        return np.bincount(self.ctx_of_entry, values, len(self.contexts))


def count_ngrams(
    sentences: Iterable[Sequence[int]],
    order: int,
    bos_id: int = Vocabulary.bos_id,
    eos_id: int = Vocabulary.eos_id,
) -> CountTable:
    """Count order-``order`` n-grams over id sentences.

    Each sentence is padded with ``order-1`` bos ids and a single eos id;
    keys are most-recent-word-first.  The windows of the padded stream are
    sorted, and each run of equal windows is one entry.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    sentences = list(sentences)
    if not sentences:
        raise EmptyCorpusError("no sentences to count")
    lens = np.fromiter(map(len, sentences), dtype=np.int64, count=len(sentences))
    tokens = np.fromiter(
        itertools.chain.from_iterable(sentences), dtype=np.int64, count=int(lens.sum())
    )
    starts = segments(lens + order)
    stream = np.full(starts[-1], bos_id, dtype=np.int64)
    stream[np.repeat(starts[:-1] + order - 1, lens) + offsets(lens)] = tokens
    stream[starts[1:] - 1] = eos_id
    body = np.repeat(starts[:-1] + order - 1, lens + 1) + offsets(lens + 1)
    # Every position after the bos pad is predicted: key = (w_i, ..., w_{i-order+1}).
    windows = np.stack([stream[body - j] for j in range(order)], axis=1)
    # One lexsort: packing a window into one int64 code would overflow.
    windows = windows[np.lexsort([windows[:, c] for c in reversed(_key_columns(order))])]
    starts = _runs(windows)
    return CountTable(order, windows[starts[:-1]], np.diff(starts))


def count_all_orders(
    sentences: Sequence[Sequence[int]],
    max_order: int,
    bos_id: int = Vocabulary.bos_id,
    eos_id: int = Vocabulary.eos_id,
) -> Dict[int, CountTable]:
    """Raw count tables for every order 1..max_order over the same sentences:
    the top order counted, the others its marginals."""
    return marginal_tables(count_ngrams(sentences, max_order, bos_id, eos_id))


def lower_order(table: CountTable, summed: bool = False) -> Tuple[np.ndarray, np.ndarray]:
    """(keys, counts) of the order below ``table``: its keys less their
    oldest word, each once, with the number of keys that share it (the
    adjusted table) or, if ``summed``, their counts' sum (the marginals).

    A key less its oldest word is its context's interior and its word, and
    sorted contexts keep equal interiors together and in order, so one
    int64 sort of ``interior index * V + word`` sorts by context, then word."""
    runs, ctx_interior = table.interior_runs
    vsize = int(table.keys[:, 0].max()) + 1
    codes = ctx_interior[table.ctx_of_entry] * vsize + table.keys[:, 0]
    if summed:
        perm = np.argsort(codes)
        codes, weights = codes[perm], table.counts[perm]
    else:
        codes = np.sort(codes)
    starts = _runs(codes[:, None])
    counts = np.add.reduceat(weights, starts[:-1]) if summed else np.diff(starts)
    interior, words = np.divmod(codes[starts[:-1]], vsize)
    return np.column_stack([words, table.contexts[runs[:-1], :-1][interior]]), counts


def _lower_tables(top: CountTable, summed: bool) -> Dict[int, CountTable]:
    """``top`` and each lower order, derived from the one above it."""
    tables = {top.order: top}
    for k in range(top.order - 1, 0, -1):
        tables[k] = CountTable(k, *lower_order(tables[k + 1], summed))
    return tables


def marginal_tables(top: CountTable) -> Dict[int, CountTable]:
    """Raw count tables for all orders 1..top.order, each equal to
    ``count_ngrams`` at its order: a position's order-(k-1) window is its
    order-k window less the oldest word, and every order pads a sentence so
    that each position is counted once."""
    return _lower_tables(top, summed=True)


def adjusted_tables(top: CountTable) -> Dict[int, CountTable]:
    """Adjusted tables for all orders 1..top.order.

    Raw counts at the top order; each lower order is the type-count table of
    the adjusted table one order above: the value at key ``g`` is the number
    of distinct words ``x`` such that ``g + (x,)`` is in that table, i.e.
    the size of the run of ``g`` among its keys less their oldest word.
    """
    return _lower_tables(top, summed=False)


def read_sentences(path: str) -> List[List[str]]:
    """Read a one-sentence-per-line, whitespace-tokenized UTF-8 corpus.

    Blank lines are skipped.  Raises EmptyCorpusError if nothing remains.
    """
    sentences: List[List[str]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            toks = line.split()
            if toks:
                sentences.append(toks)
    if not sentences:
        raise EmptyCorpusError(f"no sentences in {path}")
    return sentences
