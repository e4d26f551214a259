"""Corpus ingestion: vocabulary building, n-gram counting, adjusted tables.

Conventions used throughout the toolkit:

* A sentence is a list of token ids; text input is one sentence per line,
  whitespace-tokenized, UTF-8.
* N-gram keys (rows of an id array; tuples in mapping views) are ordered
  most-recent-word-first:
  ``(w_i, w_{i-1}, ..., w_{i-n+1})``.  The context of a key is ``key[1:]``,
  i.e. ``(w_{i-1}, ..., w_{i-n+1})``.
* A count table holds 1-D trie codes, not keys (the context encoding of
  Pauls and Klein, ACL 2011; KenLM's trie, Heafield, WMT 2011): a row one
  order lower times RADIX plus a word id.  A context is coded by its parent
  (the context less its oldest word) and its oldest word, an entry by its
  context and its word.  Ids are i4, below RADIX, so a code fits int64 for
  any vocabulary and order.  Sorted codes order contexts and entries as
  sorted keys would; keys are derived where digits are needed.
* The order-k counter pads each sentence with ``k-1`` bos symbols and one
  eos symbol, so every counted position has a full-length context and the
  unigram table contains no bos.
"""

from __future__ import annotations

import functools
import itertools
import types
from collections import Counter
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from .errors import DataError, EmptyCorpusError

UNK = "<unk>"
BOS = "<s>"
EOS = "</s>"

Key = Tuple[int, ...]

# A trie code's row is ``code >> CODE_BITS``, its word ``code & WORD_MASK``.
CODE_BITS = 31
RADIX = 1 << CODE_BITS
WORD_MASK = RADIX - 1
ROOT = np.zeros(1, dtype=np.int64)  # the code of order 1's one, empty context


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


def run_heads(values: np.ndarray) -> np.ndarray:
    """True at the first of each run of equal consecutive values."""
    heads = np.empty(len(values), dtype=bool)
    heads[:1] = True
    np.not_equal(values[1:], values[:-1], out=heads[1:])
    return heads


def run_starts(values: np.ndarray) -> np.ndarray:
    """CSR offsets of the runs of equal consecutive values."""
    return np.append(np.flatnonzero(run_heads(values)), len(values))


def _view(rows: np.ndarray, values: np.ndarray) -> Mapping[Key, int]:
    """A read-only dict from each row of an id array, as a tuple, to its value."""
    return types.MappingProxyType(dict(zip(map(tuple, rows.tolist()), values.tolist())))


def _read_digits(keys: np.ndarray) -> Tuple[Tuple[np.ndarray, ...], np.ndarray]:
    """(trie, entry codes) of keys sorted by context, then word, repeats
    allowed: after context column m, the runs of equal prefixes are the
    order-(m+1) contexts, each split from its parent's run by a word."""
    heads = np.zeros(len(keys), dtype=bool)
    heads[:1] = True
    row = np.zeros(len(keys), dtype=np.int64)  # each key's context row so far
    trie = [ROOT]
    for col in keys.T[1:]:
        heads[1:] |= col[1:] != col[:-1]
        at = np.flatnonzero(heads)
        trie.append(row[at] * RADIX + col[at])
        row = np.cumsum(heads) - 1
    return tuple(trie), row * RADIX + keys[:, 0]


class CountTable:
    """Counts for one n-gram order as sorted 1-D trie codes.

    ``trie[m - 1]`` codes the order-m contexts, m = 1..order (order 1's
    one context is the empty one, coded 0), each by its parent's row and
    its oldest word; ``ctx_code`` is this order's, ``parent`` their rows.
    ``entry_code`` codes each entry by its context's row and its predicted
    word (``words``), and carries ``counts``.  Every code array strictly
    increases.  Context c owns entries ``ctx_start[c]:ctx_start[c+1]`` and
    has ``totals[c]``.  ``keys`` (n x order) and ``contexts`` are derived
    digits, ``entries`` and ``context_totals`` read-only dict views of
    them keyed by tuples, in table order, each built on first use.
    """

    def __init__(self, trie: Tuple[np.ndarray, ...], entry_code: np.ndarray, counts: np.ndarray):
        if len(entry_code) == 0 or counts.shape != entry_code.shape:
            raise ValueError(f"order {len(trie)}: table arrays disagree in length")
        self.order = len(trie)
        self.trie = trie
        self.ctx_code = trie[-1]
        self.parent = self.ctx_code >> CODE_BITS
        self.entry_code = entry_code
        self.counts = counts.astype(np.int64, copy=False)
        self.ctx_of_entry = entry_code >> CODE_BITS
        self.words = entry_code & WORD_MASK
        self.ctx_start = run_starts(self.ctx_of_entry)  # every context has an entry
        # Integer sums, exact in floats too: a bincount is the fastest.
        self.totals = self.context_sums(self.counts).astype(np.int64)

    @classmethod
    def from_keys(cls, keys: np.ndarray, counts: np.ndarray) -> "CountTable":
        """The table of ``keys`` (ids below RADIX), which must be sorted by
        context, then word, and unique."""
        trie, entry_code = _read_digits(keys)
        for codes in (*trie[1:], entry_code):
            if np.any(codes[1:] <= codes[:-1]):
                raise ValueError(f"order {keys.shape[1]} keys must be sorted and unique")
        return cls(trie, entry_code, np.asarray(counts))

    def _digits(self, rows: np.ndarray) -> np.ndarray:
        """The words of this order's contexts at ``rows``, most recent first."""
        digits = np.empty((len(rows), self.order - 1), dtype=np.int64)
        for m in range(self.order - 1, 0, -1):
            code = self.trie[m][rows]
            digits[:, m - 1], rows = code & WORD_MASK, code >> CODE_BITS
        return digits

    @property
    def keys(self) -> np.ndarray:
        return np.column_stack([self.words, self._digits(self.ctx_of_entry)])

    @functools.cached_property
    def contexts(self) -> np.ndarray:
        return self._digits(np.arange(len(self.ctx_code)))

    @functools.cached_property
    def entries(self) -> Mapping[Key, int]:
        return _view(self.keys, self.counts)

    @functools.cached_property
    def context_totals(self) -> Mapping[Key, int]:
        return _view(self.contexts, self.totals)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @functools.cached_property
    def distinct_counts(self) -> Tuple[np.ndarray, np.ndarray]:
        """(the distinct counts, each entry's index among them): the run
        heads of the sorted counts, then one search per entry.  Unlike
        ``np.bincount``, this allocates nothing by the largest count."""
        ordered = np.sort(self.counts)
        distinct = ordered[run_heads(ordered)]
        return distinct, np.searchsorted(distinct, self.counts)

    def context_sums(self, values: np.ndarray) -> np.ndarray:
        """Per context, the sum of ``values`` (one per entry), added in key
        order: it follows from the keys and the values alone."""
        return np.bincount(self.ctx_of_entry, values, len(self.ctx_code))

    def lower_codes(self) -> np.ndarray:
        """Each entry less its oldest word, coded one order lower: its
        context's parent times RADIX plus its word."""
        return (self.parent * RADIX)[self.ctx_of_entry] + self.words

    def lower(self, summed: bool = False) -> "CountTable":
        """The table one order lower, one sort of ``lower_codes``: each code
        once, with the number of entries that share it (the adjusted table)
        or, if ``summed``, their counts' sum (the marginals)."""
        codes = self.lower_codes()
        if summed:
            perm = np.argsort(codes)
            codes, weights = codes[perm], self.counts[perm]
        else:
            codes = np.sort(codes)
        starts = run_starts(codes)
        counts = np.add.reduceat(weights, starts[:-1]) if summed else np.diff(starts)
        return CountTable(self.trie[:-1], codes[starts[:-1]], counts)


def count_ngrams(
    sentences: Iterable[Sequence[int]],
    order: int,
    bos_id: int = Vocabulary.bos_id,
    eos_id: int = Vocabulary.eos_id,
) -> CountTable:
    """Count order-``order`` n-grams over id sentences.

    Each sentence is padded with ``order-1`` bos ids and a single eos id;
    keys are most-recent-word-first.  The windows of the padded stream are
    sorted and read into codes, and each run of equal codes is one entry.
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
    if stream.min() < 0 or stream.max() >= RADIX:
        raise ValueError("a word id is outside [0, 2**31)")
    body = np.repeat(starts[:-1] + order - 1, lens + 1) + offsets(lens + 1)
    # Every position after the bos pad is predicted: key = (w_i, ..., w_{i-order+1}).
    windows = np.stack([stream[body - j] for j in range(order)], axis=1)
    # One lexsort by context, then word: packing a window into one int64
    # code would overflow.
    windows = windows[np.lexsort(windows.T[[0, *range(order - 1, 0, -1)]])]
    trie, codes = _read_digits(windows)
    starts = run_starts(codes)
    return CountTable(trie, codes[starts[:-1]], np.diff(starts))


def count_all_orders(
    sentences: Sequence[Sequence[int]],
    max_order: int,
    bos_id: int = Vocabulary.bos_id,
    eos_id: int = Vocabulary.eos_id,
) -> Dict[int, CountTable]:
    """Raw count tables for every order 1..max_order over the same sentences:
    the top order counted, the others its marginals."""
    return marginal_tables(count_ngrams(sentences, max_order, bos_id, eos_id))


def _lower_tables(top: CountTable, summed: bool) -> Dict[int, CountTable]:
    """``top`` and each lower order, derived from the one above it: the one
    loop every model derives its orders with."""
    tables = {top.order: top}
    for k in range(top.order - 1, 0, -1):
        tables[k] = tables[k + 1].lower(summed)
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
