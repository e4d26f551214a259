"""Corpus ingestion: vocabulary building, n-gram counting, continuation counts.

Conventions used throughout the toolkit:

* A sentence is a list of token ids; text input is one sentence per line,
  whitespace-tokenized, UTF-8.
* N-gram keys are tuples ordered most-recent-word-first:
  ``(w_i, w_{i-1}, ..., w_{i-n+1})``.  The context of a key is ``key[1:]``,
  i.e. ``(w_{i-1}, ..., w_{i-n+1})``.
* The order-k counter pads each sentence with ``k-1`` bos symbols and one
  eos symbol, so every counted position has a full-length context and the
  unigram table contains no bos.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .errors import DataError, EmptyCorpusError

UNK = "<unk>"
BOS = "<s>"
EOS = "</s>"

Key = Tuple[int, ...]


class Vocabulary:
    """Bidirectional word/id map with reserved unk, bos and eos symbols.

    Ids 0, 1, 2 are always unk, bos, eos; remaining types are assigned ids in
    frequency-descending order with ties broken by first occurrence, which
    makes id assignment deterministic for a given corpus.
    """

    def __init__(self, words: List[str], counts: List[int]):
        if words[:3] != [UNK, BOS, EOS]:
            raise DataError("vocabulary must start with reserved symbols")
        self.id_to_word = list(words)
        self.counts = list(counts)
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

    def export_lines(self) -> List[str]:
        """One ``word<TAB>id<TAB>count`` line per type, in id order."""
        return [
            f"{w}\t{i}\t{c}"
            for i, (w, c) in enumerate(zip(self.id_to_word, self.counts))
        ]

    @classmethod
    def from_export_lines(cls, lines: Iterable[str]) -> "Vocabulary":
        words: List[str] = []
        counts: List[int] = []
        for lineno, line in enumerate(lines):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DataError(f"vocab line {lineno}: expected 3 fields")
            word, ident, count = parts
            if int(ident) != len(words):
                raise DataError(f"vocab line {lineno}: ids must be dense and sorted")
            words.append(word)
            counts.append(int(count))
        if not words:
            raise EmptyCorpusError("empty vocabulary export")
        return cls(words, counts)


def build_vocabulary(
    sentences: Iterable[Sequence[str]], unk_threshold: int = 1
) -> Vocabulary:
    """Build a vocabulary from tokenized sentences.

    Every type with corpus frequency <= ``unk_threshold`` is dropped from the
    vocabulary (its occurrences will encode to unk).  Literal occurrences of
    the reserved symbols count toward the reserved entries rather than
    introducing duplicates.
    """
    freq: Counter[str] = Counter()
    first_seen: Dict[str, int] = {}
    n_tokens = 0
    for sent in sentences:
        for tok in sent:
            freq[tok] += 1
            if tok not in first_seen:
                first_seen[tok] = n_tokens
            n_tokens += 1
    if n_tokens == 0:
        raise EmptyCorpusError("no tokens in corpus")

    reserved_counts = {sym: freq.pop(sym, 0) for sym in (UNK, BOS, EOS)}
    kept = [w for w, c in freq.items() if c > unk_threshold]
    kept.sort(key=lambda w: (-freq[w], first_seen[w]))
    unk_count = reserved_counts[UNK] + sum(
        c for w, c in freq.items() if c <= unk_threshold
    )

    words = [UNK, BOS, EOS] + kept
    counts = [unk_count, reserved_counts[BOS], reserved_counts[EOS]]
    counts += [freq[w] for w in kept]
    return Vocabulary(words, counts)


class CountTable:
    """Sparse counts for one n-gram order.

    ``entries`` maps most-recent-first keys to counts; ``context_totals``
    maps ``key[1:]`` to the sum of counts over the predicted word, and
    ``total`` is the grand total.  Values are ints for raw tables and for
    the type-count (adjusted) tables derived from them.
    """

    __slots__ = ("order", "entries", "context_totals", "total")

    def __init__(self, order: int, entries: Dict[Key, int]):
        self.order = order
        self.entries = entries
        self.context_totals: Dict[Key, int] = defaultdict(int)
        for key, c in entries.items():
            self.context_totals[key[1:]] += c
        self.context_totals = dict(self.context_totals)
        self.total = sum(self.context_totals.values())

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """(keys as an n x order id array, counts), sorted by context then
        predicted word."""
        n = len(self.entries)
        keys = np.array(list(self.entries), dtype=np.int32).reshape(n, self.order)
        counts = np.fromiter(self.entries.values(), dtype=np.int64, count=n)
        # Sort by context (most recent word first), then predicted word.
        perm = np.lexsort([keys[:, c] for c in [0] + list(range(self.order - 1, 0, -1))])
        return keys[perm], counts[perm]


def count_ngrams(
    sentences: Iterable[Sequence[int]],
    order: int,
    bos_id: int = Vocabulary.bos_id,
    eos_id: int = Vocabulary.eos_id,
) -> CountTable:
    """Count order-``order`` n-grams over id sentences.

    Each sentence is padded with ``order-1`` bos ids and a single eos id;
    keys are most-recent-word-first.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    entries: Dict[Key, int] = defaultdict(int)
    pad = [bos_id] * (order - 1)
    saw_any = False
    for sent in sentences:
        saw_any = True
        padded = pad + list(sent) + [eos_id]
        # Walk predicted positions; key = (w_i, w_{i-1}, ..., w_{i-order+1}).
        for i in range(order - 1, len(padded)):
            entries[tuple(padded[i - j] for j in range(order))] += 1
    if not saw_any:
        raise EmptyCorpusError("no sentences to count")
    return CountTable(order, dict(entries))


def count_all_orders(
    sentences: Sequence[Sequence[int]],
    max_order: int,
    bos_id: int = Vocabulary.bos_id,
    eos_id: int = Vocabulary.eos_id,
) -> Dict[int, CountTable]:
    """Raw count tables for every order 1..max_order over the same sentences."""
    return {
        k: count_ngrams(sentences, k, bos_id, eos_id)
        for k in range(1, max_order + 1)
    }


@dataclass
class ContinuationCounts:
    """Type counts derived from one table.

    ``n_minus`` maps each (order-1)-gram ``key[:-1]`` to the number of
    distinct one-word-older extensions it has in the table; ``n_plus`` maps
    each context ``key[1:]`` to its number of distinct predicted words.
    """

    n_minus: Dict[Key, int]
    n_plus: Dict[Key, int]


def continuation_counts(table: CountTable) -> ContinuationCounts:
    n_minus: Dict[Key, int] = defaultdict(int)
    n_plus: Dict[Key, int] = defaultdict(int)
    for key in table.entries:
        n_minus[key[:-1]] += 1
        n_plus[key[1:]] += 1
    return ContinuationCounts(dict(n_minus), dict(n_plus))


def continuation_table(table: CountTable) -> CountTable:
    """Order-(k-1) table of distinct-older-extension type counts.

    The value at key ``g`` is the number of distinct words ``x`` such that
    ``g + (x,)`` is in ``table``.  Applying this repeatedly from the raw
    top-order table down yields the adjusted count tables the smoothers use
    below the top order.
    """
    if table.order < 2:
        raise ValueError("cannot derive a lower order from a unigram table")
    cont = continuation_counts(table)
    return CountTable(table.order - 1, cont.n_minus)


def adjusted_tables(top: CountTable) -> Dict[int, CountTable]:
    """Adjusted tables for all orders 1..top.order.

    Raw counts at the top order; each lower order is the type-count table of
    the adjusted table one order above.
    """
    tables = {top.order: top}
    for k in range(top.order - 1, 0, -1):
        tables[k] = continuation_table(tables[k + 1])
    return tables


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
