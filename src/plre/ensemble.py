"""Power low-rank ensembles: the smoothing engine.

A model of order n keeps one *level* per order n, n-1, ..., 2 plus a unigram
base distribution.  The level of order k owns an adjusted count table
c̃_k — raw counts at the top order, and at every lower order the number of
distinct one-word-older extensions in the adjusted table one order above —
and a chain of element-wise powers 1 = rho_0 > rho_1 > ... > rho_eta > 0.
Each step j of the chain discounts the powered counts c̃^rho_j by
d* * c̃^rho_{j+1} and hands the removed mass to the next step through

    gamma_j(h) = d* * sum_w c̃(w,h)^rho_{j+1} / sum_w c̃(w,h)^rho_j ,

which makes the per-context identity

    c̃^rho_j / S_j(h)  =  (c̃^rho_j - d* c̃^rho_{j+1}) / S_j(h)
                          + gamma_j(h) * c̃^rho_{j+1} / S_{j+1}(h)

hold exactly.  The j = 0 term stays sparse; each intermediate term is
factorized per slice at low rank (conditional lookups then cost one
L-row . R-column inner product); after the last step the gamma product
hands off to the level one order lower.  Querying walks the levels top-down
and ends at the base distribution.

Two facts make the whole ensemble preserve the observed lower-order
marginals: the factorization preserves per-slice row sums (exactly for the
closed-form rank-1 and full-rank paths, to reported tolerance for iterative
NMF), and the adjusted tables are derived recursively from support, so the
discounted mass a level releases is exactly the mass the next level's table
normalizes over.

Each level is one sorted-array table (the layout of KenLM, Heafield, WMT
2011), and one vectorized walk, ``PlreModel.score``, answers every query.
"""

from __future__ import annotations

import math
from collections import abc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .baselines import (
    count_of_counts,
    good_turing_discount,
    make_base_distribution,
)
from .corpus import CountTable, Key, Vocabulary, adjusted_tables
from .errors import ConfigError, FactorizationError
from .factorization import (
    ConvergenceReport,
    FactorPair,
    SparseMatrix,
    nmf_gkl,
    sum_residual,
)


class OpCounter:
    """Counts multiply-adds spent in low-rank lookups (query-cost probe)."""

    __slots__ = ("muladds",)

    def __init__(self):
        self.muladds = 0


class PoweredCounts:
    """Element-wise power of a count table over its sparse support.

    Zeros stay absent for every power (0^rho := 0, including rho = 0), so a
    power-0 table is the binary support pattern and its context sums are the
    distinct-continuation counts N+.
    """

    __slots__ = ("order", "power", "entries", "context_sums", "source")

    def __init__(self, source: CountTable, power: float):
        if not 0.0 <= power <= 1.0:
            raise ValueError(f"power must be in [0, 1], got {power}")
        self.source = source
        self.order = source.order
        self.power = power
        if power == 1.0:
            self.entries = {key: float(c) for key, c in source.entries.items()}
        elif power == 0.0:
            self.entries = {key: 1.0 for key in source.entries}
        else:
            self.entries = {key: c**power for key, c in source.entries.items()}
        sums: Dict[Key, float] = {}
        for key, v in self.entries.items():
            h = key[1:]
            sums[h] = sums.get(h, 0.0) + v
        self.context_sums = sums


def power_counts(table: CountTable, power: float) -> PoweredCounts:
    return PoweredCounts(table, power)


@dataclass
class DiscountSpec:
    """Discount step j of a level's power chain.

    The implied discount for an entry with count c is d* * c^next_power;
    gamma maps every observed context to the fraction of this step's powered
    mass handed to the next step.
    """

    level: int
    power: float
    next_power: float
    dstar: float
    gamma: Dict[Key, float]

    def discount(self, count: int) -> float:
        return self.dstar * count**self.next_power


def compute_discounts(
    base: PoweredCounts, next_power: float, dstar: float, level: int = 0
) -> DiscountSpec:
    """Discounts and gammas for one chain step (powered counts at rho_j in,
    target power rho_{j+1})."""
    if not 0.0 <= next_power <= base.power:
        raise ValueError(
            f"next power {next_power} must lie in [0, {base.power}] (descending chain)"
        )
    if not 0.0 <= dstar <= 1.0:
        raise ValueError(f"d* must be in [0, 1], got {dstar}")
    next_sums: Dict[Key, float] = {}
    for key, c in base.source.entries.items():
        h = key[1:]
        next_sums[h] = next_sums.get(h, 0.0) + float(c) ** next_power
    gamma = {
        h: dstar * next_sums[h] / s for h, s in base.context_sums.items()
    }
    return DiscountSpec(level, base.power, next_power, dstar, gamma)


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


@dataclass(eq=False)
class LowRankCPT:
    """Discounted low-rank conditional probability table for one chain step.

    Slice s, keyed by interior context ``slices[s]`` (the context without
    its oldest word), has ``dims[s] = (rows, cols, rank)``: runs of
    ``row_ids`` (predicted words) and ``col_ids`` (oldest words), and
    row-major factors L (rows x rank) and R (rank x cols) as runs of ``L``
    and ``R``.  A lookup is one L-row . R-column product over the powered
    context sum in ``denominators``, aligned with the level's contexts.
    """

    order: int
    rank: int
    slices: np.ndarray
    dims: np.ndarray
    row_ids: np.ndarray
    col_ids: np.ndarray
    L: np.ndarray
    R: np.ndarray
    denominators: np.ndarray
    reports: List[ConvergenceReport] = field(default_factory=list)

    def __post_init__(self):
        # int64 ids: numpy would convert narrower index arrays on every use.
        self.row_ids, self.col_ids = self.row_ids.astype(np.int64), self.col_ids.astype(np.int64)
        k, s = self.order, len(self.slices)
        if self.dims.shape != (s, 3) or self.slices.shape[1:] != (k - 2,):
            raise ValueError(f"order {k}: slice keys disagree with slice dims")
        rows, cols, ranks = self.dims.astype(np.int64).T
        if np.any(ranks < 1) or np.any(ranks > np.minimum(rows, cols).clip(max=self.rank)):
            raise ValueError(f"order {k}: slice ranks outside [1, min(rows, cols, rank)]")
        self.row_start = _segments(rows)
        self.col_start = _segments(cols)
        self.L_start = _segments(rows * ranks)
        self.R_start = _segments(ranks * cols)
        sizes = (self.row_start, self.col_start, self.L_start, self.R_start)
        arrays = (self.row_ids, self.col_ids, self.L, self.R)
        if [len(a) for a in arrays] != [offsets[-1] for offsets in sizes]:
            raise ValueError(f"order {k}: slice arrays disagree with slice dims")

    def link(
        self, parent: np.ndarray, ctx_parent: np.ndarray, oldest: np.ndarray, vsize: int
    ) -> None:
        """Index the slices, whose interiors are the contexts ``parent``
        one order lower, and give each of the level's contexts (its parent
        and its oldest word) its slice and column, or slice -1 if none."""
        _strictly_increasing(parent, f"order {self.order} slice keys")
        ids = np.arange(len(parent))
        self.vsize = vsize
        self.row_code = np.repeat(ids, np.diff(self.row_start)) * vsize + self.row_ids
        col_code = np.repeat(ids, np.diff(self.col_start)) * vsize + self.col_ids
        _strictly_increasing(self.row_code, f"order {self.order} slice row ids")
        _strictly_increasing(col_code, f"order {self.order} slice column ids")
        s, hit = _find(parent, ctx_parent)
        pos, col_hit = _find(col_code, s * vsize + oldest)
        self.ctx_slice = np.where(hit & col_hit, s, -1)
        self.ctx_col = pos - self.col_start[s]

    def factors(self, s: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(row ids, column ids, L, R) of slice s, as views."""
        rows, cols, rank = self.dims[s].tolist()
        return (
            self.row_ids[self.row_start[s] : self.row_start[s + 1]],
            self.col_ids[self.col_start[s] : self.col_start[s + 1]],
            self.L[self.L_start[s] : self.L_start[s + 1]].reshape(rows, rank),
            self.R[self.R_start[s] : self.R_start[s + 1]].reshape(rank, cols),
        )

    def values(
        self, ctx: np.ndarray, words: np.ndarray, counter: Optional[OpCounter] = None
    ) -> np.ndarray:
        """Z(w | h) for a batch of the level's contexts ``ctx``; 0 where the
        slice, its row or its column is absent."""
        s, j = self.ctx_slice[ctx], self.ctx_col[ctx]
        # Row codes are nonnegative, so slice -1 finds no row.
        pos, hit = _find(self.row_code, s * self.vsize + words)
        s, j, pos = s[hit], j[hit], pos[hit]
        rank = self.dims[s, 2].astype(np.int64)
        cols = self.dims[s, 1].astype(np.int64)
        left = self.L_start[s] + (pos - self.row_start[s]) * rank
        right = self.R_start[s] + j
        # One rank term at a time, in order, like a plain dot product.
        dot = np.zeros(len(s))
        for t in range(int(rank.max(initial=0))):
            live = rank > t
            dot[live] += self.L[left[live] + t] * self.R[right[live] + t * cols[live]]
        out = np.zeros(len(words))
        out[hit] = dot / self.denominators[ctx[hit]]
        if counter is not None:
            counter.muladds += int(rank.sum())
        return out


def _factor_slice(
    entries: Dict[Tuple[int, int], float],
    rank: int,
    max_iters: int,
    rel_tol: float,
    eps: float,
    seed: np.random.SeedSequence,
) -> Tuple[FactorPair, List[int], List[int], ConvergenceReport]:
    row_ids = sorted({w for w, _ in entries})
    col_ids = sorted({x for _, x in entries})
    row_index = {w: i for i, w in enumerate(row_ids)}
    col_index = {x: j for j, x in enumerate(col_ids)}
    M = SparseMatrix(
        len(row_ids),
        len(col_ids),
        {(row_index[w], col_index[x]): v for (w, x), v in entries.items()},
    )
    small = min(M.rows, M.cols)
    if rank >= small > 1:
        # Requested rank covers the slice: reproduce it exactly instead of
        # iterating toward it.  Identity on the smaller side keeps the
        # stored rank at min(rows, cols).
        if M.rows <= M.cols:
            pair = FactorPair(np.eye(M.rows), M.to_dense())
        else:
            pair = FactorPair(M.to_dense(), np.eye(M.cols))
        row_res, col_res = sum_residual(M, pair)
        report = ConvergenceReport(
            iterations=0,
            final_gkl=0.0,
            max_row_residual=row_res,
            max_col_residual=col_res,
            rank=small,
            converged=True,
            objective_history=[0.0],
        )
    else:
        pair, report = nmf_gkl(
            M, rank, max_iters=max_iters, rel_tol=rel_tol, eps=eps, seed=seed
        )
    return pair, row_ids, col_ids, report


def _concat(parts: List[np.ndarray], dtype) -> np.ndarray:
    return np.concatenate(parts).astype(dtype) if parts else np.zeros(0, dtype=dtype)


def compute_z(
    base: PoweredCounts,
    spec: DiscountSpec,
    rank: int,
    max_iters: int = 200,
    rel_tol: float = 1e-6,
    eps: float = 1e-12,
    seed: int = 0,
    threads: int = 1,
) -> LowRankCPT:
    """Factorize the discounted powered counts into a LowRankCPT.

    Each interior-context slice (predicted word x oldest context word) is
    compacted to its nonzero rows/columns and factorized at
    min(rank, slice dims); conditional queries divide by the undiscounted
    powered context sums, so column-sum preservation of the factorization
    is exactly what keeps each level's terms summing to gamma-complementary
    mass.  Slices whose entries are all discounted away are skipped (their
    contexts then contribute only through gamma).  Deterministic for a
    given seed, regardless of thread count.
    """
    if rank < 1:
        raise ConfigError(f"rank must be >= 1, got {rank}")
    if base.order < 2:
        raise ValueError("low-rank tables need order >= 2")
    slice_entries: Dict[Key, Dict[Tuple[int, int], float]] = {}
    for key, powered in base.entries.items():
        v = powered - spec.discount(base.source.entries[key])
        if v < -1e-9 * max(1.0, powered):
            raise FactorizationError(
                f"negative discounted count {v} at {key}: discount bound broken"
            )
        if v <= 0.0:
            continue
        slice_entries.setdefault(key[1:-1], {})[(key[0], key[-1])] = v

    interiors = sorted(slice_entries)

    def task(item: Tuple[int, Key]):
        idx, interior = item
        seq = np.random.SeedSequence(
            entropy=seed, spawn_key=(base.order, spec.level, idx)
        )
        return _factor_slice(slice_entries[interior], rank, max_iters, rel_tol, eps, seq)

    if threads > 1 and len(interiors) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(task, enumerate(interiors)))
    else:
        results = [task(item) for item in enumerate(interiors)]
    pairs, rows, cols, reports = zip(*results) if results else ((), (), (), ())
    # Contexts sorted as tuples: the order the level's table keeps them in.
    contexts = sorted(base.context_sums)
    return LowRankCPT(
        base.order,
        rank,
        slices=np.array(interiors, dtype=np.int32).reshape(len(interiors), base.order - 2),
        dims=np.array(
            [(len(r), len(c), p.rank) for p, r, c in zip(pairs, rows, cols)], dtype=np.int32
        ).reshape(len(pairs), 3),
        row_ids=_concat(rows, np.int32),
        col_ids=_concat(cols, np.int32),
        L=_concat([p.L.ravel() for p in pairs], np.float64),
        R=_concat([p.R.ravel() for p in pairs], np.float64),
        denominators=np.array([base.context_sums[h] for h in contexts]),
        reports=list(reports),
    )


def derive_dstar(d_gt: float, eta: int) -> float:
    """(eta+1)-th root of a discount: the chain of eta+1 steps then hands
    off exactly d_gt-worth of mass, matching a single-discount smoother."""
    if not 0.0 < d_gt < 1.0:
        raise ValueError(f"discount must be in (0, 1), got {d_gt}")
    if eta < 0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    return d_gt ** (1.0 / (eta + 1))


class ContextTotals(abc.Mapping):
    """Read-only view of one level's context totals, keyed by context tuple."""

    def __init__(self, level: "PlreLevel"):
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
class PlreLevel:
    """One order's stack as one sorted-array table.

    ``keys`` (n x order, most-recent-first) are sorted by context, then
    word, and carry ``counts`` and the sparse term's ``top`` numerators.
    Context c, derived from the keys, owns entries ``ctx_start[c]:
    ctx_start[c+1]``; ``totals``, ``gammas`` rows and each low-rank table's
    ``denominators`` are aligned with the contexts.  A context is coded as
    its parent's index one order lower times V plus its oldest word.
    """

    order: int
    dstar: float
    powers: Tuple[float, ...]
    keys: np.ndarray
    counts: np.ndarray
    top: np.ndarray
    gammas: np.ndarray
    z_tables: List[LowRankCPT]

    def __post_init__(self):
        self.keys = self.keys.astype(np.int64)  # as LowRankCPT's ids
        n, k, eta = len(self.keys), self.order, len(self.powers)
        shapes = (self.keys.shape, self.counts.shape, self.top.shape)
        if n == 0 or shapes != ((n, k), (n,), (n,)):
            raise ValueError(f"order {k}: table arrays disagree in length")
        change = np.flatnonzero(np.any(self.keys[1:, 1:] != self.keys[:-1, 1:], axis=1)) + 1
        self.ctx_start = np.concatenate(([0], change, [n])).astype(np.int64)
        self.contexts = self.keys[self.ctx_start[:-1], 1:]
        self.totals = np.add.reduceat(self.counts, self.ctx_start[:-1])
        m = len(self.contexts)
        if self.gammas.shape != (eta + 1, m) or len(self.z_tables) != eta or any(
            z.denominators.shape != (m,) for z in self.z_tables
        ):
            raise ValueError(f"order {k}: gamma/z tables disagree with keys or power chain")
        self.ctx_of_entry = np.repeat(np.arange(m), np.diff(self.ctx_start))

    @property
    def eta(self) -> int:
        return len(self.powers)

    @property
    def context_totals(self) -> ContextTotals:
        return ContextTotals(self)

    def link(self, lower: Optional["PlreLevel"], vsize: int) -> None:
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


class PlreModel:
    """Assembled ensemble: levels for orders n..2 plus the unigram base."""

    def __init__(
        self,
        vocab: Vocabulary,
        order: int,
        levels: Dict[int, PlreLevel],
        base_counts: np.ndarray,
        dstars: Dict[int, float],
        resolved_ranks: Dict[int, Tuple[int, ...]],
        seed: int,
        warnings: Optional[List[str]] = None,
    ):
        self.vocab = vocab
        self.order = order
        self.levels = levels
        self.base_counts = np.asarray(base_counts, dtype=np.int64)
        self.base = make_base_distribution(self.base_counts)
        self.dstars = dstars
        self.resolved_ranks = resolved_ranks
        self.seed = seed
        self.warnings = warnings or []
        self.smoother = "plre"
        lower = None
        for k in range(2, order + 1):
            levels[k].link(lower, len(vocab))
            lower = levels[k]

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

    def dists(self, contexts) -> Iterator[np.ndarray]:
        """Conditional distribution over the whole vocabulary for each row
        of ``contexts``, with the rows found in one walk."""
        contexts = np.asarray(contexts, dtype=np.int64)[:, : self.order - 1]
        found = self._lookup(contexts)
        for i in range(len(contexts)):
            acc = np.zeros(len(self.vocab))
            mult = 1.0
            for k in range(contexts.shape[1] + 1, 1, -1):
                ctx, ok = found[k - 1]
                if ok[i]:
                    vec, g = self.levels[k].column(int(ctx[i]))
                    acc += mult * vec
                    mult *= g
            yield acc + mult * self.base

    def dist(self, context: Sequence[int] = ()) -> np.ndarray:
        """Conditional distribution over the whole vocabulary."""
        return next(self.dists([tuple(context)]))

    def check_discount_bounds(self) -> float:
        """Max violation of 0 <= D_j(w,h) <= c̃(w,h)^rho_j over everything."""
        worst = [0.0]
        for level in self.levels.values():
            counts = level.counts.astype(np.float64)
            chain = (1.0,) + level.powers + (0.0,)
            for j in range(len(chain) - 1):
                d = level.dstar * counts ** chain[j + 1]
                worst.append(np.max(d - counts ** chain[j], initial=0.0))
                worst.append(np.max(-d, initial=0.0))
        return float(np.max(worst))

    def check_local_constraints(self) -> float:
        """Max violation of the per-entry discount identity across all levels.

        For every entry, chain step j must satisfy
        c^rho_j/S_j(h) = (c^rho_j - D_j)/S_j(h) + gamma_j(h) * c^rho_{j+1}/S_{j+1}(h),
        where the powered context sums S are recomputed here from the raw
        level counts rather than read from the model.
        """
        worst = [0.0]
        for level in self.levels.values():
            counts = level.counts.astype(np.float64)
            h = level.ctx_of_entry
            powered = [counts**rho for rho in (1.0,) + level.powers + (0.0,)]
            sums = [np.add.reduceat(p, level.ctx_start[:-1])[h] for p in powered]
            for j in range(len(powered) - 1):
                cj, cn = powered[j], powered[j + 1]
                lhs = cj / sums[j]
                rhs = (cj - level.dstar * cn) / sums[j]
                rhs += level.gammas[j][h] * cn / sums[j + 1]
                worst.append(np.max(np.abs(lhs - rhs)))
        return float(np.max(worst))

    def check_gamma_closed_form(self) -> float:
        """Max deviation of each level's gamma product from
        d*^(eta+1) * N+(h) / c̃(h) over all observed contexts."""
        worst = [0.0]
        for level in self.levels.values():
            nplus = np.diff(level.ctx_start)
            expected = level.dstar ** (level.eta + 1) * nplus / level.totals
            worst.append(np.max(np.abs(np.prod(level.gammas, axis=0) - expected)))
        return float(np.max(worst))

    def convergence_reports(self) -> List[ConvergenceReport]:
        """All per-slice factorization reports (empty for loaded models)."""
        tables = [z for level in self.levels.values() for z in level.z_tables]
        return [r for z in tables for r in z.reports]


def _resolve_rank(value: Union[int, float], vsize: int) -> Tuple[int, Optional[str]]:
    """Absolute rank, or a vocabulary fraction resolved as ceil(f*V)."""
    if isinstance(value, float) and 0.0 < value < 1.0:
        return max(1, math.ceil(value * vsize)), None
    rank = int(value)
    if rank < 1:
        raise ConfigError(f"rank must be positive or a fraction in (0,1): {value}")
    if rank > vsize:
        return vsize, f"rank {rank} clamped to vocabulary size {vsize}"
    return rank, None


def default_powers(order: int) -> Dict[int, Tuple[float, ...]]:
    """One intermediate power 0.5 per order, except none at orders >= 4
    (the low-rank 4-gram term buys little and costs the most)."""
    return {k: ((0.5,) if k <= 3 else ()) for k in range(2, order + 1)}


def build_plre(
    tables: Union[CountTable, Mapping[int, CountTable]],
    vocab: Vocabulary,
    powers: Optional[Dict[int, Tuple[float, ...]]] = None,
    ranks: Optional[Dict[int, Tuple[Union[int, float], ...]]] = None,
    dstar: Union[str, float] = "gt-root",
    nmf_max_iters: int = 200,
    nmf_rel_tol: float = 1e-6,
    nmf_eps: float = 1e-12,
    seed: int = 0,
    threads: int = 1,
) -> PlreModel:
    """Build a PLRE model from the top-order raw count table.

    ``powers[k]`` is the tuple of intermediate powers for the order-k level
    (strictly descending, all in (0,1) exclusive; empty for a pure
    sparse-plus-handoff level); ``ranks[k]`` gives one rank per intermediate
    power, each either an absolute int or a vocabulary fraction in (0,1).
    ``dstar`` is "gt-root" (per-order Good-Turing estimate through the
    root rule) or a fixed float in (0,1) used at every order.
    """
    top = tables if isinstance(tables, CountTable) else tables[max(tables)]
    order = top.order
    if order < 2:
        raise ConfigError("PLRE needs order >= 2")
    if powers is None:
        powers = default_powers(order)
    if ranks is None:
        ranks = {k: tuple(0.005 for _ in powers.get(k, ())) for k in powers}

    warnings: List[str] = []
    vsize = len(vocab)
    resolved_ranks: Dict[int, Tuple[int, ...]] = {}
    for k in range(2, order + 1):
        chain = tuple(powers.get(k, ()))
        for lo, hi in zip(chain[1:], chain[:-1]):
            if not lo < hi:
                raise ConfigError(f"powers for order {k} must strictly descend: {chain}")
        if chain and not (0.0 < chain[-1] and chain[0] < 1.0):
            raise ConfigError(f"powers for order {k} must lie strictly in (0,1): {chain}")
        rk = tuple(ranks.get(k, ()))
        if len(rk) != len(chain):
            raise ConfigError(
                f"order {k}: {len(chain)} power(s) but {len(rk)} rank(s)"
            )
        resolved = []
        for value in rk:
            r, warn = _resolve_rank(value, vsize)
            if warn:
                warnings.append(f"order {k}: {warn}")
            resolved.append(r)
        resolved_ranks[k] = tuple(resolved)

    ctabs = adjusted_tables(top)
    dstars: Dict[int, float] = {}
    levels: Dict[int, PlreLevel] = {}
    for k in range(order, 1, -1):
        ctab = ctabs[k]
        chain_mid = tuple(powers.get(k, ()))
        eta = len(chain_mid)
        if dstar == "gt-root":
            n1, n2, _, _ = count_of_counts(ctab.entries.values())
            dstars[k] = derive_dstar(good_turing_discount(n1, n2), eta)
        else:
            d = float(dstar)
            if not 0.0 < d < 1.0:
                raise ConfigError(f"fixed d* must be in (0,1), got {dstar}")
            dstars[k] = d
        chain = (1.0,) + chain_mid + (0.0,)

        powered = [power_counts(ctab, rho) for rho in chain[:-1]]
        specs = [
            compute_discounts(powered[j], chain[j + 1], dstars[k], level=j)
            for j in range(eta + 1)
        ]
        keys, counts = ctab.arrays()
        top = np.array([float(c) - specs[0].discount(c) for c in counts.tolist()])
        # Contexts sorted as tuples: the order of the sorted keys' contexts.
        contexts = sorted(specs[0].gamma)
        z_tables = [
            compute_z(
                powered[j],
                specs[j],
                resolved_ranks[k][j - 1],
                max_iters=nmf_max_iters,
                rel_tol=nmf_rel_tol,
                eps=nmf_eps,
                seed=seed,
                threads=threads,
            )
            for j in range(1, eta + 1)
        ]
        levels[k] = PlreLevel(
            order=k,
            dstar=dstars[k],
            powers=chain_mid,
            keys=keys,
            counts=counts,
            top=top,
            gammas=np.array([[spec.gamma[h] for h in contexts] for spec in specs]),
            z_tables=z_tables,
        )

    base_counts = np.zeros(vsize, dtype=np.int64)
    for (w,), c in ctabs[1].entries.items():
        base_counts[w] = c
    return PlreModel(
        vocab,
        order,
        levels,
        base_counts,
        dstars,
        resolved_ranks,
        seed,
        warnings,
    )


def verify_marginal(model: PlreModel, order: Optional[int] = None) -> float:
    """Brute-force marginal-constraint check at one order.

    Sums P(w|h) * P̂(h) over every context h observed in the order-k adjusted
    table (weights = the table's context marginals) and compares, per
    vocabulary word, against the table's own word marginals.  At the top
    order the adjusted table is the raw table, so this is exactly the
    preserve-the-observed-(n-1)-gram-distribution statement; the returned
    value is the max absolute violation over the vocabulary.
    """
    k = model.order if order is None else order
    if not 2 <= k <= model.order:
        raise ValueError(f"order must be in [2, {model.order}], got {k}")
    level = model.levels[k]
    vsize = len(model.vocab)
    total = float(level.totals.sum())
    expected = np.zeros(vsize)
    np.add.at(expected, level.keys[:, 0], level.counts)
    expected /= total
    acc = np.zeros(vsize)
    for ctx_count, vec in zip(level.totals.tolist(), model.dists(level.contexts)):
        acc += (ctx_count / total) * vec
    return float(np.max(np.abs(acc - expected)))


def marginal_error_bound(model: PlreModel, order: Optional[int] = None) -> float:
    """Upper bound on verify_marginal implied by the stored factors.

    The marginal identity telescopes exactly except where a low-rank slice
    fails to reproduce its target's row sums; every such failure enters the
    order-k marginal at a closed-form weight (the handoff mass arriving at
    that level times d*^j over the level total).  Summing |row-sum residual|
    worst-case per word therefore bounds the marginal deviation, and the
    bound is zero for closed-form rank-1 and full-rank slices.
    """
    k = model.order if order is None else order
    if not 2 <= k <= model.order:
        raise ValueError(f"order must be in [2, {model.order}], got {k}")
    bound = 0.0
    lam = 1.0
    upper_total = None
    for kk in range(k, 1, -1):
        level = model.levels[kk]
        total = float(level.totals.sum())
        if upper_total is not None:
            up = model.levels[kk + 1]
            lam *= (up.dstar ** (up.eta + 1)) * total / upper_total
        chain = (1.0,) + level.powers + (0.0,)
        counts = level.counts.astype(np.float64)
        for j, z in enumerate(level.z_tables, start=1):
            # Factor row sums minus target row sums, summed per word over
            # the slices; entries discounted to zero have no target.
            v = counts ** chain[j] - level.dstar * counts ** chain[j + 1]
            resid = np.zeros(len(model.vocab))
            np.add.at(resid, level.keys[:, 0], -np.maximum(v, 0.0))
            for s in range(len(z.slices)):
                rows, _, L, R = z.factors(s)
                resid[rows] += L @ R.sum(axis=1)
            bound += lam * (level.dstar ** j) / total * float(np.max(np.abs(resid)))
        upper_total = total
    return bound
