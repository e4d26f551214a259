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
marginals: the factorization preserves per-slice row sums (to one
rounding for the closed-form rank-1 path, to reported tolerance for
iterative NMF), and the adjusted tables are derived recursively from
support, so the discounted mass a level releases is exactly the mass the
next level's table normalizes over.

Each level is one sorted-array table, and the walk that answers every
query is the one all models share (``levels.LevelModel.score``).  The
checks of these guarantees are ``plre.verify``'s, except the three that
read only each level's own arrays, which are ``PlreModel`` methods.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .baselines import count_of_counts, good_turing_discount
from .corpus import (
    CODE_BITS,
    RADIX,
    WORD_MASK,
    CountTable,
    Vocabulary,
    adjusted_tables,
    offsets,
    run_starts,
    segments,
)
from .errors import ConfigError, FactorizationError
from .factorization import ConvergenceReport, closed_form, factor_index, fit_reports, nmf_gkl_many
from .factorization import nmf_gkl  # noqa: F401  (not called here; bench/run.py traces it)
from .levels import Level, LevelModel, OpCounter, timed


def power_counts(table: CountTable, power: float) -> np.ndarray:
    """c^power for every entry of a count table: Python's float power once
    per distinct count, gathered (``np.power`` rounds some differently).
    Power 0 gives the binary support, whose context sums are N+."""
    if not 0.0 <= power <= 1.0:
        raise ValueError(f"power must be in [0, 1], got {power}")
    distinct, inverse = table.distinct_counts
    return np.array([float(c) ** power for c in distinct.tolist()])[inverse]


@dataclass(eq=False)
class DiscountSpec:
    """Step j of a level's power chain over the table's entries and contexts:
    ``powered`` c^rho_j loses ``discount`` d* c^rho_{j+1}; ``sums`` are the
    powered context sums S_j(h), and ``gamma`` = d* S_{j+1}(h) / S_j(h) the
    share of each context's mass handed to the next step."""

    table: CountTable
    level: int
    powered: np.ndarray
    discount: np.ndarray
    sums: np.ndarray
    gamma: np.ndarray

    @property
    def order(self) -> int:
        return self.table.order


def compute_discounts(
    table: CountTable, chain: Sequence[float], dstar: float
) -> List[DiscountSpec]:
    """The steps of a power chain rho_0 >= rho_1 >= ... over one table:
    step j discounts c^rho_j by d* c^rho_{j+1}."""
    for power, next_power in zip(chain, chain[1:]):
        if not 0.0 <= next_power <= power:
            raise ValueError(
                f"next power {next_power} must lie in [0, {power}] (descending chain)"
            )
    if not 0.0 <= dstar <= 1.0:
        raise ValueError(f"d* must be in [0, 1], got {dstar}")
    powered = [power_counts(table, rho) for rho in chain]
    sums = [table.context_sums(p) for p in powered]
    return [
        DiscountSpec(
            table,
            j,
            powered[j],
            dstar * powered[j + 1],
            sums[j],
            dstar * sums[j + 1] / sums[j],
        )
        for j in range(len(chain) - 1)
    ]


class SliceLayout:
    """Where a level's low-rank tables keep each slice, derived from the
    level's table and ``lower``, the table one order below.

    Slice s is ``lower``'s context s, the parent of a run of the table's
    contexts.  Its columns are that run's contexts, by their oldest words,
    so a context is its own column over all slices (``ctx_slice`` gives its
    slice, ``ctx_col`` its column within it).  Its rows are ``lower``'s
    entries of context s, by their words, numbered across all slices as
    ``lower``'s entries are.  Every discounted count of a chain step is
    positive, so each slice has ``nnz`` nonzeros: the table's entries in
    its columns.  Every chain step of a level shares its layout.
    """

    def __init__(self, table: CountTable, lower: CountTable):
        self.lower = lower
        self.ctx_slice = table.parent
        self.col_start = run_starts(table.parent)
        self.col_ids = table.ctx_code & WORD_MASK
        self.ctx_col = np.arange(len(table.parent)) - self.col_start[table.parent]
        self.row_ids, self.row_start = lower.words, lower.ctx_start
        self.rows, self.cols = np.diff(self.row_start), np.diff(self.col_start)
        self.nnz = np.diff(table.ctx_start[self.col_start])
        self.entry_code = table.entry_code

    @functools.cached_property
    def entry_rows(self) -> np.ndarray:
        """(order, row): the table's entries stably sorted by their codes
        one order lower (``CountTable.lower_codes``), and each one's row,
        ``lower`` (the adjusted table) counting the entries of each code.
        Made on first use, once per level: a load needs none."""
        code = self.entry_code
        codes = (self.ctx_slice * RADIX)[code >> CODE_BITS] + (code & WORD_MASK)
        # In the narrowest type that holds them: at order 2 the codes are
        # word ids, and numpy sorts 16-bit integers stably by radix.
        order = np.argsort(codes.astype(np.min_scalar_type(codes.max(initial=0))), kind="stable")
        return np.stack((order, np.repeat(np.arange(len(self.lower.counts)), self.lower.counts)))


@dataclass(eq=False)
class LowRankCPT:
    """Discounted low-rank conditional probability table for one chain step.

    Slice s of ``layout`` has ``dims[s] = (rows, cols, rank)``, its rank
    ``min(rank, max(1, nnz // (rows + cols)))``, so that its factors hold
    no more floats than it has nonzeros: ``rank`` is only a cap.  Its
    row-major factors L (rows x rank) and R (rank x cols) are runs of ``L``
    and ``R``, zero until ``compute_z`` writes them or a load reads them.
    ``row_ids`` and ``col_ids`` are the layout's.  A lookup is
    one L-row . R-column product over the powered context sum in
    ``denominators``, aligned with the level's contexts: the level that
    owns the table derives them (``PlreLevel``), and a container stores
    only the factors.  A lookup runs no search: its row is where the walk
    found (parent context, word) among the entries one order lower.
    """

    order: int
    rank: int
    layout: SliceLayout
    denominators: Optional[np.ndarray] = None
    reports: List[ConvergenceReport] = field(default_factory=list)

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"order {self.order}: rank must be >= 1, got {self.rank}")
        lay = self.layout
        self.row_ids, self.col_ids = lay.row_ids, lay.col_ids
        self.ranks = np.minimum(self.rank, np.maximum(1, lay.nnz // (lay.rows + lay.cols)))
        self.L_start = segments(lay.rows * self.ranks)
        self.R_start = segments(self.ranks * lay.cols)
        self.L, self.R = np.zeros(self.L_start[-1]), np.zeros(self.R_start[-1])

    @property
    def slices(self) -> np.ndarray:
        """Each slice's interior, most recent word first."""
        return self.layout.lower.contexts

    @functools.cached_property
    def index(self) -> Tuple[np.ndarray, ...]:
        """``factor_index`` of the slices, a column its context, made once."""
        lay = self.layout
        return factor_index(lay.rows, lay.cols, self.ranks, lay.col_start)

    @property
    def dims(self) -> np.ndarray:
        """(rows, cols, rank) of each slice."""
        return np.stack([self.layout.rows, self.layout.cols, self.ranks], axis=1)

    def factors(self, s: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(row ids, column ids, L, R) of slice s, as views."""
        lay, rank = self.layout, int(self.ranks[s])
        return (
            lay.row_ids[lay.row_start[s] : lay.row_start[s + 1]],
            lay.col_ids[lay.col_start[s] : lay.col_start[s + 1]],
            self.L[self.L_start[s] : self.L_start[s + 1]].reshape(-1, rank),
            self.R[self.R_start[s] : self.R_start[s + 1]].reshape(rank, -1),
        )

    def values(
        self,
        ctx: np.ndarray,
        pos: np.ndarray,
        hit: np.ndarray,
        counter: Optional[OpCounter] = None,
    ) -> np.ndarray:
        """Z(w | h) for a batch of the level's contexts ``ctx``; 0 where the
        word is no row of the context's slice.  The rows of slice s are the
        entries of context s one order lower (the base's words at order 2),
        so the walk's search there gives each query's row: ``pos`` is its
        place among them all and ``hit`` whether it is one."""
        lay = self.layout
        ctx, pos = ctx[hit], pos[hit]
        s = lay.ctx_slice[ctx]
        rank, cols = self.ranks[s], lay.cols[s]
        left = self.L_start[s] + (pos - lay.row_start[s]) * rank
        right = self.R_start[s] + lay.ctx_col[ctx]
        # One rank term at a time, in order, like a plain dot product; every
        # slice has the first.
        dot = self.L[left] * self.R[right]
        for t in range(1, int(rank.max(initial=0))):
            live = rank > t
            dot[live] += self.L[left[live] + t] * self.R[right[live] + t * cols[live]]
        out = np.zeros(len(hit))
        out[hit] = dot / self.denominators[ctx]
        if counter is not None:
            counter.muladds += int(rank.sum())
        return out


def compute_z(
    spec: DiscountSpec,
    rank: int,
    max_iters: int = 200,
    rel_tol: float = 1e-6,
    seed: int = 0,
    threads: int = 1,
    timings: Optional[Dict[str, float]] = None,
    layout: Optional[SliceLayout] = None,
) -> LowRankCPT:
    """Factorize a chain step's discounted powered counts into a LowRankCPT.

    Each slice (``SliceLayout``: predicted word x oldest context word per
    interior context, derived from ``spec.table`` unless given) is
    factorized at its rank from the rank rule, at most ``rank``.
    Conditional queries divide by the undiscounted powered context sums, so
    column-sum preservation of the factorization is exactly what keeps each
    level's terms summing to gamma-complementary mass.  Every discounted
    count must be positive and finite, as every PLRE chain step makes it.
    Rank-1 slices take the closed form (``closed_form``), all at once; the
    rest go to the solver in one call, each slice solved alone at its own
    rank and seeded by ``SeedSequence(seed, (order, step, slice))``, which
    writes their factors into the table; one batched pass then reports on
    every slice.
    Deterministic for a given seed, regardless of thread count.  Seconds
    are added to ``timings["slices"]`` and ``timings["nmf"]``.
    """
    if rank < 1:
        raise ConfigError(f"rank must be >= 1, got {rank}")
    table, k, j = spec.table, spec.order, spec.level
    if k < 2:
        raise ValueError("low-rank tables need order >= 2")
    with timed(timings, "slices"):
        v = spec.powered - spec.discount
        bad = ~(np.isfinite(v) & (v > 0.0))
        if bad.any():
            e = int(bad.argmax())
            raise FactorizationError(
                f"nonpositive or non-finite discounted count {v[e]} at "
                f"{tuple(table.keys[e].tolist())}: discount bound broken"
            )
        z = LowRankCPT(k, rank, layout or SliceLayout(table, table.lower()), spec.sums)
        lay = z.layout
        # The support in (slice, row, column) order, rows and columns
        # numbered across all slices: an entry's column is its context, and
        # its row its code one order lower among the entries there.  Table
        # order runs by column, then row, so the layout's stable sort by row
        # keeps each row's columns in order.
        perm, ii = lay.entry_rows
        jj, vals = table.ctx_of_entry[perm], v[perm]
        dims, factors = z.dims, (z.L, z.R, z.L_start, z.R_start)
        closed_form(ii, jj, vals, dims, factors)
        support = (offsets(lay.rows)[ii], lay.ctx_col[jj], vals, segments(lay.nnz))
        del v, perm, ii, jj  # the solver and reports need only the support

    # The other slices go to the solver, each at its own rank.
    batch = np.flatnonzero(z.ranks > 1).tolist()
    seeds = [np.random.SeedSequence(entropy=seed, spawn_key=(k, j, s)) for s in batch]
    names = [f"order {k}, chain step {j}, interior {tuple(z.slices[s].tolist())}" for s in batch]
    with timed(timings, "nmf"):
        fits = nmf_gkl_many(support, dims, factors, batch, seeds, max_iters, rel_tol, names, threads)
    solved = dict(zip(batch, fits))
    with timed(timings, "slices"):
        if not (np.isfinite(z.L).all() and np.isfinite(z.R).all()):
            raise FactorizationError(f"non-finite factors in order {k}, chain step {j}")
        z.reports = fit_reports(support, dims, factors, solved)
    return z


def derive_dstar(d_gt: float, eta: int) -> float:
    """(eta+1)-th root of a discount: the chain of eta+1 steps then hands
    off exactly d_gt-worth of mass, matching a single-discount smoother."""
    if not 0.0 < d_gt < 1.0:
        raise ValueError(f"discount must be in (0, 1), got {d_gt}")
    if eta < 0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    return d_gt ** (1.0 / (eta + 1))


class PlreLevel(Level):
    """One order's stack: a level whose chain steps each discount by
    ``dstar``, with one low-rank table per intermediate power in ``powers``.

    Its table is the order's adjusted table (``plre_levels``), and the rest
    is derived, one way for a build and a load alike: ``top``, ``gammas``
    and the low-rank ``denominators`` from its counts, d* and powers
    (``compute_discounts``), and the ``SliceLayout`` from its table and
    ``lower``, the adjusted table one order below.  ``factorize(spec,
    layout)`` makes each chain step's low-rank table: a build factorizes
    the step, and a load reads the stored factors.  Seconds are added to
    ``timings`` (discounts, slices)."""

    def __init__(
        self,
        table: CountTable,
        lower: CountTable,
        dstar: float,
        powers: Sequence[float],
        factorize: Optional[Callable[[DiscountSpec, SliceLayout], LowRankCPT]] = None,
        timings: Optional[Dict[str, float]] = None,
    ):
        self.check_chain(table.order, powers, dstar)
        with timed(timings, "discounts"):
            specs = compute_discounts(table, (1.0,) + tuple(powers) + (0.0,), dstar)
            top = specs[0].powered - specs[0].discount
            super().__init__(table, top, np.array([spec.gamma for spec in specs]))
        self.dstar, self.powers = dstar, tuple(powers)
        if self.eta:
            with timed(timings, "slices"):
                layout = SliceLayout(self, lower)
            self.z_tables = [factorize(spec, layout) for spec in specs[1:]]

    @staticmethod
    def check_chain(order: int, powers: Sequence[float], dstar: Optional[float] = None) -> None:
        """Raise ValueError unless the powers strictly descend in (0, 1)
        and d*, if given, lies in (0, 1)."""
        chain = (1.0,) + tuple(powers) + (0.0,)
        if not all(lo < hi for lo, hi in zip(chain[1:], chain)):
            raise ValueError(f"order {order}: powers must strictly descend in (0, 1): {powers}")
        if dstar is not None and not 0.0 < dstar < 1.0:
            raise ValueError(f"order {order}: d* must lie in (0, 1), got {dstar}")

    @property
    def eta(self) -> int:
        return len(self.powers)


class PlreModel(LevelModel):
    """Assembled ensemble: levels for orders n..2 plus the unigram base.

    The base's numerators are continuation counts: for each word, the
    number of order-2 entries that predict it, i.e. the order-1 adjusted
    table, counted from the order-2 words."""

    def __init__(
        self,
        vocab: Vocabulary,
        order: int,
        levels: Dict[int, PlreLevel],
        seed: int,
        warnings: Optional[List[str]] = None,
    ):
        base_counts = np.bincount(levels[2].words, minlength=len(vocab))
        super().__init__(vocab, order, levels, base_counts)
        self.seed = seed
        self.warnings = warnings or []
        self.smoother = "plre"

    @property
    def dstars(self) -> Dict[int, float]:
        """d* of each level."""
        return {k: level.dstar for k, level in self.levels.items()}

    @property
    def resolved_ranks(self) -> Dict[int, Tuple[int, ...]]:
        """Each level's rank per intermediate power."""
        return {k: tuple(z.rank for z in level.z_tables) for k, level in self.levels.items()}

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


# Rank of every intermediate term unless configured: a vocabulary fraction.
DEFAULT_RANK = 0.005


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
    seed: int = 0,
    threads: int = 1,
    timings: Optional[Dict[str, float]] = None,
) -> PlreModel:
    """Build a PLRE model from the top-order raw count table.

    ``powers[k]`` is the tuple of intermediate powers for the order-k level
    (strictly descending, all in (0,1) exclusive; empty for a pure
    sparse-plus-handoff level); ``ranks[k]`` gives one rank per intermediate
    power, each either an absolute int or a vocabulary fraction in (0,1).
    ``dstar`` is "gt-root" (per-order Good-Turing estimate through the
    root rule) or a fixed float in (0,1) used at every order.  Seconds per
    build stage are added to ``timings`` (adjusted_tables, discounts,
    slices, nmf).
    """
    top = tables if isinstance(tables, CountTable) else tables[max(tables)]
    order = top.order
    if order < 2:
        raise ConfigError("PLRE needs order >= 2")
    if nmf_max_iters < 1:
        raise ConfigError(f"nmf_max_iters must be >= 1, got {nmf_max_iters}")
    if powers is None:
        powers = default_powers(order)
    if ranks is None:
        ranks = {k: tuple(DEFAULT_RANK for _ in chain) for k, chain in powers.items()}

    warnings: List[str] = []
    vsize = len(vocab)
    resolved_ranks: Dict[int, List[int]] = {}
    for k in range(2, order + 1):
        chain = tuple(powers.get(k, ()))
        try:
            PlreLevel.check_chain(k, chain, None if dstar == "gt-root" else float(dstar))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        rk = tuple(ranks.get(k, ()))
        if len(rk) != len(chain):
            raise ConfigError(
                f"order {k}: {len(chain)} power(s) but {len(rk)} rank(s)"
            )
        resolved_ranks[k] = []
        for value in rk:
            r, warn = _resolve_rank(value, vsize)
            if warn:
                warnings.append(f"order {k}: {warn}")
            resolved_ranks[k].append(r)

    def factorize(spec: DiscountSpec, layout: SliceLayout) -> LowRankCPT:
        return compute_z(
            spec,
            resolved_ranks[spec.order][spec.level - 1],
            max_iters=nmf_max_iters,
            rel_tol=nmf_rel_tol,
            seed=seed,
            threads=threads,
            timings=timings,
            layout=layout,
        )

    def make_level(table: CountTable, lower: CountTable) -> PlreLevel:
        chain_mid = tuple(powers.get(table.order, ()))
        if dstar == "gt-root":
            n1, n2, _, _ = count_of_counts(table.counts)
            d = derive_dstar(good_turing_discount(n1, n2), len(chain_mid))
        else:
            d = float(dstar)
        return PlreLevel(table, lower, d, chain_mid, factorize, timings)

    levels = plre_levels(top, make_level, timings)
    return PlreModel(vocab, order, levels, seed, warnings)


def plre_levels(
    top: CountTable,
    make_level: Callable[[CountTable, CountTable], PlreLevel],
    timings: Optional[Dict[str, float]] = None,
) -> Dict[int, PlreLevel]:
    """Levels n..2 from the top order's raw count table, for a build and a
    load alike: ``adjusted_tables``, the loop every model derives its
    lower orders with, gives each order's table, and ``make_level(table,
    lower)`` makes each level from its table and the one below it.
    Derivation seconds are added to ``timings["adjusted_tables"]``."""
    with timed(timings, "adjusted_tables"):
        tables = adjusted_tables(top)
    return {k: make_level(tables[k], tables[k - 1]) for k in range(top.order, 1, -1)}
