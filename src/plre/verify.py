"""What a valid model satisfies, checked from its arrays: each function
gives a check's largest violation, and ``plre.cli.run_checks`` sets the
tolerances.  The checks that read one level's own arrays are ``PlreModel``
methods.  The rest read each low-rank table's one measurement of its
slices, its ``fit`` (``factorization.fit_sums``, the reports' own): the
targets the build kept and the factor sums per row and per column.  The
marginal and its bound also share one push of the order-k contexts'
weights down the levels (``_push``).  No check recomputes a target.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

import numpy as np

from .baselines import DiscountParams, NgramLM
from .ensemble import PlreLevel, PlreModel
from .evaluation import SCORE_CHUNK
from .factorization import row_sums
from .levels import LevelModel


def _push(
    model: PlreModel, order: Optional[int]
) -> Iterator[Tuple[Optional[PlreLevel], np.ndarray, List[np.ndarray]]]:
    """The order-k contexts' shares of the level total, pushed down the
    levels: yields (level, its contexts' weights, each chain step's column
    weights, a context's share of the step over its denominator) and hands
    the rest to the parents; last (None, the mass reaching the base, []).
    A step's columns all get lambda d*^j / T_k up to rounding, lambda the
    share of the order-k mass that reaches level k, T_k its total."""
    k = model.order if order is None else order
    if not 2 <= k <= model.order:
        raise ValueError(f"order must be in [2, {model.order}], got {k}")
    weight = model.levels[k].totals / model.levels[k].totals.sum()
    for kk in range(k, 1, -1):
        level = model.levels[kk]
        g, steps = weight * level.gammas[0], []
        for j, z in enumerate(level.z_tables, start=1):
            steps.append(g / z.denominators)
            g = g * level.gammas[j]
        yield level, weight, steps
        parents = len(model.levels[kk - 1].totals) if kk > 2 else 1
        weight = np.bincount(level.parent, weights=g, minlength=parents)
    yield None, weight, []


def marginal(model: PlreModel, order: Optional[int] = None) -> np.ndarray:
    """sum_h P̂(h) P(w|h) for every word w, over the contexts h observed at
    one order, with P̂(h) the contexts' shares of the level total: along
    ``_push``, each level's weighted top numerators and chain-step columns
    go onto their words, the base takes what reaches the empty context."""
    vsize = len(model.vocab)
    acc = np.zeros(vsize)
    for level, weight, steps in _push(model, order):
        if level is None:
            return acc + weight[0] * model.base
        share = (weight / level.totals)[level.ctx_of_entry] * level.top
        acc += np.bincount(level.words, weights=share, minlength=vsize)
        for z, w in zip(level.z_tables, steps):
            acc += np.bincount(z.row_ids, weights=row_sums(z.L, z.R, z.index, w), minlength=vsize)


def verify_marginal(model: PlreModel, order: Optional[int] = None) -> float:
    """Max |marginal - the order-k adjusted table's word marginals| over
    the vocabulary; at the top order the table is the raw one, so this is
    the preserve-the-observed-(n-1)-gram-distribution statement."""
    got = marginal(model, order)  # checks the order
    level = model.levels[order or model.order]
    expected = np.bincount(level.words, level.counts, len(model.vocab)) / float(level.totals.sum())
    return float(np.max(np.abs(got - expected)))


def marginal_error_bound(model: PlreModel, order: Optional[int] = None) -> float:
    """Upper bound on verify_marginal implied by the stored factors.  The
    marginal identity telescopes exactly except where a slice misses its
    targets' row sums, which enters at the step's column weight in
    ``_push``: so each step's largest column weight times its largest
    per-word residual (a rank-1 slice's row sums miss by one rounding,
    ``rank1_closed_form``), plus the mass reaching the base times the
    shift ``make_base_distribution``'s floor makes.  Every target is
    positive: counts are >= 1, d* < 1 and the powers descend."""
    bound = 0.0
    vsize = len(model.vocab)
    for level, weight, steps in _push(model, order):
        if level is None:
            total = float(model.base_counts.sum())
            floor = float(np.max(np.abs(model.base - model.base_counts / total)))
            return bound + float(weight[0]) * floor
        for z, w in zip(level.z_tables, steps):
            # Per word, the targets first, then the factor row sums, each
            # in order.
            words = np.concatenate((level.words, z.row_ids))
            resid = np.bincount(words, np.concatenate((-z.targets, z.fit.rows)), vsize)
            bound += float(np.max(w)) * float(np.max(np.abs(resid)))


def normalization_observed(model: LevelModel) -> float:
    """Max |sum_w P(w|h) - 1| over every observed context h of every order,
    for any level model: its top numerators over its total, per chain step
    its gamma prefix times its column's factor mass over the denominator,
    and its hand-off times its parent's sum (the base's at the root)."""
    sums = np.array([model.base.sum()])
    worst = [abs(sums[0] - 1.0)]
    for k in range(2, model.order + 1):
        level = model.levels[k]
        s = np.add.reduceat(level.top, level.ctx_start[:-1]) / level.totals
        g = level.gammas[0]
        for j, z in enumerate(level.z_tables, start=1):
            s += g * z.fit.cols / z.denominators
            g = g * level.gammas[j]
        sums = s + g * sums[level.parent]
        worst.append(np.max(np.abs(sums - 1.0)))
    return float(np.max(worst))


def rank1_closed_form(model: PlreModel) -> float:
    """Largest relative deviation of a rank-1 slice's factor row sums from
    their targets, both read from the table's ``fit``: stale factors show
    here, not in the marginal bound.  The targets add the build's support
    (``SliceLayout.support``) per row, and ``row_sums`` takes a row sum as
    L times the in-order sum of R, the T that ``closed_form`` divided by,
    so a fresh factor misses by one quotient's and one product's rounding,
    2u + u² relative (u = 2⁻⁵³)."""
    worst = [0.0]
    for level in model.levels.values():
        for z in level.z_tables:
            rows, target = z.fit.rows, z.fit.row_targets
            at = (z.ranks == 1)[z.layout.lower.ctx_of_entry]
            worst.append(np.max(np.abs(rows[at] - target[at]) / target[at], initial=0.0))
    # np.max, unlike max(), keeps a NaN
    return float(np.max(worst))


def normalization_sweep(model: LevelModel, seed: int, n_contexts: int = 100) -> float:
    """Max |sum_w P(w|h) - 1| over seeded random full-length contexts h,
    summed through the query walk: each context resolved to its state
    once, then ``walk`` in chunks of at most SCORE_CHUNK queries, sorted by
    state as the walk needs.  Observed contexts are normalization_observed's."""
    rng = np.random.default_rng(seed)
    vsize = len(model.vocab)
    states = np.sort(model.states(rng.integers(0, vsize, size=(n_contexts, model.order - 1))))
    sums = np.zeros(n_contexts)
    for lo in range(0, n_contexts * vsize, SCORE_CHUNK):
        query = np.arange(lo, min(lo + SCORE_CHUNK, n_contexts * vsize))
        h = query // vsize
        sums += np.bincount(h, model.walk(states[h], query % vsize), minlength=n_contexts)
    # np.max, unlike max(), keeps a NaN
    return float(np.max(np.abs(sums - 1.0)))


def kn_reduction_deviation(model: PlreModel, seed: int, n_queries: int = 2000) -> float:
    """Max |PLRE - interpolated KN with D = d*| over sampled queries, for a
    model without intermediate powers; KN is built from its count tables."""
    discounts = {k: DiscountParams.single(d) for k, d in model.dstars.items()}
    ref = NgramLM(model.vocab, model.order, "kn", model.tables(), discounts)
    level = model.levels[model.order]
    rng = np.random.default_rng(seed)
    contexts = level.contexts[rng.integers(len(level.contexts), size=n_queries)]
    words = rng.integers(len(model.vocab), size=n_queries)
    return float(np.max(np.abs(model.score(words, contexts) - ref.score(words, contexts))))
