"""Nonnegative low-rank approximation under generalized KL divergence.

The divergence is gKL(A, B) = sum_ij (A_ij*log(A_ij/B_ij) - A_ij + B_ij) with
the convention 0*log(0/x) = 0.  Two properties of its minimizers carry the
whole smoothing construction and are what the tests pin down:

* the best rank-1 approximation has a closed form, the outer product of the
  row-sum and column-sum profiles, and preserves both sum vectors exactly;
* at any stationary point of higher rank the row and column sums of the
  approximation match the input's.  An iterative solver stops short of
  stationarity, so after convergence each column is rescaled to match the
  input column sums exactly and the remaining row-sum deviation is reported.

Slices live in the flat arrays of an ``ensemble.LowRankCPT``: ``support``
(ii, jj, vals, nnz_start) holds slice s's nonzeros at ``nnz_start[s]:``, by
row then column within it; ``dims[s]`` its (rows, cols[, rank]); and
``factors`` (L, R, L_start, R_start) its row-major L (rows x rank) and R
(rank x cols).  ``nmf_gkl_many`` solves slices into the factors by Lee-Seung
updates (Lee & Seung, NIPS 2001); ``fit_reports`` measures every slice at
once, closed form or iterative; ``best_rank1`` and ``nmf_gkl`` take one
dense matrix.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .corpus import offsets, segments
from .errors import FactorizationError

# Guard against exact zeros in denominators/logs; well below any real count.
_TINY = 1e-300
# Floor of the multiplicative updates' divisors, which keeps a factor that
# reaches zero from dividing by zero.
_EPS = 1e-12

Seed = Union[int, np.random.SeedSequence]
Support = Factors = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
# What the solver found for one slice: iterations, whether it converged, its
# objective history and its warnings.
Solved = Tuple[int, bool, List[float], List[str]]


@dataclass
class ConvergenceReport:
    iterations: int
    final_gkl: float
    max_row_residual: float
    max_col_residual: float
    rank: int
    converged: bool
    objective_history: List[float] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    # "rank1" (closed form) or "iterative".
    kind: str = "iterative"


def _dense_support(M) -> Tuple[np.ndarray, Support]:
    """A dense nonnegative finite matrix with a nonzero, and its support."""
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or 0 in M.shape:
        raise ValueError(f"a matrix of at least 1 x 1 is needed, got shape {M.shape}")
    if not (np.isfinite(M) & (M >= 0.0)).all():
        raise ValueError("negative or non-finite entry")
    ii, jj = np.nonzero(M)
    if len(ii) == 0:
        raise ValueError("cannot factorize an all-zero matrix")
    return M, (ii, jj, M[ii, jj], np.array([0, len(ii)]))


def best_rank1(M) -> Tuple[np.ndarray, np.ndarray]:
    """Closed-form best rank-1 gKL approximation of a dense matrix:
    L = row sums / total (rows x 1) and R = column sums (1 x cols).

    Both the row sums and the column sums of L @ R equal M's exactly (up to
    one rounding each), which is what the ensemble's exact-marginal
    guarantee leans on.
    """
    M, (ii, jj, vals, _) = _dense_support(M)
    L = np.bincount(ii, vals, minlength=M.shape[0]) / vals.sum()
    return L[:, None], np.bincount(jj, vals, minlength=M.shape[1])[None, :]


def nmf_gkl(
    M, k: int, max_iters: int = 200, rel_tol: float = 1e-6, seed: Seed = 0
) -> Tuple[Tuple[np.ndarray, np.ndarray], ConvergenceReport]:
    """Rank-k nonnegative factorization (L, R) of a dense matrix under gKL.

    k is clamped (with a report warning) to the number of nonzero rows and
    columns.  k = 1 takes the closed form (``best_rank1``), the global
    optimum; any higher rank is a batch of one of ``nmf_gkl_many``, with the
    same bytes as in any larger batch.
    """
    if k < 1:
        raise ValueError(f"rank must be >= 1, got {k}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    M, support = _dense_support(M)
    eff_rows, eff_cols = len(np.unique(support[0])), len(np.unique(support[1]))
    k_eff = min(k, eff_rows, eff_cols)
    dims = np.array([[*M.shape, k_eff]])
    L, R = np.zeros((M.shape[0], k_eff)), np.zeros((k_eff, M.shape[1]))
    factors = (L.reshape(-1), R.reshape(-1), np.array([0, L.size]), np.array([0, R.size]))
    solved: Dict[int, Solved] = {}
    if k_eff == 1:
        L[:], R[:] = best_rank1(M)
    else:
        [solved[0]] = nmf_gkl_many(support, dims, factors, [0], k_eff, [seed], max_iters, rel_tol)
    [report] = fit_reports(support, dims, factors, solved)
    if k_eff < k:
        report.warnings.insert(
            0, f"rank {k} clamped to {k_eff} (effective dims {eff_rows}x{eff_cols})"
        )
    return (L, R), report


# Most nnz * rank one solver group may hold, unless a single slice holds
# more.  A group iterates on two gathered factor blocks of nnz * rank
# floats, so each stays within 16 MiB.
GROUP_WORK = 1 << 21


def nmf_gkl_many(
    support: Support,
    dims: np.ndarray,
    factors: Factors,
    batch: Sequence[int],
    k: int,
    seeds: Sequence[Seed],
    max_iters: int = 200,
    rel_tol: float = 1e-6,
    names: Optional[Sequence[str]] = None,
    threads: int = 1,
) -> List[Solved]:
    """Rank-k nonnegative factorizations under gKL of the slices ``batch``,
    written into ``factors``; what the solver found, per slice of the batch.

    Each slice starts from W, H uniform in (0, 1] drawn from its own seed,
    scaled so total(W @ H) == total(M).  Each iteration updates W, then H,
    and records the objective; a rise is reported as a warning.  A slice
    stops when its relative improvement drops below ``rel_tol`` or after
    ``max_iters``.  Then each column of its product is rescaled to M's
    column sum and its factors are written.  k is not clamped: callers pass
    k <= each slice's nonzero rows and columns.

    Every sum runs within one slice in a fixed order, so a slice's factors
    and history are the same bytes alone, in any batch, group or thread
    count: the batch is solved in consecutive groups of at most
    ``max(GROUP_WORK, largest nnz * k)`` nonzero-rank products, on
    ``threads`` threads.  A non-finite factor raises ``FactorizationError``
    naming the slice (``names[i]``, default ``slice s``) and the iteration.
    """
    if k < 1:
        raise ValueError(f"rank must be >= 1, got {k}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    batch = np.asarray(batch, dtype=np.int64)
    if len(seeds) != len(batch):
        raise ValueError(f"{len(batch)} slices but {len(seeds)} seeds")
    if names is None:
        names = [f"slice {s}" for s in batch.tolist()]

    def solve(group: List[int]) -> List[Solved]:
        at = batch[group]
        seeds_, names_ = [seeds[i] for i in group], [names[i] for i in group]
        return _solve_group(support, dims, factors, at, k, seeds_, names_, max_iters, rel_tol)

    groups = _groups((np.diff(support[3])[batch] * k).tolist(), threads)
    if threads > 1 and len(groups) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(solve, groups))
    else:
        parts = [solve(group) for group in groups]
    return [result for part in parts for result in part]


def _groups(work: List[int], threads: int) -> List[List[int]]:
    """Consecutive runs of indices whose work sums to at most
    max(GROUP_WORK, the largest single work), cut to about an equal share
    per thread when ``threads`` > 1."""
    if not work:
        return []
    budget = max(GROUP_WORK, max(work))
    if threads > 1:
        budget = max(max(work), min(budget, -(-sum(work) // threads)))
    groups: List[List[int]] = [[]]
    load = 0
    for i, w in enumerate(work):
        if groups[-1] and load + w > budget:
            groups.append([])
            load = 0
        groups[-1].append(i)
        load += w
    return groups


def _term_bincount(F: np.ndarray, at: np.ndarray, size: int, weight=None) -> np.ndarray:
    """k x size: each term's row of F (times ``weight``) summed into bins
    ``at``, in order, one term at a time.  With the slices' row or column
    ids as bins this gives the per-slice factor sums; with the support's
    row or column ids and the ratio as weight, an update's numerator."""
    out = np.empty((len(F), size))
    for t, row in enumerate(F):
        out[t] = np.bincount(at, row if weight is None else weight * row, minlength=size)
    return out


def _dot_terms(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """sum_t A[t] * B[t], one rank term at a time."""
    out = A[0] * B[0]
    for t in range(1, len(A)):
        out += A[t] * B[t]
    return out


def _solve_group(support, dims, factors, slices, k, seeds, names, max_iters, rel_tol):
    """The slices of one group as one block-diagonal problem.  Factors are
    kept term-major, W as k x (all rows) and H as k x (all columns), so each
    gather at the support reads one contiguous row per rank term, and rank
    terms are summed one at a time, in order.  A stopped slice leaves by a
    mask over the running slices' arrays."""
    L, R, L_start, R_start = factors
    rows, cols, nnz_start = dims[slices, 0], dims[slices, 1], support[3]
    nnz = nnz_start[slices + 1] - nnz_start[slices]
    gi, gj, vals = (a[np.repeat(nnz_start[slices], nnz) + offsets(nnz)] for a in support[:3])
    totals = np.array([m.sum() for m in np.split(vals, np.cumsum(nnz)[:-1])])
    W_parts, H_parts = [], []
    for r, c, total, seed in zip(rows, cols, totals.tolist(), seeds):
        rng = np.random.default_rng(seed)
        # Uniform in (0, 1], then scale so total(W@H) == total(M).
        W = 1.0 - rng.random((r, k))
        H = 1.0 - rng.random((k, c))
        W *= total / (W.sum(axis=0) @ H.sum(axis=1))
        W_parts.append(W.T)
        H_parts.append(H)
    W, H = np.concatenate(W_parts, axis=1), np.concatenate(H_parts, axis=1)
    act = np.arange(len(slices))  # the running slices, by place in the group
    results: List[Optional[Solved]] = [None] * len(slices)

    def place(gi, gj, row_at, col_at):
        """The slice of each running nonzero, row and column, and the nonzeros'
        rows and columns moved from slice starts ``row_at``, ``col_at`` to the new."""
        ids = np.arange(len(act))
        seg = np.repeat(ids, nnz)
        gi = gi - (row_at - segments(rows)[:-1])[seg]
        gj = gj - (col_at - segments(cols)[:-1])[seg]
        return seg, np.repeat(ids, rows), np.repeat(ids, cols), gi, gj

    def objective(pred, Wsum, Hsum) -> np.ndarray:
        """gKL(M, W @ H) of each running slice, from its product at the support."""
        logs = np.bincount(seg, vals * np.log(vals / np.maximum(pred, _TINY)), minlength=len(act))
        return logs - totals + _dot_terms(Wsum, Hsum)

    seg, row_seg, col_seg, gi, gj = place(gi, gj, 0, 0)
    col_sums = np.bincount(gj, vals, minlength=H.shape[1])
    # The factors gathered at the support, nnz * k floats each.  Each
    # iteration gathers into the same two blocks (unbuffered with "clip";
    # every index is in range).
    Hg = np.take(H, gj, axis=1)
    Wg = np.take(W, gi, axis=1)
    pred = _dot_terms(Wg, Hg)
    Wsum, Hsum = _term_bincount(W, row_seg, len(act)), _term_bincount(H, col_seg, len(act))
    last = objective(pred, Wsum, Hsum)
    history = [[v] for v in last.tolist()]
    warnings: List[List[str]] = [[] for _ in slices]

    for it in range(1, max_iters + 1):
        ratio = vals / np.maximum(pred, _EPS)
        den = np.take(np.maximum(Hsum, _EPS), row_seg, axis=1)
        W *= _term_bincount(Hg, gi, W.shape[1], ratio) / den
        np.take(W, gi, axis=1, out=Wg, mode="clip")
        ratio = vals / np.maximum(_dot_terms(Wg, Hg), _EPS)
        Wsum = _term_bincount(W, row_seg, len(act))
        den = np.take(np.maximum(Wsum, _EPS), col_seg, axis=1)
        H *= _term_bincount(Wg, gj, H.shape[1], ratio) / den

        if not (np.isfinite(W).all() and np.isfinite(H).all()):
            bad = np.concatenate(
                (row_seg[~np.isfinite(W).all(axis=0)], col_seg[~np.isfinite(H).all(axis=0)])
            )
            name = names[act[bad.min()]]
            raise FactorizationError(f"non-finite factor values at iteration {it} in {name}")

        np.take(H, gj, axis=1, out=Hg, mode="clip")
        pred = _dot_terms(Wg, Hg)
        Hsum = _term_bincount(H, col_seg, len(act))
        obj = objective(pred, Wsum, Hsum)
        rose = obj > last + 1e-9 * np.maximum(1.0, np.abs(last))
        done = last - obj < rel_tol * np.maximum(np.abs(last), _TINY)
        for g, prev, cur, up in zip(act.tolist(), last.tolist(), obj.tolist(), rose.tolist()):
            history[g].append(cur)
            if up:
                warnings[g].append(f"objective increased at iteration {it}: {prev} -> {cur}")
        last = obj

        stop = done | (it == max_iters)
        if not stop.any():
            continue
        # Leave the stopped slices out: the running ones keep every value,
        # in C order (``compress``; a mask index would transpose the layout).
        # The gathered blocks shrink first, so finishing adds to less memory.
        keep, keep_nz = ~stop, ~stop[seg]
        Hg, pred = Hg.compress(keep_nz, axis=1), pred[keep_nz]
        Wg = np.empty_like(Hg)
        row_start, col_start = segments(rows), segments(cols)
        for i in np.flatnonzero(stop).tolist():
            g, s = int(act[i]), int(slices[act[i]])
            # Each column of the product rescaled to the slice's column sum.
            Ws = W[:, row_start[i] : row_start[i + 1]].T.copy()
            Hs = H[:, col_start[i] : col_start[i + 1]].copy()
            Hs *= col_sums[col_start[i] : col_start[i + 1]] / np.maximum(Ws.sum(axis=0) @ Hs, _TINY)
            L[L_start[s] : L_start[s + 1]] = Ws.ravel()
            R[R_start[s] : R_start[s + 1]] = Hs.ravel()
            results[g] = it, bool(done[i]), history[g], warnings[g]
        if not keep.any():
            break
        W, H = W.compress(keep[row_seg], axis=1), H.compress(keep[col_seg], axis=1)
        col_sums, vals = col_sums[keep[col_seg]], vals[keep_nz]
        act, last, totals, Hsum = act[keep], last[keep], totals[keep], Hsum.compress(keep, axis=1)
        rows, cols, nnz = rows[keep], cols[keep], nnz[keep]
        gi, gj = gi[keep_nz], gj[keep_nz]
        seg, row_seg, col_seg, gi, gj = place(gi, gj, row_start[:-1][keep], col_start[:-1][keep])
    return results


def factor_index(rows, cols, ranks, col_start) -> Tuple[np.ndarray, ...]:
    """(rank term, row) of every L entry and (rank term, column) of every R
    entry, numbered across all slices (slice s's columns from
    ``col_start[s]``): the concatenated factors then act as one
    block-diagonal pair, and a product with every slice is a segment sum."""
    per_row, per_term = np.repeat(ranks, rows), np.repeat(cols, ranks)
    L_term = np.repeat(np.repeat(segments(ranks)[:-1], rows), per_row) + offsets(per_row)
    L_row = np.repeat(np.arange(len(per_row)), per_row)
    R_term = np.repeat(np.arange(len(per_term)), per_term)
    R_col = np.repeat(np.repeat(col_start[:-1], ranks), per_term) + offsets(per_term)
    return L_term, L_row, R_term, R_col


def fit_reports(
    support: Support, dims: np.ndarray, factors: Factors, solved: Dict[int, Solved]
) -> List[ConvergenceReport]:
    """Every slice's report, measured all at once: gKL(M, L @ R) and the
    largest deviations of the product's row and column sums from M's.
    ``solved[s]`` is what the solver found for slice s; a slice without it
    is a closed form."""
    ii, jj, vals, nnz_start = support
    L, R, L_start, R_start = factors
    rows, cols, ranks = np.asarray(dims, dtype=np.int64).T
    n = len(rows)
    seg = np.repeat(np.arange(n), np.diff(nnz_start))
    # The product at the support, one rank term at a time.
    left, right = L_start[seg] + ii * ranks[seg], R_start[seg] + jj
    pred = L[left] * R[right]
    for t in range(1, int(ranks.max(initial=0))):
        live = ranks[seg] > t
        pred[live] += L[left[live] + t] * R[right[live] + t * cols[seg[live]]]
    del left, right
    # A zero of the product under a nonzero makes the gKL infinite.
    with np.errstate(divide="ignore", over="ignore"):
        gkl = np.bincount(seg, vals * np.log(vals / pred), minlength=n)
    gkl -= np.bincount(seg, vals, minlength=n)
    row_start, col_start = segments(rows), segments(cols)
    L_term, L_row, R_term, R_col = factor_index(rows, cols, ranks, col_start)
    L_sum, R_sum = np.bincount(L_term, L), np.bincount(R_term, R)
    gkl += np.bincount(np.repeat(np.arange(n), ranks), L_sum * R_sum, minlength=n)
    row_dev = np.bincount(L_row, L * R_sum[L_term])
    row_dev -= np.bincount(ii + row_start[seg], vals, minlength=len(row_dev))
    col_dev = np.bincount(R_col, R * L_sum[R_term])
    col_dev -= np.bincount(jj + col_start[seg], vals, minlength=len(col_dev))
    row_res = np.maximum.reduceat(np.abs(row_dev), row_start[:-1]).tolist()
    col_res = np.maximum.reduceat(np.abs(col_dev), col_start[:-1]).tolist()
    fits, reports = zip(gkl.tolist(), row_res, col_res, ranks.tolist()), []
    for s, (obj, row, col, r) in enumerate(fits):
        it, converged, history, notes = solved.get(s, (0, True, [obj], []))
        kind = "iterative" if s in solved else "rank1"
        reports.append(ConvergenceReport(it, obj, row, col, r, converged, history, notes, kind))
    return reports
