"""Nonnegative low-rank approximation under generalized KL divergence.

The divergence is gKL(A, B) = sum_ij (A_ij*log(A_ij/B_ij) - A_ij + B_ij) with
the convention 0*log(0/x) = 0.  Two properties of its minimizers carry the
whole smoothing construction and are what the tests pin down:

* the best rank-1 approximation has a closed form, the outer product of the
  row-sum and column-sum profiles, and preserves both sum vectors: R is the
  column sums and L the row sums over their total, taken as the in-order
  sum of R, so L times the sum of R gives each row sum back to within one
  quotient's and one product's rounding (``closed_form``);
* at any stationary point of higher rank the row and column sums of the
  approximation match the input's.  An iterative solver stops short of
  stationarity, so after convergence each column is rescaled to match the
  input column sums exactly and the remaining row-sum deviation is reported.

Slices live in the flat arrays of an ``ensemble.LowRankCPT``, with rows
and columns numbered across all slices: ``support`` (ii, jj, vals,
nnz_start) holds slice s's nonzeros at ``nnz_start[s]:``, by row then
column; ``dims[s]`` its (rows, cols, rank); and ``factors`` (L, R,
L_start, R_start) its row-major L (rows x rank) and R (rank x cols).
``closed_form`` writes every rank-1 slice; ``nmf_gkl_many`` solves the
others by Lee-Seung updates (Lee & Seung, NIPS 2001), each alone on its own
run of the support; ``fit_sums`` measures every slice's targets and factor
sums at once, for the reports (``fit_reports``) and ``plre.verify`` alike.
``best_rank1`` and ``nmf_gkl`` take one dense matrix.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

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
    # iterations and converged are None for a slice of rank > 1 that no
    # solver ran on, as after a load: only the solver knows them.
    iterations: Optional[int]
    final_gkl: float
    max_row_residual: float
    max_col_residual: float
    rank: int
    converged: Optional[bool]
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
    """Closed-form best rank-1 gKL approximation of a dense matrix, L (rows
    x 1) and R (1 x cols): ``nmf_gkl(M, 1)``'s factors (``closed_form``)."""
    return nmf_gkl(M, 1)[0]


def nmf_gkl(
    M, k: int, max_iters: int = 200, rel_tol: float = 1e-6, seed: Seed = 0
) -> Tuple[Tuple[np.ndarray, np.ndarray], ConvergenceReport]:
    """Rank-k nonnegative factorization (L, R) of a dense matrix under gKL.

    k is clamped (with a report warning) to the number of nonzero rows and
    columns.  k = 1 takes the closed form (``closed_form``), the global
    optimum; any higher rank is ``nmf_gkl_many`` on this one slice, with the
    bytes it gives the slice among any others.
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
        closed_form(support, dims, factors)
    else:
        [solved[0]] = nmf_gkl_many(support, dims, factors, [0], [seed], max_iters, rel_tol)
    [report] = fit_reports(support, dims, factors, solved)
    if k_eff < k:
        report.warnings.insert(
            0, f"rank {k} clamped to {k_eff} (effective dims {eff_rows}x{eff_cols})"
        )
    return (L, R), report


def closed_form(support: Support, dims: np.ndarray, factors: Factors) -> None:
    """The best rank-1 gKL approximation of every slice of rank 1 in
    ``dims``, written into ``factors``: R is the slice's column sums, and L
    its row sums over T, the sum of that R added in order.  A reader that
    adds R the same way and multiplies (``row_sums``) gets each row sum
    back within one quotient's and one product's rounding, 2u + u²
    relative (u = 2⁻⁵³).  Every sum adds in the support's order, each
    row's columns in order."""
    ii, jj, vals, _ = support
    rows, cols, ranks = np.asarray(dims, dtype=np.int64).T
    L, R, _, _ = factors
    by_col = np.bincount(jj, vals, minlength=cols.sum())
    total = np.bincount(np.repeat(np.arange(len(cols)), cols), by_col, minlength=len(cols))
    by_row = np.bincount(ii, vals, minlength=rows.sum()) / np.repeat(total, rows)
    # Each slice's factors follow the one before's, so the rank-1 slices'
    # runs, in order, take their rows' and columns' sums, in order.
    rank1 = ranks == 1
    L[np.repeat(rank1, rows * ranks)] = by_row[np.repeat(rank1, rows)]
    R[np.repeat(rank1, ranks * cols)] = by_col[np.repeat(rank1, cols)]


def nmf_gkl_many(
    support: Support,
    dims: np.ndarray,
    factors: Factors,
    slices: Sequence[int],
    seeds: Sequence[Seed],
    max_iters: int = 200,
    rel_tol: float = 1e-6,
    names: Optional[Sequence[str]] = None,
    threads: int = 1,
) -> List[Solved]:
    """Nonnegative factorizations under gKL of ``slices``, each at its rank
    ``dims[s, 2]``, written into ``factors``; what the solver found, per
    slice.  Ranks are not clamped: callers pass ranks <= each slice's
    nonzero rows and columns.  The support is the one ``closed_form`` and
    ``fit_reports`` take, rows and columns numbered across all slices.

    Each slice is solved alone, on its own run of the support (``_solve``),
    so its factors and history are the same bytes whatever else is solved
    with it, and on any number of ``threads``, which take whole slices.  A
    non-finite factor raises ``FactorizationError`` naming the slice
    (``names[i]``, default ``slice s``) and the iteration.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    slices = [int(s) for s in slices]
    if len(seeds) != len(slices):
        raise ValueError(f"{len(slices)} slices but {len(seeds)} seeds")
    if names is None:
        names = [f"slice {s}" for s in slices]

    def solve(i: int) -> Solved:
        return _solve(support, dims, factors, slices[i], seeds[i], names[i], max_iters, rel_tol)

    if threads > 1 and len(slices) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(solve, range(len(slices))))
    return [solve(i) for i in range(len(slices))]


def _term_bincount(F: np.ndarray, at: np.ndarray, size: int, weight: np.ndarray) -> np.ndarray:
    """k x size: each term's row of F times ``weight`` summed into bins
    ``at``, in order, one term at a time: with the support's rows or
    columns as bins, an update's numerator."""
    out = np.empty((len(F), size))
    for t, row in enumerate(F):
        out[t] = np.bincount(at, weight * row, minlength=size)
    return out


def _in_order_sum(F: np.ndarray) -> np.ndarray:
    """Sums along the last axis, adding one element at a time in order
    (``sum`` adds pairwise, which rounds differently)."""
    return np.cumsum(F, axis=-1)[..., -1]


def _dot_terms(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """sum_t A[t] * B[t], one rank term at a time."""
    out = A[0] * B[0]
    for t in range(1, len(A)):
        out += A[t] * B[t]
    return out


def _solve(support, dims, factors, s, seed, name, max_iters, rel_tol) -> Solved:
    """Lee-Seung updates of slice s at rank k = ``dims[s, 2]``.  W starts
    as rows x k and H as k x cols, uniform in (0, 1] from ``seed``, scaled
    so total(W @ H) == total(M).  Each iteration updates W, then H, and
    records gKL(M, W @ H); a rise is reported as a warning.  The slice stops
    when its relative improvement drops below ``rel_tol`` or after
    ``max_iters``; then each column of W @ H is rescaled to M's column sum
    and the factors are written.  The slice's rows and columns are its
    support's less its first row and first column.  W is kept term-major
    (k x rows), so each gather at the support reads one contiguous row per
    rank term, and rank terms are summed one at a time, in order."""
    rows, cols, k = (int(d) for d in dims[s])
    if k < 1:
        raise ValueError(f"rank must be >= 1, got {k} in {name}")
    lo, hi = support[3][s], support[3][s + 1]
    gi, gj, vals = (a[lo:hi] for a in support[:3])
    gi, gj = gi - segments(dims[:, 0])[s], gj - segments(dims[:, 1])[s]
    total = vals.sum()
    rng = np.random.default_rng(seed)
    W = 1.0 - rng.random((rows, k))
    H = 1.0 - rng.random((k, cols))
    W *= total / (W.sum(axis=0) @ H.sum(axis=1))
    W = W.T.copy()

    def objective(pred, Wsum, Hsum) -> float:
        """gKL(M, W @ H), from the product at the support."""
        logs = _in_order_sum(vals * np.log(vals / np.maximum(pred, _TINY)))
        return float(logs - total + _dot_terms(Wsum, Hsum))

    col_sums = np.bincount(gj, vals, minlength=cols)
    # The factors gathered at the support, nnz * k floats each.  Each
    # iteration gathers into the same two blocks (unbuffered with "clip";
    # every index is in range).
    Hg = np.take(H, gj, axis=1)
    Wg = np.take(W, gi, axis=1)
    pred = _dot_terms(Wg, Hg)
    Wsum, Hsum = _in_order_sum(W), _in_order_sum(H)
    last = objective(pred, Wsum, Hsum)
    history, warnings = [last], []
    for it in range(1, max_iters + 1):
        ratio = vals / np.maximum(pred, _EPS)
        W *= _term_bincount(Hg, gi, rows, ratio) / np.maximum(Hsum, _EPS)[:, None]
        np.take(W, gi, axis=1, out=Wg, mode="clip")
        ratio = vals / np.maximum(_dot_terms(Wg, Hg), _EPS)
        Wsum = _in_order_sum(W)
        H *= _term_bincount(Wg, gj, cols, ratio) / np.maximum(Wsum, _EPS)[:, None]
        if not (np.isfinite(W).all() and np.isfinite(H).all()):
            raise FactorizationError(f"non-finite factor values at iteration {it} in {name}")

        np.take(H, gj, axis=1, out=Hg, mode="clip")
        pred = _dot_terms(Wg, Hg)
        Hsum = _in_order_sum(H)
        obj = objective(pred, Wsum, Hsum)
        history.append(obj)
        if obj > last + 1e-9 * max(1.0, abs(last)):
            warnings.append(f"objective increased at iteration {it}: {last} -> {obj}")
        done = last - obj < rel_tol * max(abs(last), _TINY)
        last = obj
        if done:
            break
    # Each column of the product rescaled to the slice's column sum.  W
    # back to rows x k in C order, so that its column sums add row by row.
    L, R, L_start, R_start = factors
    W = W.T.copy()
    H *= col_sums / np.maximum(W.sum(axis=0) @ H, _TINY)
    L[L_start[s] : L_start[s + 1]] = W.ravel()
    R[R_start[s] : R_start[s + 1]] = H.ravel()
    return it, done, history, warnings


def factor_index(dims: np.ndarray) -> Tuple[np.ndarray, ...]:
    """(rank term, row) of every L entry and (rank term, column) of every R
    entry, rows and columns numbered across all slices: the concatenated
    factors then act as one block-diagonal pair, and a product with every
    slice is a segment sum (``row_sums``, ``col_sums``)."""
    rows, cols, ranks = np.asarray(dims, dtype=np.int64).T
    per_row, per_term = np.repeat(ranks, rows), np.repeat(cols, ranks)
    L_term = np.repeat(np.repeat(segments(ranks)[:-1], rows), per_row) + offsets(per_row)
    L_row = np.repeat(np.arange(len(per_row)), per_row)
    R_term = np.repeat(np.arange(len(per_term)), per_term)
    R_col = np.repeat(np.repeat(segments(cols)[:-1], ranks), per_term) + offsets(per_term)
    return L_term, L_row, R_term, R_col


def factor_starts(dims: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(left, right), rows and columns numbered across all slices: rank term
    t of the product at (i, j) is L[left[i] + t] * R[right[j] + t * cols]."""
    rows, cols, ranks = np.asarray(dims, dtype=np.int64).T
    left = segments(np.repeat(ranks, rows))[:-1]
    shift = segments(ranks * cols)[:-1] - segments(cols)[:-1]
    return left, np.arange(cols.sum()) + np.repeat(shift, cols)


def product(L, R, left, right, rank, width) -> np.ndarray:
    """L R at places with ``factor_starts`` ``left`` and ``right``, in slices
    of ``rank`` and ``width`` columns: rank terms add in order, as in a dot."""
    out = L[left] * R[right]
    for t in range(1, int(rank.max(initial=0))):
        live = rank > t
        out[live] += L[left[live] + t] * R[right[live] + t * width[live]]
    return out


def row_sums(L, R, index, w: Optional[np.ndarray] = None) -> np.ndarray:
    """L (R w) per row of every slice, ``index`` their ``factor_index``, ``w``
    one weight per column if given.  R adds per rank term in order, so a
    rank-1 row sum is L times the T that ``closed_form`` divided by."""
    L_term, L_row, R_term, R_col = index
    if w is not None:
        R = R * w[R_col]
    return np.bincount(L_row, L * np.bincount(R_term, R)[L_term])


def col_sums(L, R, index) -> np.ndarray:
    """1ᵀ L R per column of every slice: each column's factor mass."""
    L_term, _, R_term, R_col = index
    return np.bincount(R_col, R * np.bincount(L_term, L)[R_term])


class Fit(NamedTuple):
    """Targets and factor sums per row and per column of every slice."""

    row_targets: np.ndarray
    rows: np.ndarray
    col_targets: np.ndarray
    cols: np.ndarray


def fit_sums(support: Support, dims: np.ndarray, factors: Factors, index) -> Fit:
    """Every slice's row and column targets, the support's values added in
    order, and its factors' row and column sums (``index`` their
    ``factor_index``): the one measurement of a fit, which the reports and
    ``plre.verify``'s checks read."""
    ii, jj, vals, _ = support
    rows, cols, _ = np.asarray(dims, dtype=np.int64).T
    L, R, _, _ = factors
    return Fit(
        np.bincount(ii, vals, minlength=rows.sum()),
        row_sums(L, R, index),
        np.bincount(jj, vals, minlength=cols.sum()),
        col_sums(L, R, index),
    )


def fit_reports(
    support: Support,
    dims: np.ndarray,
    factors: Factors,
    solved: Dict[int, Solved],
    fit: Optional[Fit] = None,
) -> List[ConvergenceReport]:
    """Every slice's report, all at once: gKL(M, L @ R) through the lookup's
    ``product``, and the largest deviations of ``fit``'s factor sums from
    its targets (``fit_sums``).  A slice's kind is its rank's.  ``solved[s]``
    is what the solver found for slice s; without it, a rank-1 slice has 0
    iterations and converged, and one of higher rank None, no history."""
    ii, jj, vals, nnz_start = support
    L, R, _, _ = factors
    rows, cols, ranks = np.asarray(dims, dtype=np.int64).T
    n = len(rows)
    index = factor_index(dims)
    if fit is None:
        fit = fit_sums(support, dims, factors, index)
    seg = np.repeat(np.arange(n), np.diff(nnz_start))
    left, right = factor_starts(dims)
    pred = product(L, R, left[ii], right[jj], ranks[seg], cols[seg])
    # A zero of the product under a nonzero makes the gKL infinite.
    with np.errstate(divide="ignore", over="ignore"):
        gkl = np.bincount(seg, vals * np.log(vals / pred), minlength=n)
    gkl -= np.bincount(seg, vals, minlength=n)
    mass = np.bincount(index[0], L) * np.bincount(index[2], R)
    gkl += np.bincount(np.repeat(np.arange(n), ranks), mass, minlength=n)
    row_dev, col_dev = fit.rows - fit.row_targets, fit.cols - fit.col_targets
    row_res = np.maximum.reduceat(np.abs(row_dev), segments(rows)[:-1]).tolist()
    col_res = np.maximum.reduceat(np.abs(col_dev), segments(cols)[:-1]).tolist()
    fits, reports = zip(gkl.tolist(), row_res, col_res, ranks.tolist()), []
    for s, (obj, row, col, r) in enumerate(fits):
        unsolved = (0, True, [obj], []) if r == 1 else (None, None, [], [])
        it, converged, history, notes = solved.get(s, unsolved)
        kind = "rank1" if r == 1 else "iterative"
        reports.append(ConvergenceReport(it, obj, row, col, r, converged, history, notes, kind))
    return reports
