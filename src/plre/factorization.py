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

Higher ranks are solved by ``nmf_gkl_many``: Lee-Seung multiplicative
updates (Lee & Seung, NIPS 2001) for many matrices at once, as one
block-diagonal problem over their concatenated supports; ``nmf_gkl`` is a
batch of one.  Every sum runs within one matrix in a fixed order, so a
matrix's bytes do not depend on which others share its batch.  That lets
the batch be cut into groups of bounded memory (``GROUP_WORK``) and spread
over threads.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import FactorizationError

# Guard against exact zeros in denominators/logs; well below any real count.
_TINY = 1e-300


class SparseMatrix:
    """Sparse nonnegative matrix with explicit dimensions.

    Stored entries are strictly positive; zeros are dropped on construction.
    """

    __slots__ = ("rows", "cols", "ii", "jj", "vals")

    def __init__(self, rows: int, cols: int, entries: Dict[Tuple[int, int], float]):
        if rows < 1 or cols < 1:
            raise ValueError("dimensions must be >= 1")
        items = [(i, j, float(v)) for (i, j), v in entries.items() if v != 0.0]
        for i, j, v in items:
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"negative or non-finite entry at ({i}, {j}): {v}")
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i}, {j}) outside {rows}x{cols}")
        items.sort()
        self.rows = rows
        self.cols = cols
        self.ii = np.array([i for i, _, _ in items], dtype=np.int64)
        self.jj = np.array([j for _, j, _ in items], dtype=np.int64)
        self.vals = np.array([v for _, _, v in items], dtype=np.float64)

    @classmethod
    def from_dense(cls, arr) -> "SparseMatrix":
        arr = np.asarray(arr, dtype=np.float64)
        entries = {
            (int(i), int(j)): arr[i, j] for i, j in zip(*np.nonzero(arr))
        }
        return cls(arr.shape[0], arr.shape[1], entries)

    @property
    def nnz(self) -> int:
        return len(self.vals)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols))
        out[self.ii, self.jj] = self.vals
        return out

    def row_sums(self) -> np.ndarray:
        out = np.zeros(self.rows)
        np.add.at(out, self.ii, self.vals)
        return out

    def col_sums(self) -> np.ndarray:
        out = np.zeros(self.cols)
        np.add.at(out, self.jj, self.vals)
        return out

    def total(self) -> float:
        return float(self.vals.sum())


class FactorPair:
    """Rank-kappa factorization L (rows x k) times R (k x cols).

    Arrays are frozen after construction; the pair is safe to share across
    threads.
    """

    __slots__ = ("L", "R")

    def __init__(self, L: np.ndarray, R: np.ndarray):
        L = np.ascontiguousarray(L, dtype=np.float64)
        R = np.ascontiguousarray(R, dtype=np.float64)
        if L.ndim != 2 or R.ndim != 2 or L.shape[1] != R.shape[0]:
            raise ValueError(f"incompatible factor shapes {L.shape} x {R.shape}")
        if not (np.all(np.isfinite(L) & (L >= 0)) and np.all(np.isfinite(R) & (R >= 0))):
            raise ValueError("factors must be finite and nonnegative")
        L.setflags(write=False)
        R.setflags(write=False)
        self.L = L
        self.R = R

    @property
    def rank(self) -> int:
        return self.L.shape[1]

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.L.shape[0], self.R.shape[1])

    def product(self) -> np.ndarray:
        return self.L @ self.R

    def row_sums(self) -> np.ndarray:
        return self.L @ self.R.sum(axis=1)

    def col_sums(self) -> np.ndarray:
        return self.L.sum(axis=0) @ self.R

    def total(self) -> float:
        return float(self.L.sum(axis=0) @ self.R.sum(axis=1))

    def values_at(self, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
        """Approximation values at the given coordinate lists, O(nnz*k)."""
        if len(ii) == 0:
            return np.zeros(0)
        return np.einsum("nk,kn->n", self.L[ii], self.R[:, jj])


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
    # "exact" (a copy of the slice), "rank1" (closed form) or "iterative".
    kind: str = "iterative"


def gkl(A: Union[SparseMatrix, np.ndarray], B) -> float:
    """Generalized KL divergence sum_ij (A*log(A/B) - A + B), 0*log0 := 0.

    ``B`` may be a dense array or a FactorPair.  Returns math.inf when some
    A_ij > 0 sits on a zero of B.
    """
    if not isinstance(A, SparseMatrix):
        A = SparseMatrix.from_dense(A)
    if isinstance(B, FactorPair):
        b_at = B.values_at(A.ii, A.jj)
        b_total = B.total()
    else:
        B = np.asarray(B, dtype=np.float64)
        if B.shape != (A.rows, A.cols):
            raise ValueError(f"shape mismatch {B.shape} vs {(A.rows, A.cols)}")
        b_at = B[A.ii, A.jj]
        b_total = float(B.sum())
    if (b_at <= 0.0).any():
        return math.inf
    log_term = float(np.dot(A.vals, np.log(A.vals / b_at)))
    return log_term - A.total() + b_total


def best_rank1(M: SparseMatrix) -> FactorPair:
    """Closed-form best rank-1 gKL approximation: (row_sums/total) x col_sums.

    Both the row sums and the column sums of the product equal M's exactly
    (up to one rounding each), which is what the ensemble's exact-marginal
    guarantee leans on.
    """
    if M.nnz == 0:
        raise ValueError("best_rank1 of an all-zero matrix")
    total = M.total()
    L = (M.row_sums() / total).reshape(-1, 1)
    R = M.col_sums().reshape(1, -1)
    return FactorPair(L, R)


def sum_residual(M: SparseMatrix, F: FactorPair) -> Tuple[float, float]:
    """(max |row-sum deviation|, max |col-sum deviation|) of F vs M."""
    if F.shape != (M.rows, M.cols):
        raise ValueError(f"shape mismatch {F.shape} vs {(M.rows, M.cols)}")
    row = float(np.abs(F.row_sums() - M.row_sums()).max(initial=0.0))
    col = float(np.abs(F.col_sums() - M.col_sums()).max(initial=0.0))
    return row, col


def nmf_gkl(
    M: SparseMatrix,
    k: int,
    max_iters: int = 200,
    rel_tol: float = 1e-6,
    eps: float = 1e-12,
    seed: Union[int, np.random.SeedSequence] = 0,
    enforce_col_sums: bool = True,
) -> Tuple[FactorPair, ConvergenceReport]:
    """Rank-k nonnegative factorization of M under gKL.

    k is clamped (with a report warning) to the number of nonzero rows/
    columns.  k = 1 short-circuits to the closed form, which is the global
    optimum and preserves both sums to machine precision, so it is left
    unscaled.  Any higher rank is solved as a batch of one by
    ``nmf_gkl_many``, with the same bytes as in any larger batch.
    """
    if k < 1:
        raise ValueError(f"rank must be >= 1, got {k}")
    if M.nnz == 0:
        raise ValueError("cannot factorize an all-zero matrix")

    warnings: List[str] = []
    eff_rows = len(np.unique(M.ii))
    eff_cols = len(np.unique(M.jj))
    k_eff = min(k, eff_rows, eff_cols)
    if k_eff < k:
        warnings.append(
            f"rank {k} clamped to {k_eff} (effective dims {eff_rows}x{eff_cols})"
        )

    if k_eff == 1:
        pair = best_rank1(M)
        row_res, col_res = sum_residual(M, pair)
        obj = gkl(M, pair)
        return pair, ConvergenceReport(
            iterations=0,
            final_gkl=obj,
            max_row_residual=row_res,
            max_col_residual=col_res,
            rank=1,
            converged=True,
            objective_history=[obj],
            warnings=warnings,
            kind="rank1",
        )

    [(pair, report)] = nmf_gkl_many(
        [M],
        k_eff,
        [seed],
        max_iters=max_iters,
        rel_tol=rel_tol,
        eps=eps,
        enforce_col_sums=enforce_col_sums,
    )
    report.warnings[:0] = warnings
    return pair, report


# Most nnz * rank one solver group may hold, unless a single slice holds
# more.  A group iterates on two gathered factor blocks of nnz * rank
# floats, so each stays within 16 MiB.
GROUP_WORK = 1 << 21


def nmf_gkl_many(
    matrices: Sequence[SparseMatrix],
    k: int,
    seeds: Sequence[Union[int, np.random.SeedSequence]],
    max_iters: int = 200,
    rel_tol: float = 1e-6,
    eps: float = 1e-12,
    enforce_col_sums: bool = True,
    names: Optional[Sequence[str]] = None,
    threads: int = 1,
) -> List[Tuple[FactorPair, ConvergenceReport]]:
    """Rank-k nonnegative factorizations of many matrices under gKL.

    Each matrix starts from W, H uniform in (0, 1] drawn from its own seed,
    scaled so total(W @ H) == total(M).  Each iteration updates W, then H,
    and records the objective; a rise is reported as a warning.  A matrix
    stops when its relative improvement drops below ``rel_tol`` or after
    ``max_iters``, and leaves the batch.  Then each column of its product is
    rescaled to M's column sum, and the row-sum deviation left is reported.
    k is not clamped: callers pass k <= each matrix's nonzero rows and
    columns.

    The batch is solved in consecutive groups of at most
    ``max(GROUP_WORK, largest nnz * k)`` nonzero-rank products, on
    ``threads`` threads.  A matrix's factors, report and objective history
    are the same bytes alone, in any batch, group or thread count.  A
    non-finite factor raises ``FactorizationError`` naming the matrix
    (``names[i]``, default ``slice i``) and the iteration.
    """
    if k < 1:
        raise ValueError(f"rank must be >= 1, got {k}")
    if len(seeds) != len(matrices):
        raise ValueError(f"{len(matrices)} matrices but {len(seeds)} seeds")
    if any(m.nnz == 0 for m in matrices):
        raise ValueError("cannot factorize an all-zero matrix")
    if names is None:
        names = [f"slice {i}" for i in range(len(matrices))]

    def solve(group: List[int]) -> List[Tuple[FactorPair, ConvergenceReport]]:
        return _solve_group(
            [matrices[i] for i in group],
            k,
            [seeds[i] for i in group],
            [names[i] for i in group],
            max_iters,
            rel_tol,
            eps,
            enforce_col_sums,
        )

    groups = _groups([m.nnz * k for m in matrices], threads)
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


class _Support:
    """The concatenated supports of some matrices, one block-diagonal matrix.

    Factors are kept term-major, W as k x (all rows) and H as k x (all
    columns), so each gather at the support reads one contiguous row per
    rank term, and rank terms are summed one at a time, in order.
    """

    def __init__(self, mats: List[SparseMatrix]):
        n = len(mats)
        ids = np.arange(n)
        rows = np.array([m.rows for m in mats], dtype=np.int64)
        cols = np.array([m.cols for m in mats], dtype=np.int64)
        nnz = np.array([m.nnz for m in mats], dtype=np.int64)
        self.row_start = np.concatenate(([0], np.cumsum(rows)))
        self.col_start = np.concatenate(([0], np.cumsum(cols)))
        self.seg = np.repeat(ids, nnz)
        self.row_seg = np.repeat(ids, rows)
        self.col_seg = np.repeat(ids, cols)
        self.ii = np.concatenate([m.ii for m in mats]) + self.row_start[self.seg]
        self.jj = np.concatenate([m.jj for m in mats]) + self.col_start[self.seg]
        self.vals = np.concatenate([m.vals for m in mats])
        self.totals = np.array([m.total() for m in mats])
        self.n = n

    def objective(self, pred, Wsum, Hsum) -> np.ndarray:
        """gKL(M, W @ H) of each matrix, from its prediction at the support."""
        vals = self.vals
        log_term = np.bincount(
            self.seg, vals * np.log(vals / np.maximum(pred, _TINY)), minlength=self.n
        )
        return log_term - self.totals + _dot_terms(Wsum, Hsum)


def _term_bincount(F: np.ndarray, at: np.ndarray, size: int, weight=None) -> np.ndarray:
    """k x size: each term's row of F (times ``weight``) summed into bins
    ``at``, in order, one term at a time.  With the matrices' row or column
    ids as bins this gives the per-matrix factor sums; with the support's
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


def _initial_factors(
    mats: List[SparseMatrix], k: int, seeds: List[Union[int, np.random.SeedSequence]]
) -> Tuple[np.ndarray, np.ndarray]:
    """Term-major W and H of all matrices, each drawn from its own seed."""
    W_parts, H_parts = [], []
    for m, seed in zip(mats, seeds):
        rng = np.random.default_rng(seed)
        # Uniform in (0, 1], then scale so total(W@H) == total(M).
        W = 1.0 - rng.random((m.rows, k))
        H = 1.0 - rng.random((k, m.cols))
        W *= m.total() / (W.sum(axis=0) @ H.sum(axis=1))
        W_parts.append(W.T)
        H_parts.append(H)
    return np.concatenate(W_parts, axis=1), np.concatenate(H_parts, axis=1)


def _solve_group(
    mats: List[SparseMatrix],
    k: int,
    seeds: List[Union[int, np.random.SeedSequence]],
    names: List[str],
    max_iters: int,
    rel_tol: float,
    eps: float,
    enforce_col_sums: bool,
) -> List[Tuple[FactorPair, ConvergenceReport]]:
    W, H = _initial_factors(mats, k, seeds)
    act = np.arange(len(mats))  # the running matrices, in batch order
    sup = _Support(mats)
    # The factors gathered at the support, nnz * k floats each.  Each
    # iteration gathers into the same two blocks (unbuffered with "clip";
    # every index is in range).
    Hg = np.take(H, sup.jj, axis=1)
    Wg = np.take(W, sup.ii, axis=1)
    pred = _dot_terms(Wg, Hg)
    Wsum, Hsum = _term_bincount(W, sup.row_seg, sup.n), _term_bincount(H, sup.col_seg, sup.n)
    last = sup.objective(pred, Wsum, Hsum)
    history = [[v] for v in last.tolist()]
    warnings: List[List[str]] = [[] for _ in mats]
    results: List[Optional[Tuple[FactorPair, ConvergenceReport]]] = [None] * len(mats)

    def finish(i: int, s: int, iterations: int, converged: bool) -> None:
        M = mats[s]
        r0, r1 = sup.row_start[i : i + 2]
        c0, c1 = sup.col_start[i : i + 2]
        # Copies, so the report keeps no view of the batch's arrays.
        Ws = W[:, r0:r1].T.copy()
        Hs = H[:, c0:c1].copy()
        if enforce_col_sums:
            target = M.col_sums()
            approx_cols = Ws.sum(axis=0) @ Hs
            Hs = Hs * (target / np.maximum(approx_cols, _TINY))[None, :]
        pair = FactorPair(Ws, Hs)
        row_res, col_res = sum_residual(M, pair)
        results[s] = pair, ConvergenceReport(
            iterations=iterations,
            final_gkl=gkl(M, pair),
            max_row_residual=row_res,
            max_col_residual=col_res,
            rank=k,
            converged=converged,
            objective_history=history[s],
            warnings=warnings[s],
        )

    if max_iters < 1:
        for i in range(len(mats)):
            finish(i, i, 0, False)
    for it in range(1, max_iters + 1):
        ratio = sup.vals / np.maximum(pred, eps)
        den = np.take(np.maximum(Hsum, eps), sup.row_seg, axis=1)
        W *= _term_bincount(Hg, sup.ii, W.shape[1], ratio) / den
        np.take(W, sup.ii, axis=1, out=Wg, mode="clip")
        ratio = sup.vals / np.maximum(_dot_terms(Wg, Hg), eps)
        Wsum = _term_bincount(W, sup.row_seg, sup.n)
        den = np.take(np.maximum(Wsum, eps), sup.col_seg, axis=1)
        H *= _term_bincount(Wg, sup.jj, H.shape[1], ratio) / den

        if not (np.isfinite(W).all() and np.isfinite(H).all()):
            bad = np.zeros(len(act), dtype=bool)
            bad[sup.row_seg[~np.isfinite(W).all(axis=0)]] = True
            bad[sup.col_seg[~np.isfinite(H).all(axis=0)]] = True
            raise FactorizationError(
                f"non-finite factor values at iteration {it} in {names[act[bad.argmax()]]}"
            )

        np.take(H, sup.jj, axis=1, out=Hg, mode="clip")
        pred = _dot_terms(Wg, Hg)
        Hsum = _term_bincount(H, sup.col_seg, sup.n)
        obj = sup.objective(pred, Wsum, Hsum)
        rose = obj > last + 1e-9 * np.maximum(1.0, np.abs(last))
        done = last - obj < rel_tol * np.maximum(np.abs(last), _TINY)
        for s, prev, cur, up in zip(act.tolist(), last.tolist(), obj.tolist(), rose.tolist()):
            history[s].append(cur)
            if up:
                warnings[s].append(f"objective increased at iteration {it}: {prev} -> {cur}")
        last = obj

        stop = done | (it == max_iters)
        if not stop.any():
            continue
        # Leave the stopped matrices out: the running ones keep every value,
        # in C order (``compress``; a mask index would transpose the layout).
        # The gathered blocks shrink first, so finishing adds to less memory.
        keep = ~stop
        Hg, pred = Hg.compress(keep[sup.seg], axis=1), pred[keep[sup.seg]]
        Wg = np.empty_like(Hg)
        for i in np.flatnonzero(stop).tolist():
            finish(i, int(act[i]), it, bool(done[i]))
        if not keep.any():
            break
        act, last, Hsum = act[keep], last[keep], Hsum.compress(keep, axis=1)
        W, H = W.compress(keep[sup.row_seg], axis=1), H.compress(keep[sup.col_seg], axis=1)
        sup = _Support([mats[s] for s in act.tolist()])
    return results
