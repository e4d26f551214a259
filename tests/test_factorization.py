"""Generalized KL divergence and sum-preserving low-rank factorization."""

import math
import re

import numpy as np
import pytest

from plre import factorization
from plre.ensemble import compute_discounts, compute_z
from plre.errors import FactorizationError
from plre.factorization import (
    FactorPair,
    SparseMatrix,
    best_rank1,
    gkl,
    nmf_gkl,
    nmf_gkl_many,
    sum_residual,
)

from conftest import count_table

# The 3x3 bigram matrix used throughout: rows are the predicted word,
# columns the preceding one.  Row sums [4, 5, 2], col sums [3, 7, 1],
# grand total 11.
B_COUNTS = [[1.0, 2.0, 1.0], [0.0, 5.0, 0.0], [2.0, 0.0, 0.0]]


def _random_sparse(rng, rows, cols, density=0.5, scale=10.0):
    dense = rng.random((rows, cols)) * scale
    dense[rng.random((rows, cols)) >= density] = 0.0
    # make sure no row or column is entirely empty
    for i in range(rows):
        if dense[i].sum() == 0.0:
            dense[i, rng.integers(cols)] = scale * rng.random() + 0.1
    for j in range(cols):
        if dense[:, j].sum() == 0.0:
            dense[rng.integers(rows), j] = scale * rng.random() + 0.1
    return SparseMatrix.from_dense(dense)


class TestGkl:
    def test_identical_arguments_give_zero(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            m = _random_sparse(rng, 6, 5)
            # summation order differs between the sparse and dense totals
            assert gkl(m, m.to_dense()) == pytest.approx(0.0, abs=1e-10)

    def test_single_cell_value(self):
        # 1*ln(1/2) - 1 + 2
        val = gkl(np.array([[1.0]]), np.array([[2.0]]))
        assert val == pytest.approx(0.3068528194400547, abs=1e-15)

    def test_zero_cells_contribute_only_their_mass(self):
        # 0*log(0/3) = 0, so only the +3 surplus remains
        val = gkl(np.array([[0.0, 1.0]]), np.array([[3.0, 1.0]]))
        assert val == 3.0

    def test_positive_cell_over_zero_is_infinite(self):
        assert gkl(np.array([[1.0]]), np.array([[0.0]])) == math.inf

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            a = _random_sparse(rng, 5, 7)
            b = rng.random((5, 7)) * 4.0 + 0.05
            assert gkl(a, b) >= 0.0

    def test_accepts_factor_pair_argument(self):
        m = SparseMatrix.from_dense(np.array(B_COUNTS))
        pair = best_rank1(m)
        assert gkl(m, pair) == pytest.approx(gkl(m, pair.product()), abs=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            gkl(np.ones((2, 2)), np.ones((2, 3)))


class TestBestRank1:
    def test_rank_one_input_reproduced_exactly(self):
        m = SparseMatrix.from_dense(np.ones((2, 2)))
        pair = best_rank1(m)
        assert np.array_equal(pair.product(), np.ones((2, 2)))

    def test_diagonal_two_by_two(self):
        m = SparseMatrix.from_dense(np.array([[2.0, 0.0], [0.0, 2.0]]))
        pair = best_rank1(m)
        assert np.allclose(pair.product(), np.ones((2, 2)), atol=1e-15)

    def test_worked_three_by_three_entry(self):
        # independence approximation: entry (0,0) = row_sum * col_sum / total
        # = 4*3/11
        m = SparseMatrix.from_dense(np.array(B_COUNTS))
        pair = best_rank1(m)
        assert pair.product()[0, 0] == pytest.approx(1.0909090909090908, abs=1e-15)

    def test_preserves_row_and_column_sums(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = _random_sparse(rng, 8, 6)
            row, col = sum_residual(m, best_rank1(m))
            assert row <= 1e-10 * m.total()
            assert col <= 1e-10 * m.total()

    def test_beats_random_rank_one_candidates(self):
        rng = np.random.default_rng(29)
        for trial in range(3):
            m = _random_sparse(rng, 10, 10, density=0.6)
            best = gkl(m, best_rank1(m))
            for _ in range(1000):
                cand = FactorPair(
                    rng.random((10, 1)) + 1e-3, rng.random((1, 10)) + 1e-3
                )
                assert best <= gkl(m, cand) + 1e-9

    def test_all_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            best_rank1(SparseMatrix.from_dense(np.zeros((2, 2))))


class TestNmfGkl:
    def test_rank_one_matches_closed_form(self):
        rng = np.random.default_rng(11)
        m = _random_sparse(rng, 7, 5)
        pair, report = nmf_gkl(m, 1, seed=0)
        closed = best_rank1(m)
        assert np.abs(pair.row_sums() - closed.row_sums()).max() < 1e-8
        assert np.abs(pair.col_sums() - closed.col_sums()).max() < 1e-8
        assert report.converged

    def test_recovers_exact_rank_two_objective(self):
        rng = np.random.default_rng(23)
        a = rng.random(8) + 0.1
        b = rng.random(6) + 0.1
        c = rng.random(8) + 0.1
        d = rng.random(6) + 0.1
        m = SparseMatrix.from_dense(np.outer(a, b) + np.outer(c, d))
        pair, report = nmf_gkl(m, 2, max_iters=4000, rel_tol=1e-13, seed=1)
        assert report.final_gkl < 1e-6 * m.total()

    def test_full_rank_reproduces_input(self):
        rng = np.random.default_rng(31)
        m = SparseMatrix.from_dense(rng.random((5, 5)) + 0.05)
        pair, report = nmf_gkl(m, 5, max_iters=5000, rel_tol=1e-14, seed=2)
        assert report.final_gkl < 1e-8 * m.total()

    def test_objective_history_is_monotone(self):
        rng = np.random.default_rng(41)
        for seed in range(4):
            m = _random_sparse(rng, 12, 9, density=0.4)
            _, report = nmf_gkl(m, 3, max_iters=300, rel_tol=1e-10, seed=seed)
            hist = report.objective_history
            for prev, cur in zip(hist, hist[1:]):
                assert cur <= prev + 1e-9 * max(1.0, abs(prev))
            assert not report.warnings

    def test_column_sums_match_after_rescaling(self):
        rng = np.random.default_rng(43)
        m = _random_sparse(rng, 10, 8, density=0.5)
        _, report = nmf_gkl(m, 3, max_iters=400, seed=7)
        assert report.max_col_residual <= 1e-12 * m.total()

    def test_row_residual_small_at_tight_tolerance(self):
        rng = np.random.default_rng(47)
        m = _random_sparse(rng, 30, 30, density=0.35)
        _, report = nmf_gkl(m, 4, max_iters=3000, rel_tol=1e-9, seed=3)
        assert report.max_row_residual < 1e-5 * m.total()

    def test_deterministic_for_a_seed(self):
        rng = np.random.default_rng(53)
        m = _random_sparse(rng, 9, 9, density=0.5)
        p1, r1 = nmf_gkl(m, 3, max_iters=150, seed=99)
        p2, r2 = nmf_gkl(m, 3, max_iters=150, seed=99)
        assert np.array_equal(p1.L, p2.L)
        assert np.array_equal(p1.R, p2.R)
        assert r1.final_gkl == r2.final_gkl

    def test_rank_clamped_to_effective_dimensions(self):
        # only two distinct rows carry mass, so rank 3 cannot be meaningful
        m = SparseMatrix(4, 3, [0, 0, 3], [0, 2, 1], [2.0, 1.0, 4.0])
        _, report = nmf_gkl(m, 3, max_iters=50, seed=0)
        assert report.rank == 2
        assert any("clamped" in w for w in report.warnings)

    def test_invalid_rank_rejected(self):
        m = SparseMatrix(2, 2, [0], [0], [1.0])
        with pytest.raises(ValueError):
            nmf_gkl(m, 0)


def _batch_slices():
    """Five slices for rank 3 at 60 iterations: the first converges at
    iteration 38, the others stop at the cap."""
    rng = np.random.default_rng(61)
    mats = [_random_sparse(rng, r, c) for r, c in ((6, 5), (9, 7), (4, 8), (12, 10))]
    mats.insert(1, SparseMatrix.from_dense(np.outer(rng.random(5) + 0.1, rng.random(4) + 0.1)))
    return mats


def _fingerprint(result):
    pair, report = result
    return (
        pair.L.tobytes(),
        pair.R.tobytes(),
        report.iterations,
        report.converged,
        np.array(report.objective_history).tobytes(),
        report.warnings,
    )


def _two_interiors(poison):
    """Chain step 1 (power 1, next power 0.5, d* 0) of an order-3 table with
    two interiors (oldest word 0 and 1), each a full 4 x 4 slice, with the
    powered count of (2, 1, 3) set to ``poison``."""
    table = count_table(
        3, {(w, h, x): 1 + w + h + x for w in range(4) for h in range(2) for x in range(4)}
    )
    spec = compute_discounts(table, (1.0, 1.0, 0.5), 0.0)[1]
    spec.powered[list(table.entries).index((2, 1, 3))] = poison
    return spec


class TestNmfGklMany:
    SOLVE = dict(max_iters=60, rel_tol=1e-6)

    def test_batch_gives_the_bytes_of_each_slice_alone(self):
        mats = _batch_slices()
        seeds = list(range(len(mats)))
        batch = nmf_gkl_many(mats, 3, seeds, **self.SOLVE)
        alone = [nmf_gkl(m, 3, seed=s, **self.SOLVE) for m, s in zip(mats, seeds)]
        iterations = [r.iterations for _, r in batch]
        assert iterations[0] < 60 and batch[0][1].converged
        assert 60 in iterations and not all(r.converged for _, r in batch)
        for got, want in zip(batch, alone):
            assert _fingerprint(got) == _fingerprint(want)

    def test_group_split_and_threads_give_the_same_bytes(self, monkeypatch):
        mats = _batch_slices()
        seeds = list(range(len(mats)))
        whole = [_fingerprint(r) for r in nmf_gkl_many(mats, 3, seeds, **self.SOLVE)]
        monkeypatch.setattr(factorization, "GROUP_WORK", 1)
        assert len(factorization._groups([m.nnz * 3 for m in mats], 1)) > 1
        split = [_fingerprint(r) for r in nmf_gkl_many(mats, 3, seeds, **self.SOLVE)]
        threaded = nmf_gkl_many(mats, 3, seeds, threads=3, **self.SOLVE)
        assert split == whole
        assert [_fingerprint(r) for r in threaded] == whole

    def test_groups_respect_the_work_budget(self):
        work = [5, 1 << 20, 1 << 20, 3, 1 << 22, 7]
        groups = factorization._groups(work, 1)
        assert [i for g in groups for i in g] == list(range(len(work)))
        budget = max(factorization.GROUP_WORK, max(work))
        assert all(sum(work[i] for i in g) <= budget for g in groups)
        assert factorization._groups([], 1) == []

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_factor_names_its_slice(self):
        mats = _batch_slices()[:3]
        poisoned = mats[1].vals.copy()
        # A finite entry whose products overflow: SparseMatrix rejects NaN.
        poisoned[0] = 1.7e308
        mats[1] = SparseMatrix(mats[1].rows, mats[1].cols, mats[1].ii, mats[1].jj, poisoned)
        with pytest.raises(FactorizationError, match="iteration 1 in second$"):
            nmf_gkl_many(mats, 3, [0, 1, 2], names=["first", "second", "third"])

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_compute_z_error_gives_order_step_and_interior(self):
        # Finite, so it passes compute_z's own check, but the solver overflows.
        spec = _two_interiors(1.7e308)
        message = "non-finite factor values at iteration 1 in order 3, chain step 1, interior (1,)"
        with pytest.raises(FactorizationError, match=re.escape(message)):
            compute_z(spec, rank=2)

    @pytest.mark.parametrize("rank", [1, 4])
    def test_nan_count_is_rejected_off_the_solver(self, rank):
        # Rank 1 takes the closed form, which checks no input; rank 4 is cut
        # to 2 on the 4 x 4 slices (16 nonzeros over 8 sides), which would
        # hand the NaN to the solver's matrices.  Either way compute_z must
        # refuse it first, naming the count, rather than store NaN factors.
        spec = _two_interiors(math.nan)
        with pytest.raises(FactorizationError, match="non-finite discounted count nan"):
            compute_z(spec, rank=rank)

    def test_rejects_mismatched_seeds(self):
        with pytest.raises(ValueError):
            nmf_gkl_many(_batch_slices(), 3, [0])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_matrices_and_factors_reject_non_finite_values(bad):
    with pytest.raises(ValueError, match="non-finite"):
        SparseMatrix(2, 2, [0, 1], [0, 1], [1.0, bad])
    with pytest.raises(ValueError, match="finite"):
        FactorPair(np.array([[1.0], [bad]]), np.ones((1, 2)))
    with pytest.raises(ValueError, match="finite"):
        FactorPair(np.ones((2, 1)), np.array([[bad, 1.0]]))


class TestSumResidual:
    def test_closed_form_residuals_are_zero(self):
        m = SparseMatrix.from_dense(np.array(B_COUNTS))
        row, col = sum_residual(m, best_rank1(m))
        assert row <= 1e-12
        assert col <= 1e-12

    def test_doubling_left_factor_shows_up_as_largest_sum(self):
        m = SparseMatrix.from_dense(np.array(B_COUNTS))
        pair = best_rank1(m)
        doubled = FactorPair(2.0 * pair.L, pair.R)
        row, col = sum_residual(m, doubled)
        # doubling the approximation leaves a deviation equal to each
        # original sum; the largest are 5 (rows) and 7 (columns)
        assert row == pytest.approx(5.0, abs=1e-12)
        assert col == pytest.approx(7.0, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        m = SparseMatrix.from_dense(np.ones((2, 3)))
        with pytest.raises(ValueError):
            sum_residual(m, FactorPair(np.ones((2, 1)), np.ones((1, 2))))
