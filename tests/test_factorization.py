"""Generalized KL divergence and sum-preserving low-rank factorization."""

import math
import re
import warnings

import numpy as np
import pytest

from plre import factorization
from plre.ensemble import build_plre, compute_discounts, compute_z
from plre.errors import ConfigError, FactorizationError
from plre.factorization import best_rank1, fit_reports, nmf_gkl, nmf_gkl_many

from conftest import count_table, dense_gkl, dense_residuals

# The 3x3 bigram matrix used throughout: rows are the predicted word,
# columns the preceding one.  Row sums [4, 5, 2], col sums [3, 7, 1],
# grand total 11.
B_COUNTS = np.array([[1.0, 2.0, 1.0], [0.0, 5.0, 0.0], [2.0, 0.0, 0.0]])


def _random_dense(rng, rows, cols, density=0.5, scale=10.0):
    dense = rng.random((rows, cols)) * scale
    dense[rng.random((rows, cols)) >= density] = 0.0
    # make sure no row or column is entirely empty
    for i in range(rows):
        if dense[i].sum() == 0.0:
            dense[i, rng.integers(cols)] = scale * rng.random() + 0.1
    for j in range(cols):
        if dense[:, j].sum() == 0.0:
            dense[rng.integers(rows), j] = scale * rng.random() + 0.1
    return dense


def _pack(matrices, ranks):
    """Dense matrices in the solver's flat layout at the given ranks:
    (support with nnz offsets, its rows and columns numbered across all
    slices, dims, zeroed factors with their offsets)."""
    supports = [np.nonzero(M) for M in matrices]
    row0 = np.cumsum([0] + [M.shape[0] for M in matrices])
    col0 = np.cumsum([0] + [M.shape[1] for M in matrices])
    ii, jj, vals = (
        np.concatenate(parts)
        for parts in zip(
            *[(ii + r, jj + c, M[ii, jj]) for M, (ii, jj), r, c in zip(matrices, supports, row0, col0)]
        )
    )
    nnz_start = np.cumsum([0] + [len(ii) for ii, _ in supports])
    dims = np.array([(*M.shape, r) for M, r in zip(matrices, ranks)])
    L_start = np.cumsum([0] + [M.shape[0] * r for M, r in zip(matrices, ranks)])
    R_start = np.cumsum([0] + [r * M.shape[1] for M, r in zip(matrices, ranks)])
    factors = (np.zeros(L_start[-1]), np.zeros(R_start[-1]), L_start, R_start)
    return (ii, jj, vals, nnz_start), dims, factors


def _factors(factors, dims, s):
    """Slice s's (L, R) out of the flat factors."""
    L, R, L_start, R_start = factors
    rows, cols, rank = dims[s]
    return (
        L[L_start[s] : L_start[s + 1]].reshape(rows, rank),
        R[R_start[s] : R_start[s + 1]].reshape(rank, cols),
    )


def _reports(matrices, pairs):
    """fit_reports of dense matrices against given factor pairs."""
    pairs = [(np.asarray(L, dtype=float), np.asarray(R, dtype=float)) for L, R in pairs]
    support, dims, factors = _pack(
        [np.asarray(M, dtype=float) for M in matrices], [L.shape[1] for L, _ in pairs]
    )
    factors[0][:] = np.concatenate([L.ravel() for L, _ in pairs])
    factors[1][:] = np.concatenate([R.ravel() for _, R in pairs])
    return fit_reports(support, dims, factors, {})


def _gkl(M, L, R):
    [report] = _reports([M], [(L, R)])
    return report.final_gkl


class TestFitReports:
    def test_identical_arguments_give_zero(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            m = _random_dense(rng, 6, 5)
            # the factors m @ I reproduce m exactly; summation orders differ
            assert _gkl(m, m, np.eye(5)) == pytest.approx(0.0, abs=1e-10)

    def test_single_cell_value(self):
        # 1*ln(1/2) - 1 + 2
        assert _gkl([[1.0]], [[1.0]], [[2.0]]) == pytest.approx(0.3068528194400547, abs=1e-15)

    def test_zero_cells_contribute_only_their_mass(self):
        # 0*log(0/3) = 0, so only the +3 surplus remains
        assert _gkl([[0.0, 1.0]], [[1.0]], [[3.0, 1.0]]) == 3.0

    def test_positive_cell_over_zero_is_infinite_and_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _gkl([[1.0]], [[1.0]], [[0.0]]) == math.inf

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            a = _random_dense(rng, 5, 7)
            b = rng.random((5, 7)) * 4.0 + 0.05
            assert _gkl(a, b, np.eye(7)) >= 0.0

    def test_matches_the_dense_product(self):
        L, R = best_rank1(B_COUNTS)
        assert _gkl(B_COUNTS, L, R) == pytest.approx(dense_gkl(B_COUNTS, L @ R), abs=1e-12)

    def test_mixed_ranks_in_one_batch_match_dense_oracles(self):
        rng = np.random.default_rng(19)
        shapes = ((6, 5, 1), (9, 7, 3), (4, 8, 2), (1, 3, 1), (12, 10, 4))
        mats = [_random_dense(rng, r, c) for r, c, _ in shapes]
        pairs = [(rng.random((r, k)), rng.random((k, c))) for r, c, k in shapes]
        for M, (L, R), report in zip(mats, pairs, _reports(mats, pairs)):
            tol = 1e-12 * M.sum()
            row, col = dense_residuals(M, L @ R)
            assert report.final_gkl == pytest.approx(dense_gkl(M, L @ R), abs=tol)
            assert report.max_row_residual == pytest.approx(row, abs=tol)
            assert report.max_col_residual == pytest.approx(col, abs=tol)
            # a slice's kind is its rank's; no solver ran, so a slice of
            # higher rank has no iteration count
            k = L.shape[1]
            want = ("rank1", 1, 0) if k == 1 else ("iterative", k, None)
            assert (report.kind, report.rank, report.iterations) == want

    def test_closed_form_residuals_are_zero(self):
        _, report = nmf_gkl(B_COUNTS, 1)
        assert report.max_row_residual <= 1e-12
        assert report.max_col_residual <= 1e-12

    def test_doubling_left_factor_shows_up_as_largest_sum(self):
        L, R = best_rank1(B_COUNTS)
        [report] = _reports([B_COUNTS], [(2.0 * L, R)])
        # doubling the approximation leaves a deviation equal to each
        # original sum; the largest are 5 (rows) and 7 (columns)
        assert report.max_row_residual == pytest.approx(5.0, abs=1e-12)
        assert report.max_col_residual == pytest.approx(7.0, abs=1e-12)


class TestBestRank1:
    def test_rank_one_input_reproduced_exactly(self):
        L, R = best_rank1(np.ones((2, 2)))
        assert np.array_equal(L @ R, np.ones((2, 2)))

    def test_diagonal_two_by_two(self):
        L, R = best_rank1(np.array([[2.0, 0.0], [0.0, 2.0]]))
        assert np.allclose(L @ R, np.ones((2, 2)), atol=1e-15)

    def test_worked_three_by_three_entry(self):
        # independence approximation: entry (0,0) = row_sum * col_sum / total
        # = 4*3/11
        L, R = best_rank1(B_COUNTS)
        assert (L @ R)[0, 0] == pytest.approx(1.0909090909090908, abs=1e-15)

    def test_preserves_row_and_column_sums(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = _random_dense(rng, 8, 6)
            L, R = best_rank1(m)
            row, col = dense_residuals(m, L @ R)
            assert row <= 1e-10 * m.sum()
            assert col <= 1e-10 * m.sum()

    def test_beats_random_rank_one_candidates(self):
        rng = np.random.default_rng(29)
        for trial in range(3):
            m = _random_dense(rng, 10, 10, density=0.6)
            L, R = best_rank1(m)
            best = dense_gkl(m, L @ R)
            for _ in range(1000):
                cand = (rng.random((10, 1)) + 1e-3) @ (rng.random((1, 10)) + 1e-3)
                assert best <= dense_gkl(m, cand) + 1e-9

    def test_all_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            best_rank1(np.zeros((2, 2)))


class TestNmfGkl:
    def test_rank_one_matches_closed_form(self):
        rng = np.random.default_rng(11)
        m = _random_dense(rng, 7, 5)
        (L, R), report = nmf_gkl(m, 1, seed=0)
        Lc, Rc = best_rank1(m)
        assert np.abs((L @ R).sum(axis=1) - (Lc @ Rc).sum(axis=1)).max() < 1e-8
        assert np.abs((L @ R).sum(axis=0) - (Lc @ Rc).sum(axis=0)).max() < 1e-8
        assert report.converged

    def test_recovers_exact_rank_two_objective(self):
        rng = np.random.default_rng(23)
        a = rng.random(8) + 0.1
        b = rng.random(6) + 0.1
        c = rng.random(8) + 0.1
        d = rng.random(6) + 0.1
        m = np.outer(a, b) + np.outer(c, d)
        _, report = nmf_gkl(m, 2, max_iters=4000, rel_tol=1e-13, seed=1)
        assert report.final_gkl < 1e-6 * m.sum()

    def test_full_rank_reproduces_input(self):
        rng = np.random.default_rng(31)
        m = rng.random((5, 5)) + 0.05
        _, report = nmf_gkl(m, 5, max_iters=5000, rel_tol=1e-14, seed=2)
        assert report.final_gkl < 1e-8 * m.sum()

    def test_objective_history_is_monotone(self):
        rng = np.random.default_rng(41)
        for seed in range(4):
            m = _random_dense(rng, 12, 9, density=0.4)
            _, report = nmf_gkl(m, 3, max_iters=300, rel_tol=1e-10, seed=seed)
            hist = report.objective_history
            for prev, cur in zip(hist, hist[1:]):
                assert cur <= prev + 1e-9 * max(1.0, abs(prev))
            assert not report.warnings

    def test_column_sums_match_after_rescaling(self):
        rng = np.random.default_rng(43)
        m = _random_dense(rng, 10, 8, density=0.5)
        _, report = nmf_gkl(m, 3, max_iters=400, seed=7)
        assert report.max_col_residual <= 1e-12 * m.sum()

    def test_row_residual_small_at_tight_tolerance(self):
        rng = np.random.default_rng(47)
        m = _random_dense(rng, 30, 30, density=0.35)
        _, report = nmf_gkl(m, 4, max_iters=3000, rel_tol=1e-9, seed=3)
        assert report.max_row_residual < 1e-5 * m.sum()

    def test_deterministic_for_a_seed(self):
        rng = np.random.default_rng(53)
        m = _random_dense(rng, 9, 9, density=0.5)
        (L1, R1), r1 = nmf_gkl(m, 3, max_iters=150, seed=99)
        (L2, R2), r2 = nmf_gkl(m, 3, max_iters=150, seed=99)
        assert np.array_equal(L1, L2)
        assert np.array_equal(R1, R2)
        assert r1.final_gkl == r2.final_gkl

    def test_rank_clamped_to_effective_dimensions(self):
        # only two distinct rows carry mass, so rank 3 cannot be meaningful
        m = np.zeros((4, 3))
        m[0, 0], m[0, 2], m[3, 1] = 2.0, 1.0, 4.0
        _, report = nmf_gkl(m, 3, max_iters=50, seed=0)
        assert report.rank == 2
        assert any("clamped" in w for w in report.warnings)

    def test_invalid_rank_rejected(self):
        with pytest.raises(ValueError):
            nmf_gkl(np.array([[1.0, 0.0], [0.0, 0.0]]), 0)

    def test_non_matrices_rejected(self):
        for bad in (np.ones(3), np.zeros((0, 2)), np.ones((2, 2, 2))):
            with pytest.raises(ValueError, match="at least 1 x 1"):
                nmf_gkl(bad, 1)
            with pytest.raises(ValueError, match="at least 1 x 1"):
                best_rank1(bad)


def test_fewer_than_one_iteration_is_rejected_everywhere(toy_corpus, toy_top3):
    # a cap below 1 would return unfitted random factors
    support, dims, factors = _pack([B_COUNTS], [2])
    with pytest.raises(ValueError, match="max_iters"):
        nmf_gkl_many(support, dims, factors, [0], [0], max_iters=0)
    with pytest.raises(ValueError, match="max_iters"):
        nmf_gkl(B_COUNTS, 2, max_iters=0)
    _, vocab, _ = toy_corpus
    for cap in (0, -3):
        with pytest.raises(ConfigError, match="nmf_max_iters"):
            build_plre(toy_top3, vocab, ranks={2: (1,), 3: (1,)}, nmf_max_iters=cap)


def _batch_slices():
    """Five slices for rank 3 at 60 iterations: the first converges at
    iteration 38, the others stop at the cap."""
    rng = np.random.default_rng(61)
    mats = [_random_dense(rng, r, c) for r, c in ((6, 5), (9, 7), (4, 8), (12, 10))]
    mats.insert(1, np.outer(rng.random(5) + 0.1, rng.random(4) + 0.1))
    return mats


def _solve_batch(mats, seeds, batch=None, ranks=None, **kw):
    """nmf_gkl_many over the packed matrices, at rank 3 unless ``ranks``
    are given; each solved slice's (L bytes, R bytes, iterations,
    converged, history bytes, warnings)."""
    support, dims, factors = _pack(mats, ranks or [3] * len(mats))
    batch = list(range(len(mats))) if batch is None else batch
    solved = nmf_gkl_many(support, dims, factors, batch, seeds, **kw)
    out = {}
    for s, (iterations, converged, history, notes) in zip(batch, solved):
        L, R = _factors(factors, dims, s)
        history = np.array(history).tobytes()
        out[s] = (L.tobytes(), R.tobytes(), iterations, converged, history, notes)
    return out, factors, dims


def _fingerprint(result):
    (L, R), report = result
    return (
        L.tobytes(),
        R.tobytes(),
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
        batch, _, _ = _solve_batch(mats, seeds, **self.SOLVE)
        alone = [nmf_gkl(m, 3, seed=s, **self.SOLVE) for m, s in zip(mats, seeds)]
        iterations = [batch[s][2] for s in range(len(mats))]
        assert iterations[0] < 60 and batch[0][3]
        assert 60 in iterations and not all(batch[s][3] for s in range(len(mats)))
        for s, want in enumerate(alone):
            assert batch[s] == _fingerprint(want)

    def test_writes_only_the_factors_of_its_batch(self):
        mats = _batch_slices()
        whole, _, _ = _solve_batch(mats, [0, 1, 2, 3, 4], **self.SOLVE)
        part, factors, dims = _solve_batch(mats, [1, 4], batch=[1, 4], **self.SOLVE)
        assert part == {1: whole[1], 4: whole[4]}
        for s in (0, 2, 3):
            assert not any(f.any() for f in _factors(factors, dims, s))

    def test_threads_give_the_same_bytes(self):
        mats = _batch_slices()
        seeds = list(range(len(mats)))
        whole, _, _ = _solve_batch(mats, seeds, **self.SOLVE)
        threaded, _, _ = _solve_batch(mats, seeds, threads=3, **self.SOLVE)
        assert threaded == whole

    def test_one_call_over_mixed_ranks_gives_each_slice_its_bytes_alone(self):
        mats = _batch_slices()
        ranks, seeds = [2, 3, 4, 3, 2], [5, 6, 7, 8, 9]
        mixed, _, _ = _solve_batch(mats, seeds, ranks=ranks, **self.SOLVE)
        for s, (m, rank, seed) in enumerate(zip(mats, ranks, seeds)):
            assert mixed[s] == _fingerprint(nmf_gkl(m, rank, seed=seed, **self.SOLVE))

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_factor_names_its_slice(self):
        mats = _batch_slices()[:3]
        # A finite entry whose products overflow.
        mats[1][np.nonzero(mats[1])[0][0], np.nonzero(mats[1])[1][0]] = 1.7e308
        support, dims, factors = _pack(mats, [3] * 3)
        with pytest.raises(FactorizationError, match="iteration 1 in second$"):
            nmf_gkl_many(
                support, dims, factors, [0, 1, 2], [0, 1, 2], names=["first", "second", "third"]
            )

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
        # hand the NaN to the solver.  Either way compute_z must refuse it
        # first, naming the count, rather than store NaN factors.
        spec = _two_interiors(math.nan)
        with pytest.raises(FactorizationError, match="non-finite discounted count nan"):
            compute_z(spec, rank=rank)

    def test_rejects_mismatched_seeds(self):
        support, dims, factors = _pack(_batch_slices(), [3] * 5)
        with pytest.raises(ValueError):
            nmf_gkl_many(support, dims, factors, range(5), [0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_dense_entry_points_reject_negative_or_non_finite_values(bad):
    m = np.array([[1.0, 0.0], [0.0, bad]])
    with pytest.raises(ValueError, match="negative or non-finite"):
        nmf_gkl(m, 1)
    with pytest.raises(ValueError, match="negative or non-finite"):
        nmf_gkl(m, 2)
    with pytest.raises(ValueError, match="negative or non-finite"):
        best_rank1(m)


def test_every_exported_name_resolves():
    import plre

    assert len(set(plre.__all__)) == len(plre.__all__)
    for name in plre.__all__:
        assert getattr(plre, name) is not None, name
    for gone in ("SparseMatrix", "FactorPair", "gkl", "sum_residual"):
        assert not hasattr(plre, gone) and not hasattr(factorization, gone), gone
