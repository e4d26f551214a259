"""Powered counts, discount chains, low-rank tables, and the ensemble."""

import math
from collections import Counter

import numpy as np
import pytest

from plre.baselines import DiscountParams, NgramLM
from plre.container import load_model, save_model
from plre import ensemble
from plre.corpus import (
    CountTable,
    Vocabulary,
    adjusted_tables,
    build_vocabulary,
    count_ngrams,
)
from plre.ensemble import (
    OpCounter,
    build_plre,
    compute_discounts,
    compute_z,
    derive_dstar,
    power_counts,
)
from plre.errors import ConfigError, FactorizationError
from plre.verify import marginal, marginal_error_bound, normalization_observed, verify_marginal

from conftest import (
    ZReader,
    count_table,
    dense_gkl,
    dense_marginal,
    dense_residuals,
    dict_plre_levels,
    looped_error_bound,
)


def _bigram_table(mat):
    """CountTable from a dense matrix: rows = predicted, cols = context."""
    entries = {}
    for i, row in enumerate(mat):
        for j, v in enumerate(row):
            if v:
                entries[(i, j)] = v
    return count_table(2, entries)


B_COUNTS = [[1, 2, 1], [0, 5, 0], [2, 0, 0]]


def _row_sums(table, values):
    return np.bincount(table.keys[:, 0], values, minlength=3).tolist()


class TestPoweredCounts:
    def test_square_root_row_sums(self):
        table = _bigram_table(B_COUNTS)
        row_sums = _row_sums(table, power_counts(table, 0.5))
        assert row_sums[0] == pytest.approx(3.414213562373095, abs=1e-12)
        assert row_sums[1] == pytest.approx(2.23606797749979, abs=1e-12)
        assert row_sums[2] == pytest.approx(1.4142135623730951, abs=1e-12)

    def test_power_one_is_identity(self):
        table = _bigram_table(B_COUNTS)
        pc = power_counts(table, 1.0)
        assert pc.tolist() == [float(c) for c in table.counts.tolist()]

    def test_power_zero_is_binary_support(self):
        table = _bigram_table(B_COUNTS)
        pc = power_counts(table, 0.0)
        assert set(pc.tolist()) == {1.0}
        assert _row_sums(table, pc) == [3.0, 1.0, 1.0]

    def test_zeros_stay_absent(self):
        # one positive value per stored entry at every power, none added
        table = _bigram_table(B_COUNTS)
        for rho in (0.0, 0.3, 1.0):
            pc = power_counts(table, rho)
            assert pc.shape == table.counts.shape and (pc > 0.0).all()

    def test_context_sums_are_powered_column_sums(self):
        table = _bigram_table(B_COUNTS)
        sums = table.context_sums(power_counts(table, 0.5))
        ctx = list(table.context_totals).index((0,))
        assert sums[ctx] == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-12)

    def test_power_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            power_counts(_bigram_table(B_COUNTS), 1.5)

    def test_bit_equal_to_python_power(self):
        # np.power rounds thousands of counts in 1..50000 differently at
        # these powers; the table's values must be Python's float power
        rng = np.random.default_rng(3)
        counts = np.concatenate([np.arange(1, 50001), rng.integers(1, 50001, size=20000)])
        n = len(counts)
        table = CountTable.from_keys(np.arange(n)[:, None], counts)
        for rho in (0.3, 0.5, 0.6):
            want = np.array([float(c) ** rho for c in counts.tolist()])
            assert power_counts(table, rho).tobytes() == want.tobytes()


class TestComputeDiscounts:
    def test_hand_worked_context(self):
        # counts [4, 1] under one context, rho 1 -> 0.5, d* 0.5:
        # discounts [1.0, 0.5], gamma = 0.5*(2+1)/5 = 0.3, and the
        # discounted conditionals 0.6 + 0.1 close to 1 with gamma
        table = count_table(2, {(5, 3): 4, (6, 3): 1})
        [spec] = compute_discounts(table, (1.0, 0.5), 0.5)
        discounts = spec.discount.tolist()
        assert discounts == [pytest.approx(1.0, abs=1e-15), pytest.approx(0.5, abs=1e-15)]
        assert spec.gamma[0] == pytest.approx(0.3, abs=1e-15)
        total = table.context_totals[(3,)]
        conds = ((table.counts - spec.discount) / total).tolist()
        assert conds == [pytest.approx(0.6), pytest.approx(0.1)]
        assert sum(conds) + spec.gamma[0] == pytest.approx(1.0, abs=1e-15)

    def test_zero_dstar_moves_nothing(self, toy_top3):
        [spec] = compute_discounts(toy_top3, (1.0, 0.5), 0.0)
        assert not spec.discount.any()
        assert not spec.gamma.any()

    def test_equal_powers_scale_proportionally(self, toy_top3):
        # rho_j = rho_{j+1} degenerates to Jelinek-Mercer style scaling
        [spec] = compute_discounts(toy_top3, (0.5, 0.5), 0.3)
        for g in spec.gamma:
            assert g == pytest.approx(0.3, abs=1e-12)
        for v, d in zip(spec.powered[:20], spec.discount[:20]):
            assert v - d == pytest.approx(0.7 * v, abs=1e-12)

    def test_ascending_powers_rejected(self, toy_top3):
        with pytest.raises(ValueError):
            compute_discounts(toy_top3, (0.5, 0.9), 0.5)

    def test_dstar_out_of_range_rejected(self, toy_top3):
        with pytest.raises(ValueError):
            compute_discounts(toy_top3, (1.0, 0.5), 1.1)


class TestComputeZ:
    def test_vocabulary_rank_keeps_one_sided_slices_and_every_context_mass(
        self, toy_corpus, toy_top3
    ):
        # A slice with one row or one column is rank 1, so at any rank cap
        # its closed form reproduces every discounted conditional; wider
        # slices are factorized below their size, but every context's
        # conditionals still sum to its discounted mass.
        _, vocab, _ = toy_corpus
        table = toy_top3
        spec = compute_discounts(table, (1.0, 0.5, 0.0), 0.4)[1]
        z = compute_z(spec, rank=len(vocab))
        contexts = list(table.context_totals)
        reader = ZReader(z, contexts)
        one_sided = {
            tuple(interior)
            for interior, (rows, cols, _) in zip(z.slices.tolist(), z.dims.tolist())
            if min(rows, cols) == 1
        }
        assert 0 < len(one_sided) < len(z.slices)
        for e, key in enumerate(table.entries):
            if key[1:-1] in one_sided:
                want = (spec.powered[e] - spec.discount[e]) / spec.sums[table.ctx_of_entry[e]]
                assert reader.cond(key[0], key[1:]) == pytest.approx(want, abs=1e-8)
        mass = np.bincount(table.ctx_of_entry, spec.powered - spec.discount) / spec.sums
        for c, h in enumerate(contexts):
            rows, cols, L, R = reader.slices[h[:-1]]
            got = L.sum(axis=0) @ R[:, cols[h[-1]]] / reader.denominators[h]
            assert got == pytest.approx(mass[c], abs=1e-8)

    def test_power_zero_rank_one_gives_continuation_unigram(self, toy_corpus):
        # binary support at rank 1 collapses to N-(w)/total for every
        # observed context, which is exactly the continuation base
        _, vocab, enc = toy_corpus
        table = adjusted_tables(count_ngrams(enc, 2))[2]
        [spec] = compute_discounts(table, (0.0, 0.0), 0.0)
        z = ZReader(compute_z(spec, rank=1), list(table.context_totals))
        n_minus = {}
        for (w, _) in table.entries:
            n_minus[w] = n_minus.get(w, 0) + 1
        n_entries = len(table.entries)
        contexts = list(table.context_totals)[:25]
        for w, nm in list(n_minus.items())[:25]:
            for h in contexts:
                assert z.cond(w, h) == pytest.approx(nm / n_entries, abs=1e-12)

    def test_power_one_rank_one_gives_unigram_mle(self, toy_corpus):
        _, vocab, enc = toy_corpus
        table = count_ngrams(enc, 2)
        [spec] = compute_discounts(table, (1.0, 1.0), 0.0)
        z = ZReader(compute_z(spec, rank=1), list(table.context_totals))
        row = {}
        for (w, _), c in table.entries.items():
            row[w] = row.get(w, 0) + c
        for w, c in list(row.items())[:25]:
            for h in list(table.context_totals)[:25]:
                assert z.cond(w, h) == pytest.approx(c / table.total, abs=1e-12)

    def test_nonpositive_discounted_count_is_rejected(self):
        # with d* = 1 and target power 0, singleton entries are discounted
        # to zero, which no PLRE chain does (its d* < 1): every slice is an
        # interior whose entries all stay positive, so compute_z refuses it
        table = count_table(2, {(5, 3): 1, (6, 3): 1, (5, 4): 3})
        [spec] = compute_discounts(table, (1.0, 0.0), 1.0)
        message = r"nonpositive or non-finite discounted count 0.0 at \(5, 3\)"
        with pytest.raises(FactorizationError, match=message):
            compute_z(spec, rank=2)

    def test_unknown_word_or_context_is_zero(self, toy_corpus):
        _, vocab, enc = toy_corpus
        table = count_ngrams(enc, 2)
        [spec] = compute_discounts(table, (0.5, 0.0), 0.5)
        z = compute_z(spec, rank=2)
        assert ZReader(z, list(table.context_totals)).cond(3, (99999,)) == 0.0

    def test_invalid_rank_rejected(self, toy_top3):
        [spec] = compute_discounts(toy_top3, (0.5, 0.0), 0.5)
        with pytest.raises(ConfigError):
            compute_z(spec, rank=0)


ORACLE_CONFIGS = {
    "rank1": dict(order=3, powers={2: (0.5,), 3: (0.5,)}, ranks={2: (1,), 3: (1,)}),
    "rank4": dict(order=3, powers={2: (0.5,), 3: (0.5,)}, ranks={2: (4,), 3: (4,)}),
    "rank4-threads2": dict(
        order=3, powers={2: (0.5,), 3: (0.5,)}, ranks={2: (4,), 3: (4,)}, threads=2
    ),
    "eta0": dict(order=3, powers={2: (), 3: ()}, ranks={2: (), 3: ()}),
    "order4-two-powers": dict(
        order=4, powers={k: (0.6, 0.3) for k in (2, 3, 4)}, ranks={k: (2, 2) for k in (2, 3, 4)}
    ),
    "fixed-dstar": dict(
        order=3, powers={2: (0.5,), 3: (0.5,)}, ranks={2: (3,), 3: (3,)}, dstar=0.6
    ),
}


@pytest.mark.parametrize("name", list(ORACLE_CONFIGS))
def test_array_build_is_byte_equal_to_the_dict_build(toy_corpus, name):
    # counting, adjusted tables, powered sums, gammas, slicing, per-slice
    # ranks and closed forms, all as arrays, against the entry-by-entry build
    _, vocab, enc = toy_corpus
    cfg = dict(ORACLE_CONFIGS[name])
    order, threads = cfg.pop("order"), cfg.pop("threads", 1)
    model = build_plre(count_ngrams(enc, order), vocab, seed=0, threads=threads, **cfg)
    want = dict_plre_levels(enc, order, seed=0, **cfg)

    def same(got, expected):
        got = np.asarray(got)
        return got.shape == expected.shape and (
            got.astype(expected.dtype).tobytes() == expected.tobytes()
        )

    kinds = set()
    for k, level in model.levels.items():
        ref = want[k]
        for field in ("keys", "counts", "top", "gammas"):
            assert same(getattr(level, field), ref[field]), (k, field)
        assert len(level.z_tables) == len(ref["z"])
        for z, zref in zip(level.z_tables, ref["z"]):
            for field in ("denominators", "slices", "dims", "row_ids", "col_ids", "L", "R"):
                assert same(getattr(z, field), zref[field]), (k, field)
            kinds.update(r.kind for r in z.reports)
    if name.startswith("rank4"):
        assert kinds == {"rank1", "iterative"}


@pytest.mark.parametrize("name", ["rank1", "rank4", "rank4-threads3", "order4-two-powers"])
def test_every_slice_report_matches_dense_oracles(toy_corpus, name):
    # final_gkl and both residuals of every slice, closed form and iterative,
    # against gKL and sum deviations over the dense slice and L @ R
    _, vocab, enc = toy_corpus
    cfg = dict(ORACLE_CONFIGS[name.replace("-threads3", "")])
    if name == "rank4-threads3":
        cfg["threads"] = 3
    order = cfg.pop("order")
    model = build_plre(count_ngrams(enc, order), vocab, seed=0, **cfg)
    cfg.pop("threads", None)
    want = dict_plre_levels(enc, order, seed=0, **cfg)
    kinds = set()
    for k, level in model.levels.items():
        for z, zref in zip(level.z_tables, want[k]["z"]):
            assert len(z.reports) == len(zref["matrices"]) == len(z.slices)
            for s, (report, M) in enumerate(zip(z.reports, zref["matrices"])):
                _, _, L, R = z.factors(s)
                tol = 1e-12 * M.sum()
                row, col = dense_residuals(M, L @ R)
                assert abs(report.final_gkl - dense_gkl(M, L @ R)) <= tol, (k, s)
                assert abs(report.max_row_residual - row) <= tol, (k, s)
                assert abs(report.max_col_residual - col) <= tol, (k, s)
                assert report.rank == L.shape[1]
                kinds.add(report.kind)
    assert kinds == ({"rank1"} if name == "rank1" else {"rank1", "iterative"})


@pytest.mark.parametrize("name", list(ORACLE_CONFIGS) + ["rank-vocab"])
def test_no_slice_stores_more_factor_floats_than_nonzeros(toy_corpus, name):
    # rank * (rows + cols) <= nnz, or rank 1 where a slice's sides outnumber
    # its nonzeros; the configured rank, even V, is only an upper bound
    _, vocab, enc = toy_corpus
    if name == "rank-vocab":
        v = len(vocab)
        cfg = dict(order=3, powers={2: (0.5,), 3: (0.5,)}, ranks={2: (v,), 3: (v,)})
    else:
        cfg = dict(ORACLE_CONFIGS[name])
    order = cfg.pop("order")
    model = build_plre(count_ngrams(enc, order), vocab, seed=0, **cfg)
    for level in model.levels.values():
        specs = compute_discounts(level, (1.0,) + level.powers + (0.0,), level.dstar)
        for spec, z in zip(specs[1:], level.z_tables):
            support = spec.powered - spec.discount > 0.0
            nnz = Counter(map(tuple, level.keys[support, 1:-1].tolist()))
            for interior, (rows, cols, rank) in zip(z.slices.tolist(), z.dims.tolist()):
                assert rank * (rows + cols) <= max(nnz[tuple(interior)], rows + cols)


class TestDeriveDstar:
    def test_square_root(self):
        assert derive_dstar(0.25, 1) == 0.5

    def test_identity_root(self):
        assert derive_dstar(0.37, 0) == 0.37

    def test_cube_root(self):
        assert derive_dstar(0.729, 2) == pytest.approx(0.9, abs=1e-12)

    def test_discount_domain_enforced(self):
        with pytest.raises(ValueError):
            derive_dstar(0.0, 1)
        with pytest.raises(ValueError):
            derive_dstar(1.0, 1)
        with pytest.raises(ValueError):
            derive_dstar(0.5, -1)


class TestBuildPlre:
    def test_default_uses_one_sqrt_term_per_order(self, toy_plre3):
        model = toy_plre3
        for k in (2, 3):
            assert model.levels[k].powers == (0.5,)
            assert len(model.levels[k].z_tables) == 1

    def test_fraction_ranks_resolve_by_vocabulary_size(self, toy_corpus, toy_top3):
        _, vocab, _ = toy_corpus
        model = build_plre(
            toy_top3, vocab, ranks={2: (0.5,), 3: (0.005,)}, seed=0
        )
        assert model.resolved_ranks[2] == (math.ceil(0.5 * len(vocab)),)
        assert model.resolved_ranks[3] == (math.ceil(0.005 * len(vocab)),)

    def test_oversized_rank_clamped_with_warning(self, toy_corpus, toy_top3):
        _, vocab, _ = toy_corpus
        model = build_plre(
            toy_top3, vocab, ranks={2: (10 ** 6,), 3: (2,)}, seed=0
        )
        assert model.resolved_ranks[2] == (len(vocab),)
        assert any("clamped" in w for w in model.warnings)

    def test_gt_root_dstar_means_deeper_chains_discount_less(self, toy_plre3):
        # with one intermediate power, d* is the square root of the GT
        # estimate, hence larger than the estimate itself
        for k, d in toy_plre3.dstars.items():
            assert 0.0 < d < 1.0
            assert d * d < d

    def test_fixed_dstar_applies_everywhere(self, toy_corpus, toy_top3):
        _, vocab, _ = toy_corpus
        model = build_plre(toy_top3, vocab, dstar=0.6, seed=0)
        assert model.dstars == {2: 0.6, 3: 0.6}

    def test_non_descending_powers_rejected(self, toy_corpus, toy_top3):
        _, vocab, _ = toy_corpus
        with pytest.raises(ConfigError):
            build_plre(
                toy_top3,
                vocab,
                powers={2: (0.4, 0.6), 3: ()},
                ranks={2: (2, 2), 3: ()},
            )

    def test_boundary_powers_rejected(self, toy_corpus, toy_top3):
        _, vocab, _ = toy_corpus
        with pytest.raises(ConfigError):
            build_plre(toy_top3, vocab, powers={2: (1.0,), 3: ()}, ranks={2: (2,), 3: ()})

    def test_rank_count_must_match_power_count(self, toy_corpus, toy_top3):
        _, vocab, _ = toy_corpus
        with pytest.raises(ConfigError):
            build_plre(toy_top3, vocab, powers={2: (0.5,), 3: (0.5,)}, ranks={2: (), 3: (2,)})

    def test_unigram_input_rejected(self, toy_corpus):
        _, vocab, enc = toy_corpus
        with pytest.raises(ConfigError):
            build_plre(count_ngrams(enc, 1), vocab)

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_each_level_derives_its_chain_once(self, toy_corpus, monkeypatch, order):
        # the level's own chain feeds its factorizations: no second pass
        _, vocab, enc = toy_corpus
        calls = []

        def spy(table, *args):
            calls.append(table.order)
            return compute_discounts(table, *args)

        monkeypatch.setattr(ensemble, "compute_discounts", spy)
        model = build_plre(count_ngrams(enc, order), vocab, seed=0)
        assert calls == list(range(order, 1, -1))
        assert [len(level.z_tables) for level in model.levels.values()] == [
            level.eta for level in model.levels.values()
        ]

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_build_and_load_derive_each_lower_order_once(
        self, toy_corpus, monkeypatch, tmp_path, order
    ):
        # one loop for both, each lower order derived from the table above
        # it, down to order 1, whose words are the order-2 slices' rows
        _, vocab, enc = toy_corpus
        derived = []
        lower = CountTable.lower

        def spy(table, *args):
            derived.append(table.order - 1)
            return lower(table, *args)

        monkeypatch.setattr(CountTable, "lower", spy)
        timings = {}
        model = build_plre(count_ngrams(enc, order), vocab, seed=0, timings=timings)
        assert derived == list(range(order - 1, 0, -1))
        assert timings["adjusted_tables"] > 0.0
        save_model(model, str(tmp_path / "m.plre"))
        load_model(str(tmp_path / "m.plre"))
        assert derived == 2 * list(range(order - 1, 0, -1))

    def test_invalid_fixed_dstar_rejected(self, toy_corpus, toy_top3):
        _, vocab, _ = toy_corpus
        with pytest.raises(ConfigError):
            build_plre(toy_top3, vocab, dstar=1.0)


class TestPlreQueries:
    def test_conditionals_sum_to_one(self, toy_plre3):
        model = toy_plre3
        rng = np.random.default_rng(21)
        contexts = [(), (7,), (99999, 99999)]
        seen = list(model.levels[3].context_totals)
        contexts += [seen[int(i)] for i in rng.integers(0, len(seen), size=12)]
        for ctx in contexts:
            assert float(model.dist(ctx).sum()) == pytest.approx(1.0, abs=1e-8)

    def test_dist_matches_pointwise_prob(self, toy_plre3):
        model = toy_plre3
        ctx = next(iter(model.levels[3].context_totals))
        vec = model.dist(ctx)
        for w in range(0, len(model.vocab), 41):
            assert vec[w] == model.prob(w, ctx)

    def test_probabilities_lie_in_unit_interval(self, toy_plre3):
        model = toy_plre3
        rng = np.random.default_rng(33)
        for _ in range(500):
            w = int(rng.integers(0, len(model.vocab)))
            ctx = tuple(int(x) for x in rng.integers(0, len(model.vocab), size=2))
            assert 0.0 <= model.prob(w, ctx) <= 1.0

    def test_unseen_context_passes_through_bit_exact(self, toy_plre3):
        model = toy_plre3
        seen3 = model.levels[3].context_totals
        seen2 = model.levels[2].context_totals
        ctx = next(
            (a, b)
            for a in range(3, 60)
            for b in range(3, 60)
            if (a, b) not in seen3
        )
        for w in range(3, 40):
            assert model.prob(w, ctx) == model.prob(w, ctx[:1])
        dead = (99999,)
        assert dead not in seen2
        assert model.prob(5, dead) == float(model.base[5])

    def test_terminal_base_is_continuation_unigram(
        self, toy_plre3, toy_plre3_rank1, toy_plre3_eta0
    ):
        # the power-0 rank-1 closed form over the adjusted bigram table is
        # N-(w)/sum N-, which is exactly the base, bit for bit, when unk is
        # attested: nothing is floored, so the bound's floor term is 0
        for model in (toy_plre3, toy_plre3_rank1, toy_plre3_eta0):
            counts = model.base_counts.astype(np.float64)
            assert counts[Vocabulary.unk_id] > 0
            assert model.base.tobytes() == (counts / counts.sum()).tobytes()

    def test_gamma_product_closed_form(self, toy_plre3):
        model = toy_plre3
        assert model.check_gamma_closed_form() <= 1e-12
        rng = np.random.default_rng(2)
        for k in (2, 3):
            level = model.levels[k]
            contexts = list(level.context_totals)
            nplus = {}
            for key in level.keys.tolist():
                nplus[tuple(key[1:])] = nplus.get(tuple(key[1:]), 0) + 1
            for i in rng.integers(0, len(contexts), size=100):
                h = contexts[int(i)]
                want = level.dstar ** (level.eta + 1) * nplus[h] / level.context_totals[h]
                product = 1.0
                for gamma in level.gammas:
                    product *= gamma[int(i)]
                assert product == pytest.approx(want, abs=1e-12)

    def test_local_discount_identity(self, toy_plre3):
        assert toy_plre3.check_local_constraints() <= 1e-12

    def test_discount_bounds(self, toy_plre3, toy_plre3_rank1):
        assert toy_plre3.check_discount_bounds() <= 1e-12
        assert toy_plre3_rank1.check_discount_bounds() <= 1e-12


class TestMarginalConstraint:
    def test_closed_form_rank_one_is_near_exact(self, toy_plre3_rank1):
        for order in (2, 3):
            assert verify_marginal(toy_plre3_rank1, order) < 1e-9

    def test_iterative_rank_bounded_by_residual_budget(self, toy_corpus):
        _, vocab, enc = toy_corpus
        model = build_plre(count_ngrams(enc, 2), vocab, ranks={2: (8,)}, seed=3)
        bound = marginal_error_bound(model)
        assert verify_marginal(model) <= bound + 1e-9

    def test_trigram_default_within_tolerance(self, toy_plre3):
        for order in (2, 3):
            assert verify_marginal(toy_plre3, order) < 1e-6

    def test_eta_zero_is_exact(self, toy_plre3_eta0):
        for order in (2, 3):
            assert verify_marginal(toy_plre3_eta0, order) < 1e-9

    def test_order_out_of_range_rejected(self, toy_plre3):
        with pytest.raises(ValueError):
            verify_marginal(toy_plre3, 4)

    def test_sparse_marginal_matches_dense_oracle(
        self, toy_corpus, toy_top3, toy_plre3_rank1, toy_plre3_eta0
    ):
        # the aggregation over levels, slices and hand-offs adds up to the
        # same marginal as one full distribution per context, word by word,
        # and the segment-summed error bound to the per-slice loop's
        _, vocab, enc = toy_corpus
        nmf = build_plre(toy_top3, vocab, ranks={2: (4,), 3: (4,)}, seed=0)
        two_powers = build_plre(
            count_ngrams(enc, 4),
            vocab,
            powers={k: (0.6, 0.3) for k in (2, 3, 4)},
            ranks={k: (2, 2) for k in (2, 3, 4)},
            seed=0,
        )
        for model in (toy_plre3_rank1, nmf, toy_plre3_eta0, two_powers):
            for order in range(2, model.order + 1):
                sparse = marginal(model, order)
                assert np.max(np.abs(sparse - dense_marginal(model, order))) <= 1e-13
                bound = marginal_error_bound(model, order)
                assert abs(bound - looped_error_bound(model, order)) <= 1e-15

    @pytest.mark.parametrize("ranks", [{2: (1,), 3: (1,)}, {2: (4,), 3: (4,)}])
    def test_floored_base_stays_within_the_bound(self, toy_corpus, ranks):
        # threshold 0 leaves no <unk> in training, so the base floors it;
        # the marginal then moves by the mass reaching the base times the
        # floor's shift, which the bound carries
        sents, _, _ = toy_corpus
        vocab = build_vocabulary(sents, unk_threshold=0)
        top = count_ngrams([vocab.encode(s) for s in sents], 3)
        model = build_plre(top, vocab, ranks=ranks, seed=0)
        assert model.base_counts[Vocabulary.unk_id] == 0
        for order in (2, 3):
            deviation = verify_marginal(model, order)
            bound = marginal_error_bound(model, order)
            assert 1e-9 < deviation <= bound + 1e-15
            assert abs(bound - looped_error_bound(model, order)) <= 1e-15

    def test_every_observed_context_normalizes(self, toy_plre3, toy_plre3_eta0):
        for model in (toy_plre3, toy_plre3_eta0):
            assert normalization_observed(model) <= 1e-12


class TestKnReduction:
    def test_eta_zero_matches_interpolated_kn(self, toy_corpus, toy_plre3_eta0):
        # with no intermediate terms, d* is the plain GT discount and the
        # stack collapses to interpolated KN over the same adjusted tables
        _, vocab, enc = toy_corpus
        model = toy_plre3_eta0
        kn = NgramLM(
            vocab,
            3,
            "kn",
            adjusted_tables(count_ngrams(enc, 3)),
            {k: DiscountParams.single(model.dstars[k]) for k in (2, 3)},
        )
        rng = np.random.default_rng(13)
        worst = 0.0
        for _ in range(2000):
            w = int(rng.integers(0, len(vocab)))
            ctx = tuple(
                int(x) for x in rng.integers(0, len(vocab), size=rng.integers(0, 3))
            )
            worst = max(worst, abs(model.prob(w, ctx) - kn.prob(w, ctx)))
        assert worst < 1e-10


class TestQueryCost:
    def test_counter_matches_declared_cost(self, toy_plre3):
        model = toy_plre3
        rng = np.random.default_rng(55)
        seen = list(model.levels[3].context_totals)
        total = 0
        for _ in range(300):
            if rng.random() < 0.5:
                ctx = seen[int(rng.integers(0, len(seen)))]
            else:
                ctx = tuple(int(x) for x in rng.integers(0, len(model.vocab), size=2))
            w = int(rng.integers(0, len(model.vocab)))
            counter = OpCounter()
            model.prob(w, ctx, counter)
            assert counter.muladds == model.query_cost(w, ctx)
            total += counter.muladds
        assert total > 0

    def test_each_lookup_costs_its_slice_rank(self, toy_plre3):
        model = toy_plre3
        level = model.levels[2]
        z = ZReader(level.z_tables[0], list(level.context_totals))
        hit = 0
        for h in level.context_totals:
            sl = z.slices.get(h[:-1])
            if sl is None:
                continue
            for w in sl[0]:
                if h[-1] not in sl[1]:
                    continue
                counter = OpCounter()
                model.prob(w, h, counter)
                assert counter.muladds == sl[2].shape[1] == model.query_cost(w, h)
                hit += 1
                break
            if hit >= 20:
                break
        assert hit > 0


class TestDeterminism:
    def test_same_seed_same_model(self, toy_corpus, toy_top3):
        _, vocab, _ = toy_corpus
        m1 = build_plre(toy_top3, vocab, ranks={2: (4,), 3: (4,)}, seed=7)
        m2 = build_plre(toy_top3, vocab, ranks={2: (4,), 3: (4,)}, seed=7)
        for k in (2, 3):
            z1, z2 = m1.levels[k].z_tables[0], m2.levels[k].z_tables[0]
            for name in ("slices", "dims", "row_ids", "col_ids", "L", "R"):
                assert np.array_equal(getattr(z1, name), getattr(z2, name))

    def test_thread_count_does_not_change_results(self, toy_corpus, toy_top3, tmp_path):
        _, vocab, _ = toy_corpus
        m1 = build_plre(toy_top3, vocab, ranks={2: (3,), 3: (3,)}, seed=5, threads=1)
        m2 = build_plre(toy_top3, vocab, ranks={2: (3,), 3: (3,)}, seed=5, threads=4)
        paths = [tmp_path / "t1.plre", tmp_path / "t4.plre"]
        for model, path in zip((m1, m2), paths):
            save_model(model, str(path))
        assert paths[0].read_bytes() == paths[1].read_bytes()
        rng = np.random.default_rng(1)
        for _ in range(400):
            w = int(rng.integers(0, len(vocab)))
            ctx = tuple(int(x) for x in rng.integers(0, len(vocab), size=2))
            assert m1.prob(w, ctx) == m2.prob(w, ctx)
