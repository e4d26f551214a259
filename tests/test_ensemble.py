"""Powered counts, discount chains, low-rank tables, and the ensemble."""

import math

import numpy as np
import pytest

from plre.baselines import DiscountParams, NgramLM
from plre.corpus import CountTable, Vocabulary, adjusted_tables, count_ngrams
from plre.ensemble import (
    OpCounter,
    build_plre,
    compute_discounts,
    compute_z,
    derive_dstar,
    marginal_error_bound,
    power_counts,
    verify_marginal,
)
from plre.errors import ConfigError

from conftest import ZReader


def _bigram_table(mat):
    """CountTable from a dense matrix: rows = predicted, cols = context."""
    entries = {}
    for i, row in enumerate(mat):
        for j, v in enumerate(row):
            if v:
                entries[(i, j)] = v
    return CountTable(2, entries)


B_COUNTS = [[1, 2, 1], [0, 5, 0], [2, 0, 0]]


class TestPoweredCounts:
    def test_square_root_row_sums(self):
        pc = power_counts(_bigram_table(B_COUNTS), 0.5)
        row_sums = [0.0, 0.0, 0.0]
        for (w, _), v in pc.entries.items():
            row_sums[w] += v
        assert row_sums[0] == pytest.approx(3.414213562373095, abs=1e-12)
        assert row_sums[1] == pytest.approx(2.23606797749979, abs=1e-12)
        assert row_sums[2] == pytest.approx(1.4142135623730951, abs=1e-12)

    def test_power_one_is_identity(self):
        table = _bigram_table(B_COUNTS)
        pc = power_counts(table, 1.0)
        assert pc.entries == {k: float(v) for k, v in table.entries.items()}

    def test_power_zero_is_binary_support(self):
        pc = power_counts(_bigram_table(B_COUNTS), 0.0)
        assert set(pc.entries.values()) == {1.0}
        row_sums = [0.0, 0.0, 0.0]
        for (w, _), v in pc.entries.items():
            row_sums[w] += v
        assert row_sums == [3.0, 1.0, 1.0]

    def test_zeros_stay_absent(self):
        table = _bigram_table(B_COUNTS)
        for rho in (0.0, 0.3, 1.0):
            assert set(power_counts(table, rho).entries) == set(table.entries)

    def test_context_sums_are_powered_column_sums(self):
        pc = power_counts(_bigram_table(B_COUNTS), 0.5)
        assert pc.context_sums[(0,)] == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-12)

    def test_power_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            power_counts(_bigram_table(B_COUNTS), 1.5)


class TestComputeDiscounts:
    def test_hand_worked_context(self):
        # counts [4, 1] under one context, rho 1 -> 0.5, d* 0.5:
        # discounts [1.0, 0.5], gamma = 0.5*(2+1)/5 = 0.3, and the
        # discounted conditionals 0.6 + 0.1 close to 1 with gamma
        table = CountTable(2, {(5, 3): 4, (6, 3): 1})
        spec = compute_discounts(power_counts(table, 1.0), 0.5, 0.5)
        assert spec.discount(4) == pytest.approx(1.0, abs=1e-15)
        assert spec.discount(1) == pytest.approx(0.5, abs=1e-15)
        assert spec.gamma[(3,)] == pytest.approx(0.3, abs=1e-15)
        total = table.context_totals[(3,)]
        conds = [(4 - spec.discount(4)) / total, (1 - spec.discount(1)) / total]
        assert conds == [pytest.approx(0.6), pytest.approx(0.1)]
        assert sum(conds) + spec.gamma[(3,)] == pytest.approx(1.0, abs=1e-15)

    def test_zero_dstar_moves_nothing(self, toy_top3):
        spec = compute_discounts(power_counts(toy_top3, 1.0), 0.5, 0.0)
        assert spec.discount(17) == 0.0
        assert all(g == 0.0 for g in spec.gamma.values())

    def test_equal_powers_scale_proportionally(self, toy_top3):
        # rho_j = rho_{j+1} degenerates to Jelinek-Mercer style scaling
        pc = power_counts(toy_top3, 0.5)
        spec = compute_discounts(pc, 0.5, 0.3)
        for g in spec.gamma.values():
            assert g == pytest.approx(0.3, abs=1e-12)
        for key, v in list(pc.entries.items())[:20]:
            c = toy_top3.entries[key]
            assert v - spec.discount(c) == pytest.approx(0.7 * v, abs=1e-12)

    def test_ascending_powers_rejected(self, toy_top3):
        with pytest.raises(ValueError):
            compute_discounts(power_counts(toy_top3, 0.5), 0.9, 0.5)

    def test_dstar_out_of_range_rejected(self, toy_top3):
        with pytest.raises(ValueError):
            compute_discounts(power_counts(toy_top3, 1.0), 0.5, 1.1)


class TestComputeZ:
    def test_full_rank_reproduces_discounted_conditionals(self, toy_corpus):
        _, vocab, enc = toy_corpus
        table = count_ngrams(enc, 2)
        pc = power_counts(table, 0.5)
        spec = compute_discounts(pc, 0.0, 0.4, level=1)
        z = ZReader(compute_z(pc, spec, rank=len(vocab)), sorted(pc.context_sums))
        for key, v in list(pc.entries.items())[:200]:
            want = (v - spec.discount(table.entries[key])) / pc.context_sums[key[1:]]
            assert z.cond(key[0], key[1:]) == pytest.approx(want, abs=1e-8)

    def test_power_zero_rank_one_gives_continuation_unigram(self, toy_corpus):
        # binary support at rank 1 collapses to N-(w)/total for every
        # observed context, which is exactly the continuation base
        _, vocab, enc = toy_corpus
        table = adjusted_tables(count_ngrams(enc, 2))[2]
        pc = power_counts(table, 0.0)
        spec = compute_discounts(pc, 0.0, 0.0, level=1)
        z = ZReader(compute_z(pc, spec, rank=1), sorted(pc.context_sums))
        n_minus = {}
        for (w, _) in table.entries:
            n_minus[w] = n_minus.get(w, 0) + 1
        n_entries = len(table.entries)
        contexts = list(pc.context_sums)[:25]
        for w, nm in list(n_minus.items())[:25]:
            for h in contexts:
                assert z.cond(w, h) == pytest.approx(nm / n_entries, abs=1e-12)

    def test_power_one_rank_one_gives_unigram_mle(self, toy_corpus):
        _, vocab, enc = toy_corpus
        table = count_ngrams(enc, 2)
        pc = power_counts(table, 1.0)
        spec = compute_discounts(pc, 1.0, 0.0, level=1)
        z = ZReader(compute_z(pc, spec, rank=1), sorted(pc.context_sums))
        row = {}
        for (w, _), c in table.entries.items():
            row[w] = row.get(w, 0) + c
        for w, c in list(row.items())[:25]:
            for h in list(pc.context_sums)[:25]:
                assert z.cond(w, h) == pytest.approx(c / table.total, abs=1e-12)

    def test_fully_discounted_slice_is_skipped(self):
        # with d* = 1 and target power 0, singleton entries vanish; a
        # context made only of singletons then contributes nothing here
        table = CountTable(2, {(5, 3): 1, (6, 3): 1, (5, 4): 3})
        pc = power_counts(table, 1.0)
        spec = compute_discounts(pc, 0.0, 1.0, level=1)
        z = ZReader(compute_z(pc, spec, rank=2), sorted(pc.context_sums))
        assert z.cond(5, (3,)) == 0.0
        assert z.cond(5, (4,)) > 0.0

    def test_unknown_word_or_context_is_zero(self, toy_corpus):
        _, vocab, enc = toy_corpus
        table = count_ngrams(enc, 2)
        pc = power_counts(table, 0.5)
        z = compute_z(pc, compute_discounts(pc, 0.0, 0.5, level=1), rank=2)
        assert ZReader(z, sorted(pc.context_sums)).cond(3, (99999,)) == 0.0

    def test_invalid_rank_rejected(self, toy_top3):
        pc = power_counts(toy_top3, 0.5)
        with pytest.raises(ConfigError):
            compute_z(pc, compute_discounts(pc, 0.0, 0.5), rank=0)


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
            assert vec[w] == pytest.approx(model.prob(w, ctx), abs=1e-12)

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

    def test_terminal_base_is_continuation_unigram(self, toy_plre3):
        # the power-0 rank-1 closed form over the adjusted bigram table is
        # N-(w)/sum N-, which is exactly the stored base when unk is attested
        model = toy_plre3
        counts = model.base_counts.astype(np.float64)
        assert counts[Vocabulary.unk_id] > 0
        assert np.array_equal(model.base, counts / counts.sum())

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

    def test_thread_count_does_not_change_results(self, toy_corpus, toy_top3):
        _, vocab, _ = toy_corpus
        m1 = build_plre(toy_top3, vocab, ranks={2: (3,), 3: (3,)}, seed=5, threads=1)
        m2 = build_plre(toy_top3, vocab, ranks={2: (3,), 3: (3,)}, seed=5, threads=4)
        rng = np.random.default_rng(1)
        for _ in range(400):
            w = int(rng.integers(0, len(vocab)))
            ctx = tuple(int(x) for x in rng.integers(0, len(vocab), size=2))
            assert m1.prob(w, ctx) == m2.prob(w, ctx)
