"""Acceptance checks: the toolkit's central guarantees, one test per claim.

Each test is self-contained, seeds all randomness, and asserts its own
runtime budget where speed is part of the claim.  The final comparison
test builds a ~1M-token synthetic corpus and takes several minutes; the
rest of the file finishes in well under a minute.
"""

import time

import numpy as np
import pytest

from plre.baselines import DiscountParams, NgramLM
from plre.container import load_model, save_model
from plre.corpus import (
    adjusted_tables,
    build_vocabulary,
    count_all_orders,
    count_ngrams,
)
from plre.ensemble import (
    OpCounter,
    build_plre,
    compute_discounts,
    compute_z,
    marginal_error_bound,
    power_counts,
    verify_marginal,
)
from plre.evaluation import perplexity
from plre.factorization import (
    FactorPair,
    SparseMatrix,
    best_rank1,
    gkl,
    nmf_gkl,
    sum_residual,
)
from plre.synthetic import synthesize_corpus

from conftest import ZReader


def _toy(seed):
    """A small corpus (<5k tokens, <200 word types) with attested unks."""
    sents = synthesize_corpus(105, vocab_size=225, n_topics=6, seed=seed)
    assert sum(len(s) + 1 for s in sents) <= 5000
    vocab = build_vocabulary(sents, 1)
    assert len(vocab) <= 200
    enc = [vocab.encode(s) for s in sents]
    return vocab, enc


def test_marginal_constraint_holds_on_three_toy_corpora():
    # Rank-1 members preserve bigram/trigram marginals to fp precision;
    # truncated NMF members stay within the bound the builder reports.
    start = time.perf_counter()
    for seed in (3, 6, 7):
        vocab, enc = _toy(seed)
        top3 = count_ngrams(enc, 3)
        exact = build_plre(top3, vocab, ranks={2: (1,), 3: (1,)}, seed=seed)
        assert exact.check_local_constraints() <= 1e-12
        for order in (2, 3):
            assert verify_marginal(exact, order) < 1e-9
        for kappa in (4, 8):
            model = build_plre(
                top3, vocab, ranks={2: (kappa,), 3: (kappa,)},
                nmf_max_iters=600, nmf_rel_tol=1e-9, seed=seed,
            )
            assert model.check_local_constraints() <= 1e-12
            assert model.check_discount_bounds() <= 1e-12
            for order in (2, 3):
                viol = verify_marginal(model, order)
                assert viol < 1e-5
                assert viol <= marginal_error_bound(model, order) + 1e-9
    assert time.perf_counter() - start < 30.0


def test_zero_eta_ensemble_collapses_to_interpolated_kneser_ney(
    toy_corpus, toy_plre3_eta0
):
    # with no intermediate powers the stack is interpolated KN with the
    # same Good-Turing-derived discounts, query for query
    start = time.perf_counter()
    _, vocab, enc = toy_corpus
    model = toy_plre3_eta0
    kn = NgramLM(
        vocab,
        3,
        "kn",
        adjusted_tables(count_ngrams(enc, 3)),
        {k: DiscountParams.single(model.dstars[k]) for k in (2, 3)},
    )
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(10_000):
        w = int(rng.integers(0, len(vocab)))
        ctx = tuple(
            int(x) for x in rng.integers(0, len(vocab), size=rng.integers(0, 3))
        )
        worst = max(worst, abs(model.prob(w, ctx) - kn.prob(w, ctx)))
    assert worst < 1e-10
    assert time.perf_counter() - start < 10.0


def test_rank_one_members_reproduce_unigram_and_continuation_bases(toy_corpus):
    # undiscounted rank-1 z at power 1 is the unigram MLE; at power 0 it
    # is the continuation unigram.  Checked for every word in the
    # vocabulary; 1e-15 covers the differing division order only.
    _, vocab, enc = toy_corpus
    raw = count_ngrams(enc, 2)
    pc1 = power_counts(raw, 1.0)
    z1 = compute_z(pc1, compute_discounts(pc1, 1.0, 0.0, level=1), rank=1)
    z1 = ZReader(z1, sorted(pc1.context_sums))
    row = {}
    for (w, _), c in raw.entries.items():
        row[w] = row.get(w, 0) + c
    adj = adjusted_tables(raw)[2]
    pc0 = power_counts(adj, 0.0)
    z0 = compute_z(pc0, compute_discounts(pc0, 0.0, 0.0, level=1), rank=1)
    z0 = ZReader(z0, sorted(pc0.context_sums))
    n_minus = {}
    for (w, _) in adj.entries:
        n_minus[w] = n_minus.get(w, 0) + 1

    contexts1 = list(pc1.context_sums)[:20]
    contexts0 = list(pc0.context_sums)[:20]
    worst = 0.0
    for w in range(len(vocab)):
        mle = row.get(w, 0) / raw.total
        cont = n_minus.get(w, 0) / len(adj.entries)
        for h in contexts1:
            worst = max(worst, abs(z1.cond(w, h) - mle))
        for h in contexts0:
            worst = max(worst, abs(z0.cond(w, h) - cont))
    assert worst < 1e-15


def test_local_discount_identities_hold_on_every_built_model(
    toy_corpus, toy_top3, toy_plre3, toy_plre3_rank1, toy_plre3_eta0
):
    _, vocab, _ = toy_corpus
    family = [
        toy_plre3,
        toy_plre3_rank1,
        toy_plre3_eta0,
        build_plre(
            toy_top3, vocab,
            powers={2: (0.6, 0.3), 3: (0.6, 0.3)},
            ranks={2: (2, 2), 3: (2, 2)},
            seed=5,
        ),
        build_plre(toy_top3, vocab, dstar=0.6, seed=5),
    ]
    for model in family:
        assert model.check_local_constraints() <= 1e-12
        assert model.check_discount_bounds() <= 1e-12


def test_factorizer_descends_and_preserves_sums_on_random_matrices():
    # 20 random sparse 30x30 matrices: objective never increases, column
    # sums are exact by construction, row sums land well inside 1e-5
    # relative, and the closed-form rank-1 start is never beaten by any
    # of 1000 random mass-matched rank-1 candidates.
    rng = np.random.default_rng(2024)
    for trial in range(20):
        dense = rng.random((30, 30)) * 8.0
        dense[rng.random((30, 30)) >= 0.35] = 0.0
        for i in range(30):
            if dense[i].sum() == 0.0:
                dense[i, rng.integers(30)] = 8.0 * rng.random() + 0.1
        for j in range(30):
            if dense[:, j].sum() == 0.0:
                dense[rng.integers(30), j] = 8.0 * rng.random() + 0.1
        m = SparseMatrix.from_dense(dense)
        total = m.total()

        pair, report = nmf_gkl(m, 4, max_iters=2000, rel_tol=1e-9, seed=trial)
        hist = report.objective_history
        for prev, cur in zip(hist, hist[1:]):
            assert cur <= prev + 1e-9 * max(1.0, abs(prev))
        row_dev, col_dev = sum_residual(m, pair)
        assert col_dev <= 1e-12 * total
        assert row_dev < 1e-5 * total

        best = gkl(m, best_rank1(m))
        for _ in range(1000):
            left = rng.random((30, 1)) + 1e-3
            right = rng.random((1, 30)) + 1e-3
            left *= total / (left.sum() * right.sum())
            assert best <= gkl(m, FactorPair(left, right)) + 1e-9


def test_every_smoother_normalizes_over_observed_and_unseen_contexts():
    vocab, enc = _toy(3)
    checked = 0
    for order in (2, 3, 4):
        all_orders = count_all_orders(enc, order)
        top = all_orders[order]
        models = [
            NgramLM.build(vocab, dict(all_orders), name) for name in ("mle", "abs")
        ]
        models += [NgramLM.build(vocab, {order: top}, name) for name in ("kn", "mkn")]
        models.append(build_plre(top, vocab, seed=0))
        assert models[-1].check_local_constraints() <= 1e-12
        assert models[-1].check_discount_bounds() <= 1e-12
        for model in models:
            observed = set()
            for k in range(2, order + 1):
                observed.update(model.levels[k].context_totals)
            contexts = [()] + sorted(observed)
            rng = np.random.default_rng(1000 * order + checked)
            added = 0
            while added < 100:
                ctx = tuple(
                    int(x)
                    for x in rng.integers(0, len(vocab), size=order - 1)
                )
                if ctx in observed:
                    continue
                contexts.append(ctx)
                added += 1
            for ctx in contexts:
                assert abs(float(model.dist(ctx).sum()) - 1.0) <= 1e-8
                checked += 1
    assert checked > 15_000


@pytest.mark.slow
def test_ensemble_beats_both_kneser_ney_baselines_on_large_corpus():
    # ~1M training tokens, full vocabulary at threshold 1, trigram
    # models: the powered low-rank ensemble must land strictly below
    # both interpolated KN and modified KN on held-out perplexity.
    # No sizable natural-language corpus ships with this environment, so
    # a seeded generator with Zipfian vocabulary and latent topic
    # structure stands in for real text; see synthesize_corpus.
    start = time.perf_counter()
    train = synthesize_corpus(
        64_000, vocab_size=20_000, n_topics=24, seed=101, zipf_exponent=1.2
    )
    held_out = synthesize_corpus(
        4_000, vocab_size=20_000, n_topics=24, seed=103, zipf_exponent=1.2
    )
    assert sum(len(s) for s in train) > 900_000
    vocab = build_vocabulary(train, 1)
    enc = [vocab.encode(s) for s in train]
    top3 = count_ngrams(enc, 3)
    del train, enc

    kn_ppl = perplexity(NgramLM.build(vocab, {3: top3}, "kn"), held_out).perplexity
    mkn_ppl = perplexity(NgramLM.build(vocab, {3: top3}, "mkn"), held_out).perplexity
    plre = build_plre(top3, vocab, seed=0)
    plre_ppl = perplexity(plre, held_out).perplexity

    assert plre_ppl < kn_ppl
    assert plre_ppl < mkn_ppl
    assert time.perf_counter() - start < 900.0


def test_reported_query_cost_equals_sum_of_active_slice_ranks(toy_plre3):
    model = toy_plre3
    rng = np.random.default_rng(71)
    seen = sorted(model.levels[3].context_totals)
    readers = {
        k: [ZReader(z, list(level.context_totals)) for z in level.z_tables]
        for k, level in model.levels.items()
    }
    total = 0
    multi_level_hits = 0
    for i in range(1_000):
        if i % 3 == 0:
            ctx = seen[int(rng.integers(0, len(seen)))]
        else:
            size = int(rng.integers(0, 3))
            ctx = tuple(int(x) for x in rng.integers(0, len(model.vocab), size=size))
        w = int(rng.integers(0, len(model.vocab)))

        # recompute the expected spend from the stored slice arrays
        expected = 0
        levels_hit = 0
        for k in range(len(ctx) + 1, 1, -1):
            h = ctx[: k - 1]
            if not model.levels[k].context_totals.get(h):
                continue
            for z in readers[k]:
                rank = z.rank(w, h)
                if rank:
                    expected += rank
                    levels_hit += 1

        counter = OpCounter()
        model.prob(w, ctx, counter)
        assert counter.muladds == expected == model.query_cost(w, ctx)
        total += counter.muladds
        if levels_hit >= 2:
            multi_level_hits += 1
    assert total > 0
    assert multi_level_hits > 0


def test_fixed_seed_build_and_container_round_trip_are_bit_exact(
    toy_corpus, toy_top3, tmp_path
):
    _, vocab, _ = toy_corpus
    first = build_plre(toy_top3, vocab, seed=21)
    second = build_plre(toy_top3, vocab, seed=21)
    assert first.check_local_constraints() <= 1e-12
    assert first.check_discount_bounds() <= 1e-12
    path_a = tmp_path / "a.plre"
    path_b = tmp_path / "b.plre"
    save_model(first, str(path_a))
    save_model(second, str(path_b))
    assert path_a.read_bytes() == path_b.read_bytes()

    loaded = load_model(str(path_a))
    rng = np.random.default_rng(99)
    for _ in range(1_000):
        w = int(rng.integers(0, len(vocab)))
        size = int(rng.integers(0, 3))
        ctx = tuple(int(x) for x in rng.integers(0, len(vocab), size=size))
        assert loaded.prob(w, ctx) == first.prob(w, ctx)
