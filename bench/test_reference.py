"""Tests of the benchmark's reference smoothers against plre on a toy corpus.

    PYTHONPATH=src python3 -m pytest -q bench/test_reference.py
"""

import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

from plre.baselines import NgramLM  # noqa: E402
from plre.corpus import build_vocabulary, count_ngrams  # noqa: E402
from plre.ensemble import build_plre  # noqa: E402
from reference import BOS, EOS, Counts, KneserNey, RankOnePlre, worst_relative_error  # noqa: E402

TOY = """\
the river ran past the old mill
the old mill stood by the river
a boat drifted down the river
the boat passed the old mill
a heron watched the boat
the heron stood by the water
a boat stood by the mill
the water ran past the mill
a heron drifted over the water
the old boat ran aground
every heron watched the river
the mill wheel turned slowly
a child watched the mill wheel
the child ran past the heron
""".splitlines()


def program_prob(model, vocab):
    w2i = vocab.word_to_id

    def prob(*q):
        return model.prob(w2i[q[-1]], tuple(w2i[t] for t in reversed(q[:-1])))

    return prob


def queries(counts: Counts, n_contexts: int = 12):
    """Every toy n-gram, plus every word after a few seen and unseen contexts."""
    n = counts.order
    out = []
    for line in TOY:
        padded = [BOS] * (n - 1) + [counts.map(t) for t in line.split()] + [EOS]
        out += [tuple(padded[i - n + 1 : i + 1]) for i in range(n - 1, len(padded))]
    contexts = sorted({q[:-1] for q in out})[:n_contexts]
    contexts.append(("heron",) * (n - 1))  # never observed at the top order
    words = sorted(counts.words - {BOS})
    out += [h + (w,) for h in contexts for w in words]
    return out


def program_models(order, powers):
    sentences = [line.split() for line in TOY]
    vocab = build_vocabulary(sentences, unk_threshold=1)
    top = count_ngrams([vocab.encode(s) for s in sentences], order)
    kn = NgramLM.build(vocab, {order: top}, "kn")
    mkn = NgramLM.build(vocab, {order: top}, "mkn")
    ranks = {k: tuple(1 for _ in chain) for k, chain in powers.items()}
    plre = build_plre(top, vocab, powers=powers, ranks=ranks, seed=0)
    return vocab, {"kn": kn, "mkn": mkn, "plre": plre}


CHAINS = {
    3: {2: (0.5,), 3: (0.5,)},
    4: {2: (0.6, 0.3), 3: (0.6, 0.3), 4: ()},
}


@pytest.mark.parametrize("order", [3, 4])
def test_references_agree_with_program(order):
    vocab, models = program_models(order, CHAINS[order])
    counts = Counts(TOY, order)
    refs = {
        "kn": KneserNey(counts, modified=False),
        "mkn": KneserNey(counts, modified=True),
        "plre": RankOnePlre(counts, CHAINS[order]),
    }
    qs = queries(counts)
    for key, ref in refs.items():
        err = worst_relative_error(
            qs, program_prob(models[key], vocab), lambda *q: ref.prob(q[-1], q[:-1])
        )
        assert err <= 1e-12, key


@pytest.mark.parametrize("order", [3, 4])
def test_references_normalize(order):
    counts = Counts(TOY, order)
    words = sorted(counts.words)
    for ref in (
        KneserNey(counts, modified=False),
        KneserNey(counts, modified=True),
        RankOnePlre(counts, CHAINS[order]),
    ):
        for h in sorted({q[:-1] for q in queries(counts)}):
            assert math.fsum(ref.prob(w, h) for w in words) == pytest.approx(1.0, abs=1e-12)


def test_tampered_probability_fails_the_check():
    vocab, models = program_models(3, CHAINS[3])
    counts = Counts(TOY, 3)
    ref = RankOnePlre(counts, CHAINS[3])
    qs = queries(counts)
    honest = program_prob(models["plre"], vocab)

    def reference(*q):
        return ref.prob(q[-1], q[:-1])

    assert worst_relative_error(qs, honest, reference) <= 1e-12
    target = qs[len(qs) // 2]

    def nudged(*q):
        p = honest(*q)
        return p * (1.0 + 1e-9) if q == target else p

    def poisoned(*q):
        return math.nan if q == target else honest(*q)

    assert worst_relative_error(qs, nudged, reference) > 1e-10
    assert worst_relative_error(qs, poisoned, reference) == math.inf
