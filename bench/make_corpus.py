"""Write one workload's training and held-out corpora (the benchmark's set-up).

    python3 bench/make_corpus.py --train-tokens N --heldout-tokens M --seed S \
        --src SRC_DIR --out DIR

Every workload draws from one pool: POOL_SENTENCES sentences from
``plre.synthetic.synthesize_corpus`` with the generator arguments below,
which fix the topic model.  ``--seed`` shuffles the pool; training text is
taken from the front of the shuffle until it holds N tokens, held-out text
from the rest until it holds M.  So seeds vary the sample and not the
distribution it comes from, and every seed gets the same amount of text.
``run.py`` runs this in a child process, so the generator's memory does not
count toward the workload's peak RSS.
"""

from __future__ import annotations

import argparse
import os
import sys

POOL_SENTENCES = 8000
GENERATOR = dict(vocab_size=20000, n_topics=24, seed=101, zipf_exponent=1.2)


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--train-tokens", type=int, required=True)
    p.add_argument("--heldout-tokens", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--src", required=True, help="the program's source directory")
    p.add_argument("--out", required=True)
    args = p.parse_args()
    sys.path.insert(0, args.src)
    import numpy as np
    from plre.synthetic import synthesize_corpus

    pool = synthesize_corpus(POOL_SENTENCES, **GENERATOR)
    order = iter(np.random.default_rng(args.seed).permutation(len(pool)))
    for name, budget in (("train.txt", args.train_tokens), ("heldout.txt", args.heldout_tokens)):
        lines, tokens = [], 0
        while tokens < budget:
            sentence = pool[next(order)]
            lines.append(" ".join(sentence) + "\n")
            tokens += len(sentence)
        with open(os.path.join(args.out, name), "w", encoding="utf-8") as fh:
            fh.write("".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
