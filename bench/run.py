"""plre benchmark: train, save, load, score and verify on seeded synthetic corpora.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up writes the workload's training and held-out corpora from ``--seed``
(``make_corpus.py``, run five times in a child process; ``setup_s`` is the
median).  The measured part is a sequential closed loop of passes, each
operation starting when the previous one ends:

    train       read -> vocabulary -> count -> build_plre -> save_model
    load        load_model of that container
    score_plre  perplexity of the loaded model on the held-out text
    build_kn    NgramLM.build(kn) from the same counts (untimed in metrics)
    score_kn    perplexity of it
    build_mkn   NgramLM.build(mkn)
    score_mkn   perplexity of it
    verify      ``plre verify --json`` on the container, in process

Passes repeat until the next one would end after ``--seconds``; at least one
always runs.  End-to-end metrics are medians over passes.  Every time is
taken with ``clock.ScaledClock`` and given in reference seconds: scaled by
the speed the shared machine had while the operation ran, measured by a
fixed loop around and during it.  With ``--trace 1``
each round is an untraced pass followed by a traced one; the traced passes
give the per-layer metrics (see spans.py) and the difference between the two
is the tracing overhead.

Outputs are checked: every pass's container hashes the same, and so does
every run's for one workload and seed; the loaded model answers sampled
queries bit-identically to the model just built; token and OOV counts equal
the benchmark's own; ``plre verify`` passes; kn and mkn (and plre, where
every term is rank 1) agree with the independent references in
reference.py; and elsewhere sampled conditionals, summed over the
vocabulary through the per-word query path, are 1.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The program runs single-threaded
(``threads=1``, one BLAS thread).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import struct
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

LEVELS = (2, 3, 4)
SECTION_KINDS = ("vocab", "counts", "top", "gamma", "z", "zden", "base_counts")
OPS = (
    "train",
    "load",
    "score_plre",
    "build_kn",
    "score_kn",
    "build_mkn",
    "score_mkn",
    "verify",
)
SETUP_REPEATS = 5
UNK_THRESHOLD = 1
CHECK_QUERIES = 2000


@dataclass(frozen=True)
class Workload:
    order: int
    train_tokens: int
    heldout_tokens: int
    powers: Dict[int, Tuple[float, ...]]
    ranks: Dict[int, Tuple[int, ...]]


# Sizes are set so that one pass takes a few seconds on one core and a run
# of 50 seconds gets a dozen passes to take medians over.  The trigram
# workload uses the package's default power 0.5 with the rank it would give
# it, ceil(0.005 V), fixed at the median V over seeds: left as a fraction,
# the rank would flip between neighbouring integers from seed to seed.
WORKLOADS = {
    # Small model (V ~ 610), held-out stream 15x its training text: scoring
    # and verify are most of a pass, and iterative NMF most of the build.
    "tri-small-score": Workload(
        order=3,
        train_tokens=6_200,
        heldout_tokens=93_000,
        powers={2: (0.5,), 3: (0.5,)},
        ranks={2: (4,), 3: (4,)},
    ),
    # Order 4, rank 1 at powers 0.6 and 0.3 on orders 2-3: ~1,500
    # closed-form slices, no iterative NMF, and a deeper query walk.
    "quad-chain-rank1": Workload(
        order=4,
        train_tokens=7_750,
        heldout_tokens=46_500,
        powers={2: (0.6, 0.3), 3: (0.6, 0.3), 4: ()},
        ranks={2: (1, 1), 3: (1, 1), 4: ()},
    ),
}


def import_program():
    """Import plre from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "plre" / "__init__.py").is_file():
        raise SystemExit(f"error: program source not found under {SRC}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import plre

    if Path(plre.__file__).resolve().parent != (SRC / "plre").resolve():
        raise SystemExit(f"error: imported plre from {plre.__file__}, not {SRC}")
    from plre import baselines, cli, container, corpus, ensemble, evaluation, factorization

    return {
        "baselines": baselines,
        "cli": cli,
        "container": container,
        "corpus": corpus,
        "ensemble": ensemble,
        "evaluation": evaluation,
        "factorization": factorization,
    }


def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(w: Workload, seed: int, work: Path, clock) -> Tuple[float, List[str]]:
    """Write the corpora SETUP_REPEATS times; (median reference seconds,
    problems).  The machine is sampled only before and after each write,
    since the work runs in a child process."""
    problems = []
    times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        _, scaled = clock.time(
            lambda: subprocess.run(
                [
                    sys.executable,
                    str(BENCH / "make_corpus.py"),
                    "--train-tokens",
                    str(w.train_tokens),
                    "--heldout-tokens",
                    str(w.heldout_tokens),
                    "--seed",
                    str(seed),
                    "--out",
                    str(work),
                    "--src",
                    str(SRC),
                ],
                check=True,
                timeout=120,
            ),
            during=False,
        )
        times.append(scaled)
        digests.add((file_sha256(work / "train.txt"), file_sha256(work / "heldout.txt")))
    if len(digests) != 1:
        problems.append("set-up wrote different corpora for the same seed")
    return statistics.median(times), problems


def container_section_bytes(path: Path) -> Dict[str, int]:
    """Payload bytes per section kind, read from the documented layout:
    magic, u32 version, u64 header length, JSON header, then one
    u64-length-prefixed payload per name in header["sections"]."""
    out = {kind: 0 for kind in SECTION_KINDS}
    with open(path, "rb") as fh:
        if fh.read(4) != b"PLRE":
            raise ValueError(f"{path}: bad magic")
        fh.read(4)
        (hlen,) = struct.unpack("<Q", fh.read(8))
        header = json.loads(fh.read(hlen))
        for name in header["sections"]:
            (plen,) = struct.unpack("<Q", fh.read(8))
            fh.seek(plen, os.SEEK_CUR)
            kind = name.split(".", 1)[0]
            if kind in out:
                out[kind] += plen
    return out


class Run:
    """One benchmark run: the workload's inputs, passes and checks."""

    def __init__(self, name: str, seed: int, prog: dict, clock):
        self.name = name
        self.clock = clock
        self.w = WORKLOADS[name]
        self.seed = seed
        self.p = prog
        self.work = OUT / name / "work"
        self.model_path = self.work / "model.plre"
        self.problems: List[str] = []
        self.passes: List[dict] = []
        self.first: Optional[dict] = None
        self.last_state: dict = {}

    # -- the pipeline ---------------------------------------------------

    def prepare(self) -> None:
        """Read the held-out text and draw the check queries.  Nothing else
        the benchmark builds stays alive during the passes, where it would
        add to the program's memory and garbage-collection work."""
        from reference import Counts

        self.heldout = self.p["corpus"].read_sentences(str(self.work / "heldout.txt"))
        words = Counts(self.train_lines(), self.w.order, UNK_THRESHOLD).words
        self.own_tokens = sum(len(s) + 1 for s in self.heldout)
        self.own_oov = sum(1 for s in self.heldout for t in s if t not in words)
        rng = random.Random(self.seed)
        n = self.w.order
        positions = []
        for s in self.heldout:
            padded = ["<s>"] * (n - 1) + [t if t in words else "<unk>" for t in s] + ["</s>"]
            positions.extend(
                tuple(padded[i - n + 1 : i + 1]) for i in range(n - 1, len(padded))
            )
        # Queries as oldest-first word strings: observed held-out n-grams, and
        # the same contexts with a random vocabulary word.
        self.queries = rng.sample(positions, min(CHECK_QUERIES, len(positions)))
        choices = sorted(words - {"<s>"})
        self.queries += [q[:-1] + (rng.choice(choices),) for q in self.queries[: CHECK_QUERIES // 4]]

    def train_lines(self) -> List[str]:
        with open(self.work / "train.txt", encoding="utf-8") as fh:
            return fh.read().splitlines()

    def run_pass(self, tracer) -> dict:
        p = self.p
        corpus, ensemble, container = p["corpus"], p["ensemble"], p["container"]
        evaluation, baselines, cli = p["evaluation"], p["baselines"], p["cli"]
        span = tracer.span if tracer is not None else (lambda *a, **k: contextlib.nullcontext())
        res = {"times": {}, "raw": {}, "rss": {}, "failed": 0, "traced": tracer is not None}
        self.last_state = state = {}

        def train():
            sentences = corpus.read_sentences(str(self.work / "train.txt"))
            vocab = corpus.build_vocabulary(sentences, UNK_THRESHOLD)
            with span("corpus.encode"):
                encoded = [vocab.encode(s) for s in sentences]
            top = corpus.count_ngrams(encoded, self.w.order)
            model = ensemble.build_plre(
                top, vocab, powers=self.w.powers, ranks=self.w.ranks, seed=0, threads=1
            )
            container.save_model(model, str(self.model_path))
            state.update(vocab=vocab, top=top, built=model)

        def load():
            state["loaded"] = container.load_model(str(self.model_path))

        def score(key):
            def op():
                state[key] = evaluation.perplexity(state[key + "_model"], self.heldout)

            return op

        def build(smoother):
            def op():
                state[smoother + "_model"] = baselines.NgramLM.build(
                    state["vocab"], {self.w.order: state["top"]}, smoother
                )

            return op

        def verify():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                state["verify_rc"] = cli.main(["verify", "--model", str(self.model_path), "--json"])
            state["verify_report"] = buf.getvalue()

        steps = {
            "train": train,
            "load": load,
            "score_plre": score("plre"),
            "build_kn": build("kn"),
            "score_kn": score("kn"),
            "build_mkn": build("mkn"),
            "score_mkn": score("mkn"),
            "verify": verify,
        }
        for i, op in enumerate(OPS):
            # Every operation starts from a collected heap, so garbage left by
            # the one before is not charged to it.
            gc.collect()

            def timed():
                with span("stage." + op):
                    steps[op]()

            try:
                res["raw"][op], res["times"][op] = self.clock.time(timed)
            except Exception:  # an operation of the program failed: count it
                traceback.print_exc(file=sys.stderr)
                res["failed"] = len(OPS) - i
                return res
            res["rss"][op] = maxrss_mb()
            if op == "train":
                # Outside the timers: answers of the model just built, for the
                # bit-identical check after load, and its slice reports.
                built = state.pop("built")
                res["probe"] = self.probe(built, state["vocab"])
                res["row_residual"] = max(
                    (r.max_row_residual for r in built.convergence_reports()), default=0.0
                )
                del built
            elif op == "load":
                state["plre_model"] = state.pop("loaded")
        self.check_pass(res, state)
        return res

    def probe(self, model, vocab) -> List[float]:
        w2i = vocab.word_to_id
        return [
            model.prob(w2i.get(q[-1], 0), tuple(w2i.get(t, 0) for t in reversed(q[:-1])))
            for q in self.queries
        ]

    # -- checks -----------------------------------------------------------

    def check_pass(self, res: dict, state: dict) -> None:
        bad = self.problems.append
        digest = file_sha256(self.model_path)
        ppl = {k: state[k].perplexity for k in ("plre", "kn", "mkn")}
        loaded_probe = self.probe(state["plre_model"], state["vocab"])
        if [x.hex() for x in loaded_probe] != [x.hex() for x in res["probe"]]:
            bad("loaded model does not answer queries bit-identically to the built one")
        for k, rep in ((k, state[k]) for k in ("plre", "kn", "mkn")):
            if not math.isfinite(rep.perplexity):
                bad(f"{k} perplexity is {rep.perplexity}")
            if (rep.tokens, rep.oov) != (self.own_tokens, self.own_oov):
                bad(
                    f"{k}: tokens/oov {rep.tokens}/{rep.oov}, "
                    f"expected {self.own_tokens}/{self.own_oov}"
                )
        try:
            report = json.loads(state["verify_report"])
            passed = report["passed"] is True
        except (ValueError, KeyError, TypeError):
            passed = False
        if state["verify_rc"] != 0 or not passed:
            bad(f"plre verify exited {state['verify_rc']}: {state['verify_report'][-2000:]}")
        res["ppl"] = ppl
        res["tokens"] = state["plre"].tokens
        if self.first is None:
            self.first = {"digest": digest, "ppl": ppl}
        else:
            if digest != self.first["digest"]:
                bad("container bytes differ between passes of one run")
            if ppl != self.first["ppl"]:
                bad(f"perplexities differ between passes: {ppl} vs {self.first['ppl']}")

    def check_run(self) -> None:
        """Checks made once per run, on the last pass's models."""
        from reference import Counts, KneserNey, RankOnePlre, worst_relative_error

        bad = self.problems.append
        # Keyed by the training text too: the check is that one input always
        # gives one container, whatever run built it.
        corpus_digest = file_sha256(self.work / "train.txt")[:16]
        digest_file = OUT / self.name / f"seed-{self.seed}-{corpus_digest}.sha256"
        if self.first is not None:
            if digest_file.exists():
                if digest_file.read_text().strip() != self.first["digest"]:
                    bad("container differs from an earlier run with this seed")
            else:
                tmp = digest_file.with_suffix(".tmp")
                tmp.write_text(self.first["digest"] + "\n")
                os.replace(tmp, digest_file)
        state = self.last_state
        if "verify_report" not in state:  # the last pass did not finish
            return
        w2i = state["vocab"].word_to_id

        def program(model):
            def prob(*q):
                return model.prob(w2i[q[-1]], tuple(w2i[t] for t in reversed(q[:-1])))

            return prob

        counts = Counts(self.train_lines(), self.w.order, UNK_THRESHOLD)
        refs = {
            "kn": KneserNey(counts, modified=False),
            "mkn": KneserNey(counts, modified=True),
        }
        if all(r == 1 for rs in self.w.ranks.values() for r in rs):
            refs["plre"] = RankOnePlre(counts, self.w.powers)
        for key, ref in refs.items():
            err = worst_relative_error(
                self.queries, program(state[key + "_model"]), lambda *q: ref.prob(q[-1], q[:-1])
            )
            if not err <= 1e-10:
                bad(f"{key} disagrees with the reference: worst relative error {err:.3g}")
        if "plre" not in refs:
            self.check_normalization(state["plre_model"])

    def check_normalization(self, model) -> None:
        """sum_w P(w|h) = 1 within 1e-8 through the per-word query path, for
        observed top-order contexts, contexts seen only one order lower, and
        random ones."""
        rng = random.Random(self.seed + 1)
        n = self.w.order
        vsize = len(model.vocab)
        top_ctx = sorted(model.levels[n].context_totals)
        lower = sorted(model.levels[n - 1].context_totals)
        contexts = rng.sample(top_ctx, 4)
        while len(contexts) < 8:
            h = rng.choice(lower) + (rng.randrange(vsize),)
            if h not in model.levels[n].context_totals:
                contexts.append(h)
        contexts += [tuple(rng.randrange(vsize) for _ in range(n - 1)) for _ in range(4)]
        for h in contexts:
            total = math.fsum(model.prob(w, h) for w in range(vsize))
            if not abs(total - 1.0) <= 1e-8:
                self.problems.append(f"sum_w P(w|{h}) = {total!r}")

    # -- metrics ----------------------------------------------------------

    def end_to_end(self, done: List[dict], setup_s: float, peak_rss: float) -> Dict[str, tuple]:
        med = {op: statistics.median(r["times"][op] for r in done) for op in OPS}
        tokens = done[0]["tokens"]
        return {
            "setup_s": (setup_s, "s"),
            "train_s": (med["train"], "s"),
            "load_s": (med["load"], "s"),
            "plre_eval_tok_s": (tokens / med["score_plre"], "tokens/s"),
            "kn_eval_tok_s": (tokens / med["score_kn"], "tokens/s"),
            "mkn_eval_tok_s": (tokens / med["score_mkn"], "tokens/s"),
            "verify_s": (med["verify"], "s"),
            "container_bytes": (os.path.getsize(self.model_path), "bytes"),
            "peak_rss_mb": (peak_rss, "MiB"),
            "plre_perplexity": (done[0]["ppl"]["plre"], "ppl"),
        }

    def per_layer(self, done: List[dict]) -> Dict[str, tuple]:
        from spans import SpanIndex

        traced = [r for r in done if r["traced"]]
        untraced = [r for r in done if not r["traced"]]
        per_pass = [layer_metrics(SpanIndex(r["spans"])) for r in traced]
        out = {
            name: (statistics.median(m[name][0] for m in per_pass), per_pass[0][name][1])
            for name in per_pass[0]
        }
        out["factorization.max_row_residual"] = (
            max(r["row_residual"] for r in traced),
            "1",
        )
        out["trace.overhead_s"] = (
            statistics.median(sum(r["times"].values()) for r in traced)
            - statistics.median(sum(r["times"].values()) for r in untraced),
            "s",
        )
        out["machine.scale"] = (
            statistics.median(r["times"][op] / r["raw"][op] for r in done for op in OPS),
            "1",
        )
        out["trace.spans"] = (len(traced[0]["spans"]), "count")
        for op, stage in (("train", "train"), ("load", "load"), ("score_mkn", "score"), ("verify", "verify")):
            out[f"process.maxrss_after_{stage}_mb"] = (done[0]["rss"][op], "MiB")
        for kind, nbytes in container_section_bytes(self.model_path).items():
            out[f"container.bytes.{kind}"] = (nbytes, "bytes")
        out.update(self.eval_counts())
        return out

    def eval_counts(self) -> Dict[str, tuple]:
        """Held-out token counts by the deepest order whose context the model
        observed, and the low-rank multiply-adds a scorer spends."""
        model = self.last_state["plre_model"]
        rep = self.last_state["plre"]
        vocab, n = model.vocab, model.order
        by_order = {k: 0 for k in range(1, max(LEVELS) + 1)}
        muladds = 0
        for s in self.heldout:
            padded = [vocab.bos_id] * (n - 1) + vocab.encode(s) + [vocab.eos_id]
            for i in range(n - 1, len(padded)):
                h = tuple(padded[i - d] for d in range(1, n))
                deepest = next(
                    (k for k in range(n, 1, -1) if model.levels[k].context_totals.get(h[: k - 1])),
                    1,
                )
                by_order[deepest] += 1
                muladds += model.query_cost(padded[i], h)
        out = {
            "evaluation.tokens": (rep.tokens, "count"),
            "evaluation.oov": (rep.oov, "count"),
            "evaluation.lowrank_muladds": (muladds, "count"),
        }
        for k, c in by_order.items():
            out[f"evaluation.ctx_order_{k}"] = (c, "count")
        return out


def install_tracing(tracer, prog: dict) -> None:
    """Wrap the public functions at each module boundary, under the names
    their callers look them up by."""
    corpus, ensemble, factorization = prog["corpus"], prog["ensemble"], prog["factorization"]
    container, evaluation, baselines, cli = (
        prog["container"],
        prog["evaluation"],
        prog["baselines"],
        prog["cli"],
    )
    wrap = tracer.wrap
    wrap(corpus, "read_sentences", "corpus.read_sentences")
    wrap(corpus, "build_vocabulary", "corpus.build_vocabulary")
    wrap(corpus, "count_ngrams", "corpus.count_ngrams", lambda a, k, r: {"types": len(r.entries)})
    wrap(ensemble, "adjusted_tables", "corpus.adjusted_tables")
    wrap(baselines, "adjusted_tables", "corpus.adjusted_tables")
    wrap(ensemble, "build_plre", "ensemble.build_plre")
    wrap(ensemble, "power_counts", "ensemble.power_counts")
    wrap(ensemble, "compute_discounts", "ensemble.compute_discounts")
    wrap(
        ensemble,
        "compute_z",
        "ensemble.compute_z",
        lambda a, k, r: {"level": a[0].order, "slices": len(r.slices)},
    )
    wrap(
        ensemble,
        "nmf_gkl",
        "factorization.nmf_gkl",
        lambda a, k, r: {
            "nnz": a[0].nnz,
            "rank": r[1].rank,
            "iterations": r[1].iterations,
            "converged": r[1].converged,
            "kind": "rank1" if r[1].rank == 1 else "iterative",
        },
    )
    wrap(factorization, "best_rank1", "factorization.best_rank1")
    wrap(container, "save_model", "container.save_model")
    wrap(container, "load_model", "container.load_model")
    wrap(cli, "load_model", "container.load_model")
    wrap(evaluation, "perplexity", "evaluation.perplexity", lambda a, k, r: {"smoother": a[0].smoother})
    wrap(baselines.NgramLM, "build", "baselines.NgramLM.build")
    wrap(cli, "main", "cli.main")
    wrap(cli, "verify_marginal", "ensemble.verify_marginal", lambda a, k, r: {"level": a[1]})
    wrap(cli, "marginal_error_bound", "ensemble.marginal_error_bound")
    for check in ("check_gamma_closed_form", "check_local_constraints", "check_discount_bounds"):
        wrap(ensemble.PlreModel, check, "ensemble.local_check")


def layer_metrics(ix) -> Dict[str, tuple]:
    from spans import duration

    def total(name, stage=None):
        return sum(duration(s) for s in ix.named(name, stage))

    out: Dict[str, tuple] = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    train = "stage.train"
    put("corpus.read_s", total("corpus.read_sentences", train), "s")
    put("corpus.vocab_s", total("corpus.build_vocabulary", train) + total("corpus.encode", train), "s")
    put("corpus.count_s", total("corpus.count_ngrams", train), "s")
    put("corpus.adjusted_s", total("corpus.adjusted_tables", train), "s")
    put("corpus.top_types", sum(s["types"] for s in ix.named("corpus.count_ngrams", train)), "count")

    put("ensemble.power_s", total("ensemble.power_counts"), "s")
    put("ensemble.discount_s", total("ensemble.compute_discounts"), "s")
    put("ensemble.build_other_s", sum(ix.self_time(s) for s in ix.named("ensemble.build_plre")), "s")
    nmf = ix.named("factorization.nmf_gkl")
    zs = ix.named("ensemble.compute_z")
    kinds = ("exact", "rank1", "iterative")
    slices = {(kind, k): 0 for kind in kinds for k in LEVELS}
    slice_s = {k: 0.0 for k in LEVELS}
    iterative_s = {k: 0.0 for k in LEVELS}
    for z in zs:
        k = z["level"]
        kids = [c for c in ix.children.get(z["id"], ()) if c["name"] == "factorization.nmf_gkl"]
        slice_s[k] += ix.self_time(z)
        slices[("exact", k)] += z["slices"] - len(kids)
        for c in kids:
            slices[(c["kind"], k)] += 1
            if c["kind"] == "iterative":
                iterative_s[k] += duration(c)
    put("ensemble.slice_s", sum(slice_s.values()), "s")
    for kind in kinds:
        put(f"ensemble.slices_{kind}", sum(slices[(kind, k)] for k in LEVELS), "count")
    for k in LEVELS:
        put(f"ensemble.slice_s.L{k}", slice_s[k], "s")
        for kind in kinds:
            put(f"ensemble.slices_{kind}.L{k}", slices[(kind, k)], "count")

    iterative = [s for s in nmf if s["kind"] == "iterative"]
    work = sum(s["nnz"] * s["rank"] * s["iterations"] for s in iterative)
    it_s = sum(iterative_s.values())
    put("factorization.iterative_s", it_s, "s")
    for k in LEVELS:
        put(f"factorization.iterative_s.L{k}", iterative_s[k], "s")
    put("factorization.rank1_s", sum(duration(s) for s in nmf if s["kind"] == "rank1"), "s")
    put("factorization.max_slice_s", max((duration(s) for s in nmf), default=0.0), "s")
    put("factorization.iterations", sum(s["iterations"] for s in iterative), "count")
    put("factorization.converged", sum(1 for s in iterative if s["converged"]), "count")
    put("factorization.work", work, "count")
    put("factorization.ns_per_work", it_s * 1e9 / work if work else 0.0, "ns")

    put("container.save_s", total("container.save_model"), "s")

    verify = "stage.verify"
    for k in LEVELS:
        put(
            f"ensemble.verify_marginal_s.L{k}",
            sum(duration(s) for s in ix.named("ensemble.verify_marginal", verify) if s["level"] == k),
            "s",
        )
    put("ensemble.marginal_bound_s", total("ensemble.marginal_error_bound", verify), "s")
    put("ensemble.local_checks_s", total("ensemble.local_check", verify), "s")
    put("cli.verify_other_s", sum(ix.self_time(s) for s in ix.named("cli.main", verify)), "s")

    layers = ix.layer_self_times()
    for layer in ("corpus", "ensemble", "factorization", "container", "baselines", "evaluation", "cli"):
        put(f"{layer}.self_s", layers.get(layer, 0.0), "s")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    prog = import_program()
    sys.path.insert(0, str(BENCH))
    from clock import ScaledClock
    from spans import Tracer

    clock = ScaledClock()
    run = Run(args.workload, args.seed, prog, clock)
    run.work.mkdir(parents=True, exist_ok=True)
    setup_s, problems = setup(run.w, args.seed, run.work, clock)
    run.problems += problems
    run.prepare()

    tracer = Tracer(clock.now) if args.trace else None
    attempted = failed = 0
    start = time.perf_counter()
    rounds = 0
    while True:
        for traced in (False, True) if tracer else (False,):
            if traced:
                tracer.spans = []
                install_tracing(tracer, prog)
            try:
                res = run.run_pass(tracer if traced else None)
            finally:
                if traced:
                    tracer.unwrap()
            if traced:
                res["spans"] = tracer.spans
            run.passes.append(res)
            print(
                f"pass {len(run.passes)}{' traced' if traced else ''}: "
                + " ".join(f"{op} {t:.3f}" for op, t in res["times"].items()),
                file=sys.stderr,
            )
            attempted += len(OPS)
            failed += res["failed"]
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > args.seconds:
            break
    peak_rss = maxrss_mb()
    run.check_run()

    done = [r for r in run.passes if len(r["times"]) == len(OPS)]
    if tracer is None:
        metrics = run.end_to_end(done, setup_s, peak_rss) if done else {}
    else:
        kinds = {r["traced"] for r in done}
        finished = kinds == {False, True} and "verify_report" in run.last_state
        metrics = run.per_layer(done) if finished else {}
        with open(OUT / args.workload / f"trace-seed-{args.seed}.json", "w", encoding="utf-8") as fh:
            json.dump([r["spans"] for r in run.passes if r["traced"]], fh)
    for msg in run.problems:
        print(f"check failed: {msg}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>16.6g} {unit}")
    result = {
        "correct": not run.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    line = json.dumps(result)
    with open(OUT / args.workload / f"result-seed-{args.seed}-trace-{args.trace}.json", "w") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
