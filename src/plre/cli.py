"""Command-line front end: train, evaluate, verify, and compare models.

Exit codes
----------
0  success
1  unexpected internal error (including factorization divergence)
2  usage error (unknown flags, missing arguments)
3  configuration error (bad config file or flag values)
4  data error (empty or malformed corpus or vocabulary)
5  file system error (unreadable input, unwritable output)
6  container error (corrupt, truncated, or unsupported model file)
7  verification failure (an invariant check exceeded its tolerance)
8  evaluation error (zero probability or reserved token in test data)

With --json every command prints exactly one JSON object on stdout; the
schemas are documented in the README.  Timing is always measured and is
printed in text mode only at --verbose.  ``run_checks`` lists verify's
checks and tolerances; ``plre.verify`` computes them.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time
from collections import Counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import __version__
from .baselines import NgramLM
from .config import SMOOTHER_CHOICES, TrainConfig, _apply_key, load_config
from .container import load_model, save_model
from .corpus import (
    CountTable,
    Vocabulary,
    build_vocabulary,
    count_all_orders,
    count_ngrams,
    read_sentences,
)
from .ensemble import PlreModel, build_plre
from .errors import (
    ConfigError,
    ContainerError,
    DataError,
    EvalError,
    PlreError,
    VerificationError,
)
from .evaluation import perplexity
from .levels import timed
from .verify import (
    kn_reduction_deviation,
    marginal_error_bound,
    normalization_observed,
    normalization_sweep,
    rank1_closed_form,
    verify_marginal,
)

# The config keys that train flags override, each the dest of its flag.
TRAIN_FLAG_KEYS = ("smoother", "order", "power", "rank", "dstar", "seed", "threads", "unk_threshold")
BUILD_STAGES = ("counting", "adjusted_tables", "discounts", "slices", "nmf")
MARGINAL_ULPS = 1


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--smoother", choices=SMOOTHER_CHOICES, help="smoothing method")
    p.add_argument("--order", help="n-gram order")
    p.add_argument(
        "--power",
        nargs="+",
        metavar="RHO",
        help="intermediate ensemble powers, strictly descending in (0,1)",
    )
    p.add_argument(
        "--rank",
        metavar="R",
        help="rank per intermediate power: absolute int or vocab fraction 0<f<1",
    )
    p.add_argument("--dstar", metavar="D", help="'gt-root' or a fixed float in (0,1)")
    p.add_argument("--seed", help="build seed (default 0)")
    p.add_argument("--threads", help="factorization worker threads")
    p.add_argument(
        "--unk-threshold",
        dest="unk_threshold",
        help="map words seen <= this many times to the unk symbol",
    )


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--verbose", action="store_true", help="timing and diagnostics")


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    p = argparse.ArgumentParser(
        prog="plre",
        description="Train and evaluate low-rank power-ensemble n-gram models.",
    )
    p.add_argument("--version", action="version", version=f"plre {__version__}")
    sub = p.add_subparsers(dest="command", required=True, metavar="COMMAND")

    t = sub.add_parser("train", help="train a model and write a container file")
    t.add_argument("--corpus", required=True, help="training text, one sentence per line")
    t.add_argument("--model", required=True, help="output container path")
    t.add_argument("--config", help="key-value config file (flags override it)")
    _add_train_flags(t)
    _add_common_flags(t)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate perplexity of a saved model")
    e.add_argument("--model", required=True, help="container path")
    e.add_argument("--corpus", required=True, help="test text, one sentence per line")
    _add_common_flags(e)
    e.set_defaults(func=cmd_eval)

    v = sub.add_parser("verify", help="run invariant checks on a saved model")
    v.add_argument("--model", required=True, help="container path")
    v.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    _add_common_flags(v)
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("compare", help="train several configs and compare perplexity")
    c.add_argument("--corpus", required=True, help="shared training text")
    c.add_argument("--test", required=True, help="shared evaluation text")
    c.add_argument(
        "--config",
        action="append",
        required=True,
        metavar="FILE",
        help="config file; repeat for each contender",
    )
    c.add_argument("--csv", metavar="FILE", help="write order-sweep rows as CSV")
    _add_train_flags(c)
    _add_common_flags(c)
    c.set_defaults(func=cmd_compare)
    return p


def _load_cfg(args: argparse.Namespace, path: Optional[str]) -> TrainConfig:
    cfg = load_config(path) if path else TrainConfig()
    for key in TRAIN_FLAG_KEYS:
        value = getattr(args, key)
        if value is None:
            continue
        text = " ".join(value) if isinstance(value, list) else value
        try:
            _apply_key(cfg, key, text)
        except (ConfigError, ValueError) as exc:
            raise ConfigError(f"--{key.replace('_', '-')} {text!r}: {exc}") from None
    cfg.validate()
    return cfg


def _build_model(
    cfg: TrainConfig,
    vocab: Vocabulary,
    top: CountTable,
    timings: Optional[Dict[str, float]] = None,
):
    if cfg.smoother == "plre":
        return build_plre(
            top,
            vocab,
            powers=cfg.resolved_powers(),
            ranks=cfg.resolved_rank_values(),
            dstar=cfg.dstar,
            nmf_max_iters=cfg.nmf_max_iters,
            nmf_rel_tol=cfg.nmf_rel_tol,
            seed=cfg.seed,
            threads=cfg.threads,
            timings=timings,
        )
    return NgramLM.build(vocab, {cfg.order: top}, cfg.smoother, timings)


def _convergence_summary(model) -> Optional[dict]:
    reports = model.convergence_reports() if isinstance(model, PlreModel) else []
    if not reports:
        return None
    return {
        "slices": len(reports),
        "converged": int(sum(1 for r in reports if r.converged)),
        "max_iterations": max(r.iterations for r in reports),
        "max_final_gkl": max(r.final_gkl for r in reports),
        "max_row_residual": max(r.max_row_residual for r in reports),
        "max_col_residual": max(r.max_col_residual for r in reports),
        "levels": [
            _level_summary(order, step, z.reports)
            for order, level in sorted(model.levels.items(), reverse=True)
            for step, z in enumerate(level.z_tables, 1)
        ],
    }


def _level_summary(order: int, step: int, reports) -> dict:
    """One chain step's slices: counts by kind, the slice count per rank,
    and the iterations and convergence of its iterative slices."""
    iterative = [r for r in reports if r.kind == "iterative"]
    iterations = [r.iterations for r in iterative] or [0]
    ranks = Counter(r.rank for r in reports)
    return {
        "order": order,
        "step": step,
        "slices": {
            kind: sum(1 for r in reports if r.kind == kind) for kind in ("rank1", "iterative")
        },
        "ranks": {str(r): ranks[r] for r in sorted(ranks)},
        "iterations_p50": float(np.median(iterations)),
        "iterations_max": max(iterations),
        "converged": sum(1 for r in iterative if r.converged),
        "max_row_residual": max((r.max_row_residual for r in reports), default=0.0),
    }


def _emit(args: argparse.Namespace, report: dict, text_lines: List[str]) -> None:
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args, args.config)
    stages: Dict[str, float] = dict.fromkeys(BUILD_STAGES, 0.0)
    t0 = time.perf_counter()
    sentences = read_sentences(args.corpus)
    vocab = build_vocabulary(sentences, cfg.unk_threshold)
    encoded = [vocab.encode(s) for s in sentences]
    tokens = sum(len(s) for s in sentences)
    with timed(stages, "counting"):
        top = count_ngrams(encoded, cfg.order)
    t1 = time.perf_counter()
    model = _build_model(cfg, vocab, top, stages)
    t2 = time.perf_counter()
    save_model(model, args.model, config_echo=cfg.echo())
    t3 = time.perf_counter()

    # "factorization" is the low-rank tables' part of "build".
    timing = {
        "counting": t1 - t0,
        "build": t2 - t1,
        "factorization": stages["slices"] + stages["nmf"],
        "stages": stages,
        "assembly": t3 - t2,
        "total": t3 - t0,
    }
    report = {
        "command": "train",
        "model": args.model,
        "smoother": cfg.smoother,
        "order": cfg.order,
        "vocab_size": len(vocab),
        "train_tokens": tokens,
        "seed": cfg.seed,
        "timing": timing,
        "warnings": list(getattr(model, "warnings", [])),
    }
    conv = _convergence_summary(model)
    if conv is not None:
        report["convergence"] = conv

    lines = [
        f"trained {cfg.smoother} order {cfg.order}: vocab {len(vocab)}, "
        f"{tokens} tokens -> {args.model}"
    ]
    for w in report["warnings"]:
        print(f"warning: {w}", file=sys.stderr)
    if args.verbose:
        lines.append(
            "timing: counting {counting:.3f}s, build {build:.3f}s, "
            "assembly {assembly:.3f}s, total {total:.3f}s".format(**timing)
        )
        lines.append(
            "  stages: counting {counting:.3f}s, adjusted tables {adjusted_tables:.3f}s, "
            "discounts {discounts:.3f}s, slices {slices:.3f}s, nmf {nmf:.3f}s".format(**stages)
        )
        if conv is not None:
            lines.append(
                "convergence: {slices} slices, {converged} converged, "
                "max iters {max_iterations}, max gKL {max_final_gkl:.3g}, "
                "max row residual {max_row_residual:.3g}, "
                "max col residual {max_col_residual:.3g}".format(**conv)
            )
            for lv in conv["levels"]:
                lines.append(
                    "  order {order} step {step}: {n[rank1]} rank1, "
                    "{n[iterative]} iterative ({converged} converged, iters p50 "
                    "{iterations_p50:g} max {iterations_max}), ranks {hist}, max row "
                    "residual {max_row_residual:.3g}".format(
                        n=lv["slices"],
                        hist=" ".join(f"{r}:{c}" for r, c in lv["ranks"].items()),
                        **lv,
                    )
                )
    _emit(args, report, lines)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    model = load_model(args.model)
    sentences = read_sentences(args.corpus)
    rep = perplexity(model, sentences)
    elapsed = time.perf_counter() - t0
    oov_rate = rep.oov / rep.tokens if rep.tokens else 0.0
    report = {
        "command": "eval",
        "model": args.model,
        "smoother": model.smoother,
        "order": model.order,
        "tokens": rep.tokens,
        "oov": rep.oov,
        "oov_rate": oov_rate,
        "total_logprob": rep.total_logprob,
        "perplexity": rep.perplexity,
        "distinct_queries": rep.distinct,
        "distinct_contexts": rep.contexts,
        "context_orders": {str(k): c for k, c in enumerate(rep.context_orders, 1)},
    }
    lines = [
        f"perplexity {rep.perplexity:.4f} over {rep.tokens} tokens "
        f"({model.smoother} order {model.order}, oov rate {oov_rate:.4%})"
    ]
    if args.verbose:
        lines.append(
            f"queries: {rep.distinct} distinct (state, word) of {rep.tokens} scored, "
            f"{rep.contexts} distinct contexts resolved"
        )
        orders = " ".join(f"{k}:{c}" for k, c in report["context_orders"].items())
        lines.append(f"context orders: {orders}")
        lines.append(f"timing: eval {elapsed:.2f}s")
    _emit(args, report, lines)
    return 0


def run_checks(model, seed: int) -> List[dict]:
    """Every invariant check that applies to the model, each a dict of its
    name, max violation, tolerance, verdict and seconds."""
    last = time.perf_counter()
    checks: List[dict] = []

    def check(name: str, value: float, tol: float) -> None:
        # Wall time since the previous check: this one's value and tolerance.
        nonlocal last
        now = time.perf_counter()
        checks.append(
            {
                "name": name,
                "max_violation": value,
                "tolerance": tol,
                "passed": value <= tol,
                "seconds": now - last,
            }
        )
        last = now

    check("normalization_sweep", normalization_sweep(model, seed), 1e-8)
    check("normalization_observed", normalization_observed(model), 1e-8)
    if isinstance(model, PlreModel):
        for k in range(2, model.order + 1):
            # Rounding allowance: each word's marginal is aggregated from
            # nonnegative terms of total weight at most 1, and each sum on
            # the way takes about one term per observed order-k context at
            # most (a context, which is also its own slice column, or its
            # parent), so the result rounds by about half an ulp of 1 per
            # context at most.
            allowance = MARGINAL_ULPS * sys.float_info.epsilon * len(model.levels[k].totals)
            bound = marginal_error_bound(model, k)
            check(f"marginal_order_{k}", verify_marginal(model, k), bound + allowance)
        check("rank1_closed_form", rank1_closed_form(model), 2 * sys.float_info.epsilon)
        check("gamma_closed_form", model.check_gamma_closed_form(), 1e-12)
        check("local_discount_identity", model.check_local_constraints(), 1e-12)
        check("discount_bounds", model.check_discount_bounds(), 1e-12)
        if all(level.eta == 0 for level in model.levels.values()):
            check("kn_reduction", kn_reduction_deviation(model, seed), 1e-10)
    return checks


def cmd_verify(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    checks = run_checks(model, args.seed)
    passed = all(c["passed"] for c in checks)

    report = {
        "command": "verify",
        "model": args.model,
        "smoother": model.smoother,
        "order": model.order,
        "checks": checks,
        "passed": passed,
    }
    lines = []
    for c in checks:
        line = "{name:<26} max {max_violation:.3e}  tol {tolerance:.3e}  {flag}".format(
            flag="PASS" if c["passed"] else "FAIL", **c
        )
        lines.append(line + (f"  {c['seconds']:.3f}s" if args.verbose else ""))
    lines.append(
        f"verify: {'PASS' if passed else 'FAIL'} "
        f"({sum(c['passed'] for c in checks)}/{len(checks)} checks)"
    )
    if args.verbose:
        lines.append(f"timing: verify {sum(c['seconds'] for c in checks):.2f}s")
    _emit(args, report, lines)
    return 0 if passed else 7


def cmd_compare(args: argparse.Namespace) -> int:
    cfgs: List[Tuple[str, TrainConfig]] = []
    for path in args.config:
        cfg = _load_cfg(args, path)
        name = path.rsplit("/", 1)[-1]
        name = name[: -len(".cfg")] if name.endswith(".cfg") else name
        cfgs.append((name, cfg))
    thresholds = {cfg.unk_threshold for _, cfg in cfgs}
    if len(thresholds) > 1:
        raise ConfigError(
            "compare needs one shared unk_threshold across configs "
            f"(got {sorted(thresholds)}); set it once or pass --unk-threshold"
        )

    t0 = time.perf_counter()
    sentences = read_sentences(args.corpus)
    test = read_sentences(args.test)
    vocab = build_vocabulary(sentences, thresholds.pop())
    encoded = [vocab.encode(s) for s in sentences]
    max_order = max(cfg.order for _, cfg in cfgs)
    raw = count_all_orders(encoded, max_order)
    t_counting = time.perf_counter() - t0

    rows: List[dict] = []
    for name, cfg in cfgs:
        t1 = time.perf_counter()
        model = _build_model(cfg, vocab, raw[cfg.order])
        build_secs = time.perf_counter() - t1
        rep = perplexity(model, test)
        rows.append(
            {
                "name": name,
                "smoother": cfg.smoother,
                "order": cfg.order,
                "perplexity": rep.perplexity,
                "oov_rate": rep.oov / rep.tokens if rep.tokens else 0.0,
                "train_seconds": build_secs,
            }
        )
    best = min(range(len(rows)), key=lambda i: rows[i]["perplexity"])
    for i, row in enumerate(rows):
        row["best"] = i == best

    # Order sweep: at each order with both a plre entry and a classical
    # baseline, the best of each side against the other; the improvement
    # is positive when plre is better.
    sweep: List[dict] = []
    for order in sorted({row["order"] for row in rows}):
        here = [row for row in rows if row["order"] == order]
        base = [row["perplexity"] for row in here if row["smoother"] != "plre"]
        cand = [row["perplexity"] for row in here if row["smoother"] == "plre"]
        if base and cand:
            b, c = min(base), min(cand)
            sweep.append(
                {
                    "order": order,
                    "baseline_perplexity": b,
                    "candidate_perplexity": c,
                    "improvement_pct": 100.0 * (b - c) / b,
                }
            )

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["order", "baseline_perplexity", "candidate_perplexity", "improvement_pct"]
            )
            for row in sweep:
                writer.writerow(
                    [
                        row["order"],
                        f"{row['baseline_perplexity']:.6f}",
                        f"{row['candidate_perplexity']:.6f}",
                        f"{row['improvement_pct']:.6f}",
                    ]
                )

    report = {"command": "compare", "rows": rows, "sweep": sweep}
    lines = [
        f"{'name':<18} {'smoother':<8} {'order':>5} {'perplexity':>12} {'oov_rate':>9}"
    ]
    for row in rows:
        lines.append(
            "{name:<18} {smoother:<8} {order:>5} {perplexity:>12.4f} "
            "{oov_rate:>9.4%} {star}".format(star="*" if row["best"] else "", **row)
        )
    for row in sweep:
        lines.append(
            "order {order}: baseline {baseline_perplexity:.4f} vs plre "
            "{candidate_perplexity:.4f} ({improvement_pct:+.2f}%)".format(**row)
        )
    if args.verbose:
        lines.append(
            f"timing: counting {t_counting:.2f}s, "
            f"total {time.perf_counter() - t0:.2f}s"
        )
    _emit(args, report, lines)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ContainerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 6
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 7
    except EvalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 8
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except PlreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 — CLI boundary, map to exit 1
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
