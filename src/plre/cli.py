"""Command-line front end: train, evaluate, verify, and compare models.

Exit codes
----------
0  success
1  unexpected internal error (including factorization divergence)
2  usage error (unknown flags, missing arguments)
3  configuration error (bad config file or flag values)
4  data error (empty or malformed corpus, vocabulary mismatch)
5  file system error (unreadable input, unwritable output)
6  container error (corrupt, truncated, or unsupported model file)
7  verification failure (an invariant check exceeded its tolerance)
8  evaluation error (zero probability or reserved token in test data)

With --json every command prints exactly one JSON object on stdout; the
schemas are documented in the README.  Timing is always measured and is
printed in text mode only at --verbose.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import __version__
from .baselines import DiscountParams, NgramLM
from .config import TrainConfig, _parse_rank_value, load_config
from .container import load_model, save_model
from .corpus import (
    CountTable,
    Vocabulary,
    build_vocabulary,
    count_all_orders,
    count_ngrams,
    read_sentences,
)
from .ensemble import (
    PlreModel,
    build_plre,
    marginal_error_bound,
    normalization_observed,
    verify_marginal,
)
from .errors import (
    ConfigError,
    ContainerError,
    DataError,
    EvalError,
    PlreError,
    VerificationError,
)
from .evaluation import order_sweep, perplexity

SMOOTHER_CHOICES = ("mle", "abs", "kn", "mkn", "plre")
MARGINAL_ULPS = 1


def _parse_dstar(text: str):
    if text == "gt-root":
        return text
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"--dstar must be 'gt-root' or a float, got {text!r}")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--smoother", choices=SMOOTHER_CHOICES, help="smoothing method")
    p.add_argument("--order", type=int, help="n-gram order")
    p.add_argument(
        "--power",
        type=float,
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
    p.add_argument("--seed", type=int, help="build seed (default 0)")
    p.add_argument("--threads", type=int, help="factorization worker threads")
    p.add_argument(
        "--unk-threshold",
        type=int,
        dest="unk_threshold",
        help="map words seen <= this many times to the unk symbol",
    )


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--verbose", action="store_true", help="timing and diagnostics")


def _parser() -> argparse.ArgumentParser:
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


def _apply_overrides(cfg: TrainConfig, args: argparse.Namespace) -> None:
    if args.smoother is not None:
        cfg.smoother = args.smoother
    if args.order is not None:
        cfg.order = args.order
    if args.power is not None:
        cfg.default_power = tuple(args.power)
    if args.rank is not None:
        cfg.default_rank = _parse_rank_value(args.rank)
    if args.dstar is not None:
        cfg.dstar = _parse_dstar(args.dstar)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.threads is not None:
        cfg.threads = args.threads
    if args.unk_threshold is not None:
        cfg.unk_threshold = args.unk_threshold


def _load_cfg(args: argparse.Namespace, path: Optional[str]) -> TrainConfig:
    cfg = load_config(path) if path else TrainConfig()
    _apply_overrides(cfg, args)
    cfg.validate()
    return cfg


def _build_model(cfg: TrainConfig, vocab: Vocabulary, raw: Dict[int, CountTable]):
    if cfg.smoother == "plre":
        return build_plre(
            raw[cfg.order],
            vocab,
            powers=cfg.resolved_powers(),
            ranks=cfg.resolved_rank_values(),
            dstar=cfg.dstar,
            nmf_max_iters=cfg.nmf_max_iters,
            nmf_rel_tol=cfg.nmf_rel_tol,
            nmf_eps=cfg.nmf_eps,
            seed=cfg.seed,
            threads=cfg.threads,
        )
    if cfg.smoother in ("kn", "mkn"):
        return NgramLM.build(vocab, {cfg.order: raw[cfg.order]}, cfg.smoother)
    return NgramLM.build(
        vocab, {k: raw[k] for k in range(1, cfg.order + 1)}, cfg.smoother
    )


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
    """One chain step's slices: counts by kind, and the iterations and
    convergence of its iterative slices."""
    iterative = [r for r in reports if r.kind == "iterative"]
    iterations = [r.iterations for r in iterative] or [0]
    return {
        "order": order,
        "step": step,
        "slices": {
            kind: sum(1 for r in reports if r.kind == kind)
            for kind in ("exact", "rank1", "iterative")
        },
        "iterations_p50": float(np.median(iterations)),
        "iterations_max": max(iterations),
        "converged": sum(1 for r in iterative if r.converged),
        "max_row_residual": max((r.max_row_residual for r in reports), default=0.0),
    }


def _emit(args: argparse.Namespace, report: dict, text_lines: List[str]) -> None:
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _load_cfg(args, args.config)
    t0 = time.perf_counter()
    sentences = read_sentences(args.corpus)
    vocab = build_vocabulary(sentences, cfg.unk_threshold)
    encoded = [vocab.encode(s) for s in sentences]
    tokens = sum(len(s) for s in sentences)
    if cfg.smoother in ("mle", "abs"):
        raw = count_all_orders(encoded, cfg.order)
    else:
        # kn/mkn/plre derive everything below the top order themselves.
        raw = {cfg.order: count_ngrams(encoded, cfg.order)}
    t1 = time.perf_counter()
    model = _build_model(cfg, vocab, raw)
    t2 = time.perf_counter()
    save_model(model, args.model, config_echo=cfg.echo())
    t3 = time.perf_counter()

    timing = {
        "counting": t1 - t0,
        "factorization": t2 - t1,
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
            "timing: counting {counting:.2f}s, factorization {factorization:.2f}s, "
            "assembly {assembly:.2f}s, total {total:.2f}s".format(**timing)
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
                    "  order {order} step {step}: {n[exact]} exact, {n[rank1]} rank1, "
                    "{n[iterative]} iterative ({converged} converged, iters p50 "
                    "{iterations_p50:g} max {iterations_max}), max row residual "
                    "{max_row_residual:.3g}".format(n=lv["slices"], **lv)
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
    }
    lines = [
        f"perplexity {rep.perplexity:.4f} over {rep.tokens} tokens "
        f"({model.smoother} order {model.order}, oov rate {oov_rate:.4%})"
    ]
    if args.verbose:
        lines.append(f"timing: eval {elapsed:.2f}s")
    _emit(args, report, lines)
    return 0


def _observed_contexts(model, length: int) -> List[Tuple[int, ...]]:
    return sorted(model.levels[length + 1].context_totals) if length else [()]


def _normalization_sweep(
    model, seed: int, max_contexts: int = 200, n_unseen: int = 100
) -> float:
    """Max |sum_w P(w|h) - 1| over sampled observed and random contexts."""
    rng = np.random.default_rng(seed)
    vsize = len(model.vocab)
    worst = 0.0  # np.maximum, unlike max(), keeps a NaN
    for length in range(model.order):
        contexts = _observed_contexts(model, length)
        if len(contexts) > max_contexts:
            idx = rng.choice(len(contexts), size=max_contexts, replace=False)
            contexts = [contexts[i] for i in sorted(idx)]
        for h in contexts:
            worst = np.maximum(worst, abs(float(model.dist(h).sum()) - 1.0))
    if model.order > 1:
        for _ in range(n_unseen):
            h = tuple(int(x) for x in rng.integers(0, vsize, size=model.order - 1))
            worst = np.maximum(worst, abs(float(model.dist(h).sum()) - 1.0))
    return float(worst)


def _kn_reduction_deviation(model: PlreModel, seed: int, n_queries: int = 2000) -> float:
    """Max |PLRE - interpolated KN with D = d*| over sampled queries.

    Only meaningful when every level has no intermediate powers; the
    reference model is rebuilt from the stored count arrays.
    """
    discounts = {
        k: DiscountParams.single(model.dstars[k]) for k in range(2, model.order + 1)
    }
    ref = NgramLM(model.vocab, model.order, "kn", model.count_arrays(), discounts)
    level = model.levels[model.order]
    rng = np.random.default_rng(seed)
    contexts = level.contexts[rng.integers(len(level.contexts), size=n_queries)]
    words = rng.integers(len(model.vocab), size=n_queries)
    return float(np.max(np.abs(model.score(words, contexts) - ref.score(words, contexts))))


def cmd_verify(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    t0 = last = time.perf_counter()
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

    check("normalization_sweep", _normalization_sweep(model, args.seed), 1e-8)
    if isinstance(model, PlreModel):
        check("normalization_observed", normalization_observed(model), 1e-8)
        for k in range(2, model.order + 1):
            # Rounding allowance: each word's marginal is aggregated from
            # nonnegative terms of total weight at most 1, and each sum on
            # the way takes about one term per observed order-k context at
            # most (a context, its slice column or its parent), so the
            # result rounds by about half an ulp of 1 per context at most.
            allowance = MARGINAL_ULPS * sys.float_info.epsilon * len(model.levels[k].totals)
            bound = marginal_error_bound(model, k)
            check(f"marginal_order_{k}", verify_marginal(model, k), bound + allowance)
        check("gamma_closed_form", model.check_gamma_closed_form(), 1e-12)
        check("local_discount_identity", model.check_local_constraints(), 1e-12)
        check("discount_bounds", model.check_discount_bounds(), 1e-12)
        if all(level.eta == 0 for level in model.levels.values()):
            check("kn_reduction", _kn_reduction_deviation(model, args.seed), 1e-10)
    passed = all(c["passed"] for c in checks)
    elapsed = time.perf_counter() - t0

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
        lines.append(f"timing: verify {elapsed:.2f}s")
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
    models: List[Tuple[TrainConfig, object]] = []
    for name, cfg in cfgs:
        t1 = time.perf_counter()
        model = _build_model(cfg, vocab, raw)
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
        models.append((cfg, model))
    best = min(range(len(rows)), key=lambda i: rows[i]["perplexity"])
    for i, row in enumerate(rows):
        row["best"] = i == best

    # Order sweep: at each order with both a plre entry and a classical
    # baseline, pit the best of each side against the other.
    sweep_pairs: Dict[int, Tuple[object, object]] = {}
    for order in sorted({cfg.order for _, cfg in cfgs}):
        here = [
            (rows[i]["perplexity"], rows[i]["smoother"], models[i][1])
            for i in range(len(rows))
            if rows[i]["order"] == order
        ]
        base = [(p, m) for p, s, m in here if s != "plre"]
        cand = [(p, m) for p, s, m in here if s == "plre"]
        if base and cand:
            sweep_pairs[order] = (min(base)[1], min(cand)[1])
    sweep = order_sweep(sweep_pairs, test) if sweep_pairs else []

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
