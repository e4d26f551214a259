"""End-to-end command-line behavior: exit codes, JSON contracts, files."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import plre
from plre import cli
from plre.baselines import NgramLM
from plre.cli import main, run_checks
from plre.config import parse_config
from plre.container import load_model
from plre.corpus import count_all_orders, read_sentences
from plre.ensemble import DEFAULT_RANK, build_plre
from plre.errors import EvalError
from plre.evaluation import EvalReport, perplexity
from plre.verify import normalization_observed, normalization_sweep, verify_marginal

from conftest import write_corpus

BUILD_STAGES = ("counting", "adjusted_tables", "discounts", "slices", "nmf")

TIMING_SCHEMA = {
    "type": "object",
    "required": ["counting", "build", "factorization", "stages", "assembly", "total"],
    "properties": {
        **{k: {"type": "number", "minimum": 0} for k in
           ("counting", "build", "factorization", "assembly", "total")},
        "stages": {
            "type": "object",
            "required": list(BUILD_STAGES),
            "additionalProperties": False,
            "properties": {k: {"type": "number", "minimum": 0} for k in BUILD_STAGES},
        },
    },
}

TRAIN_SCHEMA = {
    "type": "object",
    "required": [
        "command", "model", "smoother", "order", "vocab_size",
        "train_tokens", "seed", "timing", "warnings",
    ],
    "properties": {
        "command": {"const": "train"},
        "model": {"type": "string"},
        "smoother": {"enum": ["mle", "abs", "kn", "mkn", "plre"]},
        "order": {"type": "integer", "minimum": 1},
        "vocab_size": {"type": "integer", "minimum": 4},
        "train_tokens": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer"},
        "timing": TIMING_SCHEMA,
        "warnings": {"type": "array", "items": {"type": "string"}},
        "convergence": {
            "type": "object",
            "required": [
                "slices", "converged", "max_iterations", "max_final_gkl",
                "max_row_residual", "max_col_residual", "levels",
            ],
            "properties": {
                "levels": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "object",
                        "required": [
                            "order", "step", "slices", "ranks", "iterations_p50",
                            "iterations_max", "converged", "max_row_residual",
                        ],
                        "additionalProperties": False,
                        "properties": {
                            "order": {"type": "integer", "minimum": 2},
                            "step": {"type": "integer", "minimum": 1},
                            "slices": {
                                "type": "object",
                                "required": ["rank1", "iterative"],
                                "additionalProperties": False,
                                "properties": {
                                    kind: {"type": "integer", "minimum": 0}
                                    for kind in ("rank1", "iterative")
                                },
                            },
                            "ranks": {
                                "type": "object",
                                "minProperties": 1,
                                "patternProperties": {
                                    "^[1-9][0-9]*$": {"type": "integer", "minimum": 1}
                                },
                                "additionalProperties": False,
                            },
                            "iterations_p50": {"type": "number", "minimum": 0},
                            "iterations_max": {"type": "integer", "minimum": 0},
                            "converged": {"type": "integer", "minimum": 0},
                            "max_row_residual": {"type": "number", "minimum": 0},
                        },
                    },
                },
            },
        },
    },
}

EVAL_SCHEMA = {
    "type": "object",
    "required": [
        "command", "model", "smoother", "order", "tokens", "oov",
        "oov_rate", "total_logprob", "perplexity", "distinct_queries",
        "distinct_contexts", "context_orders",
    ],
    "properties": {
        "command": {"const": "eval"},
        "distinct_queries": {"type": "integer", "minimum": 1},
        # distinct full-length contexts, each resolved to its state once
        "distinct_contexts": {"type": "integer", "minimum": 1},
        # tokens by the order of their deepest observed context, "1".."n"
        "context_orders": {
            "type": "object",
            "patternProperties": {"^[1-9][0-9]*$": {"type": "integer", "minimum": 0}},
            "additionalProperties": False,
        },
        "tokens": {"type": "integer", "minimum": 1},
        "oov": {"type": "integer", "minimum": 0},
        "oov_rate": {"type": "number", "minimum": 0, "maximum": 1},
        "total_logprob": {"type": "number", "maximum": 0},
        "perplexity": {"type": "number", "minimum": 1},
    },
}

VERIFY_SCHEMA = {
    "type": "object",
    "required": ["command", "model", "smoother", "order", "checks", "passed"],
    "properties": {
        "command": {"const": "verify"},
        "passed": {"type": "boolean"},
        "checks": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["name", "max_violation", "tolerance", "passed", "seconds"],
                "properties": {
                    "name": {"type": "string"},
                    "max_violation": {"type": "number"},
                    "tolerance": {"type": "number"},
                    "passed": {"type": "boolean"},
                    "seconds": {"type": "number", "minimum": 0},
                },
            },
        },
    },
}

COMPARE_SCHEMA = {
    "type": "object",
    "required": ["command", "rows", "sweep"],
    "properties": {
        "command": {"const": "compare"},
        "rows": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": [
                    "name", "smoother", "order", "perplexity",
                    "oov_rate", "train_seconds", "best",
                ],
            },
        },
        "sweep": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "order", "baseline_perplexity",
                    "candidate_perplexity", "improvement_pct",
                ],
            },
        },
    },
}


@pytest.fixture(scope="module")
def ws(tmp_path_factory, tiny_sentences):
    """Shared workspace: corpora, configs, and two pre-trained containers."""
    root = tmp_path_factory.mktemp("cli")
    train = root / "train.txt"
    test = root / "test.txt"
    write_corpus(str(train), tiny_sentences)
    write_corpus(str(test), tiny_sentences[:6])

    (root / "kn.cfg").write_text("smoother = kn\norder = 3\n")
    (root / "mkn.cfg").write_text("smoother = mkn\norder = 3\n")
    (root / "plre.cfg").write_text(
        "smoother = plre\norder = 3\nseed = 0\nrank = 2\n"
    )

    kn_model = root / "kn.plre"
    plre_model = root / "plre.plre"
    assert main(["train", "--corpus", str(train), "--model", str(kn_model),
                 "--config", str(root / "kn.cfg")]) == 0
    assert main(["train", "--corpus", str(train), "--model", str(plre_model),
                 "--config", str(root / "plre.cfg")]) == 0
    return {
        "root": root, "train": train, "test": test,
        "kn_model": kn_model, "plre_model": plre_model,
    }


class TestTrain:
    def test_text_mode_reports_outcome(self, ws, tmp_path, capsys):
        out = tmp_path / "m.plre"
        code = main(["train", "--corpus", str(ws["train"]), "--model", str(out),
                     "--smoother", "mkn", "--order", "2"])
        captured = capsys.readouterr()
        assert code == 0
        assert "trained mkn order 2" in captured.out
        assert out.exists()

    def test_json_report_schema(self, ws, tmp_path, capsys):
        out = tmp_path / "m.plre"
        code = main(["train", "--corpus", str(ws["train"]), "--model", str(out),
                     "--config", str(ws["root"] / "plre.cfg"), "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, TRAIN_SCHEMA)
        assert "convergence" in report  # iterative factorizations ran
        conv = report["convergence"]
        levels = conv["levels"]
        assert sum(sum(lv["slices"].values()) for lv in levels) == conv["slices"]
        assert max(lv["iterations_max"] for lv in levels) == conv["max_iterations"]
        assert max(lv["max_row_residual"] for lv in levels) == conv["max_row_residual"]
        for lv in levels:
            assert lv["converged"] <= lv["slices"]["iterative"]
            assert lv["iterations_p50"] <= lv["iterations_max"]
            assert sum(lv["ranks"].values()) == sum(lv["slices"].values())
            assert lv["ranks"].get("1", 0) == lv["slices"]["rank1"]
        timing, stages = report["timing"], report["timing"]["stages"]
        assert timing["factorization"] == stages["slices"] + stages["nmf"] > 0.0
        assert sum(stages[k] for k in BUILD_STAGES[1:]) <= timing["build"]
        assert 0.0 < stages["counting"] <= timing["counting"]

    @pytest.mark.parametrize("smoother", ["mle", "kn"])
    def test_baseline_json_report_times_its_stages(self, ws, tmp_path, capsys, smoother):
        out = tmp_path / "m.plre"
        assert main(["train", "--corpus", str(ws["train"]), "--model", str(out),
                     "--smoother", smoother, "--order", "3", "--json"]) == 0
        timing = json.loads(capsys.readouterr().out)["timing"]
        jsonschema.validate(timing, TIMING_SCHEMA)
        stages = timing["stages"]
        assert stages["discounts"] > 0.0 and stages["slices"] == stages["nmf"] == 0.0
        assert (stages["adjusted_tables"] > 0.0) == (smoother == "kn")

    def test_verbose_prints_one_line_per_chain_step(self, ws, tmp_path, capsys):
        out = tmp_path / "m.plre"
        assert main(["train", "--corpus", str(ws["train"]), "--model", str(out),
                     "--config", str(ws["root"] / "plre.cfg"), "--verbose"]) == 0
        lines = capsys.readouterr().out.splitlines()
        steps = [line for line in lines if line.startswith("  order ")]
        model = load_model(str(out))
        assert len(steps) == sum(len(lv.z_tables) for lv in model.levels.values())
        assert all("iterative" in line and "row residual" in line for line in steps)

    def test_verbose_prints_timing(self, ws, tmp_path, capsys):
        out = tmp_path / "m.plre"
        main(["train", "--corpus", str(ws["train"]), "--model", str(out),
              "--smoother", "kn", "--order", "2", "--verbose"])
        out = capsys.readouterr().out
        assert "timing:" in out and "stages: counting" in out

    def test_same_seed_gives_byte_identical_containers(self, ws, tmp_path):
        outs = []
        for name in ("a.plre", "b.plre"):
            out = tmp_path / name
            assert main(["train", "--corpus", str(ws["train"]), "--model",
                         str(out), "--config", str(ws["root"] / "plre.cfg"),
                         "--seed", "9"]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_clamp_warning_lands_on_stderr(self, ws, tmp_path, capsys):
        out = tmp_path / "m.plre"
        code = main(["train", "--corpus", str(ws["train"]), "--model", str(out),
                     "--smoother", "plre", "--order", "2", "--rank", "50000"])
        captured = capsys.readouterr()
        assert code == 0
        assert "clamped" in captured.err

    def test_flags_override_config_file(self, ws, tmp_path, capsys):
        out = tmp_path / "m.plre"
        main(["train", "--corpus", str(ws["train"]), "--model", str(out),
              "--config", str(ws["root"] / "kn.cfg"), "--order", "2", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert report["order"] == 2
        assert report["smoother"] == "kn"

    def test_container_is_small_and_loads(self, ws):
        assert ws["kn_model"].stat().st_size < 1 << 20
        model = load_model(str(ws["kn_model"]))
        assert model.smoother == "kn"


class TestEval:
    def test_json_report_schema_and_value(self, ws, capsys):
        code = main(["eval", "--model", str(ws["kn_model"]),
                     "--corpus", str(ws["test"]), "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, EVAL_SCHEMA)
        model = load_model(str(ws["kn_model"]))
        direct = perplexity(model, read_sentences(str(ws["test"])))
        assert report["perplexity"] == direct.perplexity
        assert report["tokens"] == direct.tokens
        assert report["distinct_queries"] == direct.distinct <= direct.tokens
        assert report["distinct_contexts"] == direct.contexts <= direct.tokens
        orders = report["context_orders"]
        assert list(orders) == [str(k) for k in range(1, report["order"] + 1)]
        assert list(orders.values()) == direct.context_orders
        assert sum(orders.values()) == report["tokens"]

    def test_verbose_prints_distinct_queries(self, ws, capsys):
        assert main(["eval", "--model", str(ws["kn_model"]),
                     "--corpus", str(ws["test"]), "--verbose"]) == 0
        model = load_model(str(ws["kn_model"]))
        direct = perplexity(model, read_sentences(str(ws["test"])))
        out = capsys.readouterr().out
        assert (
            f"queries: {direct.distinct} distinct (state, word) of {direct.tokens} scored, "
            f"{direct.contexts} distinct contexts resolved"
        ) in out
        hist = " ".join(f"{k}:{c}" for k, c in enumerate(direct.context_orders, 1))
        assert f"context orders: {hist}" in out

    def test_training_data_perplexity_is_sandwiched(self, ws, tmp_path, capsys):
        # on its own training data, interpolated KN cannot beat the
        # unsmoothed MLE charge and cannot be worse than uniform-over-V
        mle_out = tmp_path / "mle.plre"
        main(["train", "--corpus", str(ws["train"]), "--model", str(mle_out),
              "--smoother", "mle", "--order", "3"])
        capsys.readouterr()
        main(["eval", "--model", str(mle_out), "--corpus", str(ws["train"]),
              "--json"])
        mle_ppl = json.loads(capsys.readouterr().out)["perplexity"]
        main(["eval", "--model", str(ws["kn_model"]), "--corpus",
              str(ws["train"]), "--json"])
        report = json.loads(capsys.readouterr().out)
        kn_ppl = report["perplexity"]
        vocab_size = len(load_model(str(ws["kn_model"])).vocab)
        assert mle_ppl <= kn_ppl <= vocab_size

    def test_text_mode_mentions_perplexity(self, ws, capsys):
        main(["eval", "--model", str(ws["kn_model"]), "--corpus", str(ws["test"])])
        assert "perplexity" in capsys.readouterr().out

    def test_reserved_token_in_test_data_exits_8(self, ws, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("the <s> cat\n")
        code = main(["eval", "--model", str(ws["kn_model"]), "--corpus", str(bad)])
        assert code == 8
        assert "error" in capsys.readouterr().err


class TestVerify:
    def test_baseline_model_passes(self, ws, capsys):
        code = main(["verify", "--model", str(ws["kn_model"]), "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, VERIFY_SCHEMA)
        assert report["passed"] is True
        names = [c["name"] for c in report["checks"]]
        assert "normalization_sweep" in names

    @pytest.mark.parametrize("smoother", ["mle", "abs", "kn", "mkn"])
    def test_every_smoother_passes_observed_normalization(
        self, ws, smoother, tmp_path, capsys
    ):
        path = tmp_path / f"{smoother}.plre"
        assert main(["train", "--corpus", str(ws["train"]), "--model", str(path),
                     "--smoother", smoother, "--order", "3"]) == 0
        capsys.readouterr()
        assert main(["verify", "--model", str(path), "--json"]) == 0
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert checks["normalization_observed"]["passed"]
        assert checks["normalization_observed"]["max_violation"] <= 1e-12

    @pytest.mark.parametrize("smoother", ["mle", "abs", "kn", "mkn"])
    def test_an_order_one_model_runs_the_two_normalization_checks(
        self, ws, smoother, tmp_path, capsys
    ):
        # an order-1 model is its base distribution: no level, so no check
        # beyond the two normalization ones applies
        path = tmp_path / f"{smoother}1.plre"
        assert main(["train", "--corpus", str(ws["train"]), "--model", str(path),
                     "--smoother", smoother, "--order", "1"]) == 0
        capsys.readouterr()
        assert main(["verify", "--model", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, VERIFY_SCHEMA)
        assert report["order"] == 1 and report["passed"] is True
        names = [c["name"] for c in report["checks"]]
        assert names == ["normalization_sweep", "normalization_observed"]

    def test_nan_baseline_gamma_fails_observed_normalization(self, toy_corpus):
        _, vocab, enc = toy_corpus
        lm = NgramLM.build(vocab, count_all_orders(enc, 3), "abs")
        assert normalization_observed(lm) <= 1e-12
        lm.levels[2].gammas[0, 0] = float("nan")
        assert not normalization_observed(lm) <= 1e-8

    def test_a_second_verify_in_process_reports_the_same(self, ws, capsys):
        # the parser is built once per process and reused
        reports = []
        for _ in range(2):
            assert main(["verify", "--model", str(ws["plre_model"]), "--json"]) == 0
            report = json.loads(capsys.readouterr().out)
            for check in report["checks"]:
                check.pop("seconds")
            reports.append(report)
        assert reports[0] == reports[1]
        assert cli._parser() is cli._parser()

    def test_plre_model_runs_full_check_set(self, ws, capsys):
        code = main(["verify", "--model", str(ws["plre_model"]), "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, VERIFY_SCHEMA)
        names = {c["name"] for c in report["checks"]}
        assert {
            "normalization_sweep", "normalization_observed", "marginal_order_2",
            "marginal_order_3", "gamma_closed_form", "local_discount_identity",
            "discount_bounds",
        } <= names
        assert all(c["passed"] for c in report["checks"])

    def test_verbose_prints_each_check_time(self, ws, capsys):
        assert main(["verify", "--model", str(ws["plre_model"]), "--verbose"]) == 0
        lines = capsys.readouterr().out.splitlines()
        marginal = next(line for line in lines if line.startswith("marginal_order_2"))
        assert marginal.endswith("s") and "PASS" in marginal

    def test_eta_zero_model_gets_kn_reduction_check(self, ws, tmp_path, capsys):
        cfg = tmp_path / "eta0.cfg"
        cfg.write_text("smoother = plre\norder = 3\npower.2 =\npower.3 =\n")
        out = tmp_path / "eta0.plre"
        main(["train", "--corpus", str(ws["train"]), "--model", str(out),
              "--config", str(cfg)])
        capsys.readouterr()
        code = main(["verify", "--model", str(out), "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        names = [c["name"] for c in report["checks"]]
        assert "kn_reduction" in names

    @pytest.mark.parametrize("rank", ["1", "2"])
    def test_model_trained_without_unk_verifies(self, ws, tmp_path, capsys, rank):
        # threshold 0 keeps every type, so training produces no <unk> and
        # the base floors it; the marginal bound carries the floor's shift
        path = tmp_path / "no-unk.plre"
        assert main(["train", "--corpus", str(ws["train"]), "--model", str(path),
                     "--smoother", "plre", "--order", "3", "--rank", rank,
                     "--unk-threshold", "0"]) == 0
        assert load_model(str(path)).base_counts[0] == 0
        capsys.readouterr()
        assert main(["verify", "--model", str(path), "--json"]) == 0
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert checks["marginal_order_2"]["max_violation"] > 1e-9

    def test_two_word_corpus_without_unk_verifies(self, tmp_path, capsys):
        corpus, path = tmp_path / "aa.txt", tmp_path / "aa.plre"
        corpus.write_text("a a\na a\n")
        assert main(["train", "--corpus", str(corpus), "--model", str(path),
                     "--smoother", "plre", "--order", "3", "--unk-threshold", "0"]) == 0
        assert main(["verify", "--model", str(path)]) == 0

    def test_tampered_gamma_table_fails_verification(self, ws):
        # a container cannot carry a gamma (the level derives it), so the
        # checks run on the model in memory
        model = load_model(str(ws["plre_model"]))
        assert all(c["passed"] for c in run_checks(model, 0))
        model.levels[3].gammas[0, 0] += 0.05
        assert any(not c["passed"] for c in run_checks(model, 0))

    def test_nan_gamma_fails_every_check_that_reads_it(self, toy_corpus, toy_top3):
        # a NaN must not vanish into a max(): the checks that read gammas
        # fail, and scoring refuses the NaN probability
        sents, vocab, _ = toy_corpus
        model = build_plre(toy_top3, vocab, seed=0)
        assert model.check_gamma_closed_form() <= 1e-12
        # poison a bigram context that one of the sweep's random contexts
        # reaches, recorded by wrapping the state lookup
        swept = []
        states = model.states
        model.states = lambda contexts: swept.append(contexts) or states(contexts)
        assert normalization_sweep(model, 0) <= 1e-8
        del model.states
        level = model.levels[2]
        # a bigram context's state is its row in level 2 plus 1
        states = model.states(np.concatenate(swept)[:, :1])
        assert states.any()
        level.gammas[1, states[states > 0][0] - 1] = float("nan")
        assert not model.check_gamma_closed_form() <= 1e-12
        assert not model.check_local_constraints() <= 1e-12
        assert not normalization_sweep(model, 0) <= 1e-8
        assert not normalization_observed(model) <= 1e-8
        assert not verify_marginal(model, 2) <= 1e-8
        with pytest.raises(EvalError):
            perplexity(model, sents)

    def test_nan_denominator_fails_marginal(self, toy_corpus, toy_top3):
        # the NaN has to survive the segment sums that spread a context's
        # share over its slice's factors
        _, vocab, _ = toy_corpus
        model = build_plre(toy_top3, vocab, seed=0)
        z = model.levels[3].z_tables[0]
        assert verify_marginal(model, 3) <= 1e-6
        # every context is a column of its interior's slice
        z.denominators[0] = float("nan")
        assert not verify_marginal(model, 3) <= 1e-6

    def test_top_numerator_outside_sweep_sample_fails_observed_normalization(
        self, toy_corpus, toy_top3
    ):
        # the sweep scores random contexts; the observed-context check sums
        # every observed one
        _, vocab, _ = toy_corpus
        model = build_plre(toy_top3, vocab, seed=0)
        swept = set()
        states = model.states
        model.states = lambda contexts: (
            swept.update(map(tuple, contexts.tolist())) or states(contexts)
        )
        assert normalization_sweep(model, 0) <= 1e-8
        del model.states
        level = model.levels[3]
        ctx = next(
            i for i, h in enumerate(level.context_totals) if h not in swept
        )
        level.top[level.ctx_start[ctx]] += 1e-3 * level.totals[ctx]
        checks = {c["name"]: c for c in run_checks(model, 0)}
        assert checks["normalization_sweep"]["passed"]
        assert not checks["normalization_observed"]["passed"]

    def test_marginal_error_above_rounding_fails(self, toy_corpus, toy_top3):
        # moving one top numerator shifts the order-3 marginal of its word
        # by delta / level total, ~1e-10: far below the old flat 1e-6 slack
        _, vocab, _ = toy_corpus
        model = build_plre(toy_top3, vocab, ranks={2: (1,), 3: (1,)}, seed=0)
        level = model.levels[3]
        ctx = int(level.totals.argmax())
        level.top[level.ctx_start[ctx]] += 1e-10 * level.totals.sum()
        checks = {c["name"]: c for c in run_checks(model, 0)}
        marginal = checks["marginal_order_3"]
        assert not marginal["passed"]
        assert 5e-11 < marginal["max_violation"] < 1e-6
        assert checks["marginal_order_2"]["passed"]


class TestCompare:
    def test_three_way_comparison(self, ws, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        code = main([
            "compare", "--corpus", str(ws["train"]), "--test", str(ws["test"]),
            "--config", str(ws["root"] / "kn.cfg"),
            "--config", str(ws["root"] / "mkn.cfg"),
            "--config", str(ws["root"] / "plre.cfg"),
            "--csv", str(csv_path), "--json",
        ])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, COMPARE_SCHEMA)
        assert [r["name"] for r in report["rows"]] == ["kn", "mkn", "plre"]
        assert sum(r["best"] for r in report["rows"]) == 1
        assert len(report["sweep"]) == 1
        assert report["sweep"][0]["order"] == 3

        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "order,baseline_perplexity,candidate_perplexity,improvement_pct"
        cells = lines[1].split(",")
        assert cells[0] == "3"
        sweep = report["sweep"][0]
        assert float(cells[1]) == pytest.approx(sweep["baseline_perplexity"], abs=5e-7)
        assert float(cells[3]) == pytest.approx(sweep["improvement_pct"], abs=5e-7)

    def test_sweep_csv_is_reproducible(self, ws, tmp_path, capsys):
        contents = []
        for name in ("one.csv", "two.csv"):
            csv_path = tmp_path / name
            assert main([
                "compare", "--corpus", str(ws["train"]), "--test", str(ws["test"]),
                "--config", str(ws["root"] / "kn.cfg"),
                "--config", str(ws["root"] / "plre.cfg"),
                "--csv", str(csv_path),
            ]) == 0
            contents.append(csv_path.read_bytes())
        capsys.readouterr()
        assert contents[0] == contents[1]

    def test_single_config_has_empty_sweep(self, ws, capsys):
        code = main(["compare", "--corpus", str(ws["train"]), "--test",
                     str(ws["test"]), "--config", str(ws["root"] / "kn.cfg"),
                     "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["sweep"] == []
        assert report["rows"][0]["best"] is True

    def test_each_model_is_scored_once(self, ws, capsys, monkeypatch):
        # the sweep is read off the rows: no model is scored a second time
        scored = []
        monkeypatch.setattr(
            cli, "perplexity", lambda model, test: scored.append(model) or perplexity(model, test)
        )
        assert main([
            "compare", "--corpus", str(ws["train"]), "--test", str(ws["test"]),
            "--config", str(ws["root"] / "kn.cfg"),
            "--config", str(ws["root"] / "mkn.cfg"),
            "--config", str(ws["root"] / "plre.cfg"), "--json",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len({id(model) for model in scored}) == len(scored) == 3
        ppl = {row["smoother"]: row["perplexity"] for row in report["rows"]}
        [sweep] = report["sweep"]
        assert sweep["baseline_perplexity"] == min(ppl["kn"], ppl["mkn"])
        assert sweep["candidate_perplexity"] == ppl["plre"]
        assert sweep["improvement_pct"] == 100.0 * (
            sweep["baseline_perplexity"] - ppl["plre"]
        ) / sweep["baseline_perplexity"]

    def test_equal_perplexities_show_zero_improvement(self, ws, capsys, monkeypatch):
        monkeypatch.setattr(cli, "perplexity", lambda model, test: EvalReport(10, 0, -20.0, 7.0))
        assert main([
            "compare", "--corpus", str(ws["train"]), "--test", str(ws["test"]),
            "--config", str(ws["root"] / "kn.cfg"),
            "--config", str(ws["root"] / "plre.cfg"), "--json",
        ]) == 0
        [sweep] = json.loads(capsys.readouterr().out)["sweep"]
        assert sweep["improvement_pct"] == 0.0
        assert sweep["baseline_perplexity"] == sweep["candidate_perplexity"] == 7.0

    def test_sweep_rows_sorted_by_order(self, ws, tmp_path, capsys):
        configs = []
        for smoother, order in (("plre", 3), ("kn", 3), ("plre", 2), ("mkn", 2)):
            cfg = tmp_path / f"{smoother}{order}.cfg"
            cfg.write_text(f"smoother = {smoother}\norder = {order}\n")
            configs += ["--config", str(cfg)]
        assert main([
            "compare", "--corpus", str(ws["train"]), "--test", str(ws["test"]),
            *configs, "--json",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [row["order"] for row in report["sweep"]] == [2, 3]

    def test_mixed_unk_thresholds_rejected(self, ws, tmp_path, capsys):
        cfg = tmp_path / "t9.cfg"
        cfg.write_text("smoother = kn\norder = 2\nunk_threshold = 9\n")
        code = main(["compare", "--corpus", str(ws["train"]), "--test",
                     str(ws["test"]), "--config", str(ws["root"] / "kn.cfg"),
                     "--config", str(cfg)])
        assert code == 3
        assert "unk_threshold" in capsys.readouterr().err


class TestConfig:
    def test_readme_config_block_parses(self):
        # a key the parser does not know cannot stay documented
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        [block] = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
        cfg = parse_config(block)
        assert (cfg.smoother, cfg.order, cfg.powers, cfg.ranks) == (
            "plre", 3, {2: (0.6, 0.3)}, {2: (4, 4)}
        )

    def test_power_replaces_every_default_chain(self):
        # orders >= 4 keep their empty default chain unless power.K is set
        cfg = parse_config("order = 5\npower = 0.6, 0.3\npower.5 = 0.4\n")
        assert cfg.resolved_powers() == {2: (0.6, 0.3), 3: (0.6, 0.3), 4: (), 5: (0.4,)}
        r = DEFAULT_RANK
        assert cfg.resolved_rank_values() == {2: (r, r), 3: (r, r), 4: (), 5: (r,)}

    def test_flags_parse_like_config_keys(self, tmp_path):
        # a flag overrides its config key, parsed by the same code
        text = "order = 2\npower = 0.6 0.3\nrank = 3\ndstar = 0.4\nseed = 5\nthreads = 2\n"
        path = tmp_path / "c.cfg"
        path.write_text("smoother = kn\nunk_threshold = 4\n")
        args = cli._parser().parse_args([
            "train", "--corpus", "x", "--model", "y", "--config", str(path),
            "--smoother", "plre", "--order", "2", "--power", "0.6", "0.3", "--rank", "3",
            "--dstar", "0.4", "--seed", "5", "--threads", "2", "--unk-threshold", "1",
        ])
        assert cli._load_cfg(args, args.config) == parse_config(text)


class TestExitCodes:
    def test_no_command_is_usage_error(self):
        assert main([]) == 2

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert main(["train", "--model", "x.plre"]) == 2
        capsys.readouterr()

    def test_unknown_flag_is_usage_error(self, ws, capsys):
        assert main(["eval", "--model", str(ws["kn_model"]),
                     "--corpus", str(ws["test"]), "--frobnicate"]) == 2
        capsys.readouterr()

    def test_bad_config_value_exits_3(self, ws, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("smoother = katz\n")
        assert main(["train", "--corpus", str(ws["train"]),
                     "--model", str(tmp_path / "m.plre"),
                     "--config", str(cfg)]) == 3
        capsys.readouterr()

    def test_bad_dstar_flag_exits_3(self, ws, tmp_path, capsys):
        assert main(["train", "--corpus", str(ws["train"]),
                     "--model", str(tmp_path / "m.plre"),
                     "--smoother", "plre", "--dstar", "huge"]) == 3
        capsys.readouterr()

    # A value that does not parse names its flag; one that parses but is out
    # of range names its setting, as from a config file.
    @pytest.mark.parametrize("flag,value,named", [
        ("--order", "three", "--order 'three'"), ("--order", "2.5", "--order '2.5'"),
        ("--seed", "x", "--seed 'x'"), ("--unk-threshold", "-", "--unk-threshold '-'"),
        ("--power", "0.6 abc", "--power '0.6 abc'"), ("--dstar", "huge", "--dstar 'huge'"),
        ("--threads", "0", "threads must be"), ("--power", "0.3 0.6", "powers must"),
        ("--dstar", "1.5", "dstar must be"),
    ])
    def test_bad_flag_value_exits_3_and_names_it(
        self, ws, tmp_path, capsys, flag, value, named
    ):
        assert main(["train", "--corpus", str(ws["train"]),
                     "--model", str(tmp_path / "m.plre"), flag, *value.split()]) == 3
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "nan", "inf"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_malformed_rank_exits_3(self, ws, tmp_path, capsys, via, value):
        cfg = tmp_path / "rank.cfg"
        cfg.write_text(f"rank = {value}\n")
        how = ["--rank", value] if via == "flag" else ["--config", str(cfg)]
        assert main(["train", "--corpus", str(ws["train"]),
                     "--model", str(tmp_path / "m.plre"), *how]) == 3
        assert "rank must be" in capsys.readouterr().err

    # The NMF settings have no flags: a config file is their only way in.
    # nmf.eps is no setting: the updates' division guard is a constant.
    @pytest.mark.parametrize("key,value", [
        ("max_iters", "-5"), ("max_iters", "0"), ("rel_tol", "-1"), ("rel_tol", "nan"),
        ("rel_tol", "inf"), ("eps", "1e-12"),
    ])
    def test_malformed_nmf_setting_exits_3(self, ws, tmp_path, capsys, key, value):
        cfg = tmp_path / "nmf.cfg"
        cfg.write_text(f"nmf.{key} = {value}\n")
        assert main(["train", "--corpus", str(ws["train"]),
                     "--model", str(tmp_path / "m.plre"), "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        if key == "eps":
            assert "unknown config key 'nmf.eps'" in err
        else:
            assert f"nmf.{key} must be" in err

    def test_empty_corpus_exits_4(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("\n\n")
        assert main(["train", "--corpus", str(empty),
                     "--model", str(tmp_path / "m.plre"),
                     "--smoother", "kn"]) == 4
        capsys.readouterr()

    def test_missing_corpus_exits_5(self, tmp_path, capsys):
        assert main(["train", "--corpus", str(tmp_path / "nope.txt"),
                     "--model", str(tmp_path / "m.plre"),
                     "--smoother", "kn"]) == 5
        capsys.readouterr()

    def test_unwritable_model_path_exits_5(self, ws, tmp_path, capsys):
        assert main(["train", "--corpus", str(ws["train"]),
                     "--model", str(tmp_path / "no" / "dir" / "m.plre"),
                     "--smoother", "kn", "--order", "2"]) == 5
        capsys.readouterr()

    def test_corrupt_container_exits_6(self, ws, tmp_path, capsys):
        junk = tmp_path / "junk.plre"
        junk.write_bytes(b"not a container")
        assert main(["eval", "--model", str(junk),
                     "--corpus", str(ws["test"])]) == 6
        capsys.readouterr()

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.startswith("plre ")


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_commands_in_their_own_process_end_with_one_strict_json_line(tmp_path, toy_corpus):
    # The entry point as a user runs it: nothing on stderr, and the last
    # line of stdout is the whole report, with no NaN or Infinity in it.
    sentences = toy_corpus[0]
    train, test, model = tmp_path / "train.txt", tmp_path / "test.txt", tmp_path / "toy.plre"
    write_corpus(str(train), sentences[:200])
    write_corpus(str(test), sentences[200:])
    src = str(Path(plre.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for args in (
        ["train", "--corpus", str(train), "--model", str(model), "--smoother", "plre", "--order", "3"],
        ["eval", "--model", str(model), "--corpus", str(test)],
        ["verify", "--model", str(model)],
    ):
        done = subprocess.run(
            [sys.executable, "-m", "plre.cli", *args, "--json"],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        report = json.loads(done.stdout.splitlines()[-1], parse_constant=_no_constant)
        assert report["command"] == args[0]


def test_train_writes_the_same_bytes_on_any_thread_count(tmp_path, toy_corpus):
    # Two processes with different hash seeds and thread counts, on a
    # config with an iterative slice: the thread count cannot change the
    # model, so it must not change the container either.
    train = tmp_path / "train.txt"
    write_corpus(str(train), toy_corpus[0][:200])
    src = str(Path(plre.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    blobs = []
    for hash_seed, threads in (("0", "1"), ("1", "3")):
        model = tmp_path / f"threads-{threads}.plre"
        done = subprocess.run(
            [sys.executable, "-m", "plre.cli", "train", "--corpus", str(train),
             "--model", str(model), "--smoother", "plre", "--order", "3", "--rank", "4",
             "--seed", "1", "--threads", threads, "--json"],
            capture_output=True, text=True, timeout=300,
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed),
        )
        assert done.returncode == 0, done.stderr
        levels = json.loads(done.stdout.splitlines()[-1])["convergence"]["levels"]
        assert sum(lv["slices"]["iterative"] for lv in levels) > 0
        blobs.append(model.read_bytes())
    assert blobs[0] == blobs[1]


def test_readme_verify_block_lists_the_checks_run_checks_gives(toy_plre3):
    # The quick start's `plre verify` output, check by check, in order.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("plre verify --model demo.plre\n```\n\n```\n", 1)[1].split("```", 1)[0]
    names = [line.split()[0] for line in block.splitlines() if not line.startswith("verify:")]
    assert names == [c["name"] for c in run_checks(toy_plre3, seed=0)]
