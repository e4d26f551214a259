"""End-to-end command-line behavior: exit codes, JSON contracts, files."""

import json

import jsonschema
import pytest

from plre.cli import _normalization_sweep, main
from plre.container import load_model, save_model
from plre.corpus import read_sentences
from plre.ensemble import build_plre
from plre.errors import EvalError
from plre.evaluation import perplexity

from conftest import write_corpus

TIMING_SCHEMA = {
    "type": "object",
    "required": ["counting", "factorization", "assembly", "total"],
    "properties": {k: {"type": "number", "minimum": 0} for k in
                   ("counting", "factorization", "assembly", "total")},
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
                "max_row_residual", "max_col_residual",
            ],
        },
    },
}

EVAL_SCHEMA = {
    "type": "object",
    "required": [
        "command", "model", "smoother", "order", "tokens", "oov",
        "oov_rate", "total_logprob", "perplexity",
    ],
    "properties": {
        "command": {"const": "eval"},
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
                "required": ["name", "max_violation", "tolerance", "passed"],
                "properties": {
                    "name": {"type": "string"},
                    "max_violation": {"type": "number"},
                    "tolerance": {"type": "number"},
                    "passed": {"type": "boolean"},
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

    def test_verbose_prints_timing(self, ws, tmp_path, capsys):
        out = tmp_path / "m.plre"
        main(["train", "--corpus", str(ws["train"]), "--model", str(out),
              "--smoother", "kn", "--order", "2", "--verbose"])
        assert "timing:" in capsys.readouterr().out

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

    def test_plre_model_runs_full_check_set(self, ws, capsys):
        code = main(["verify", "--model", str(ws["plre_model"]), "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        names = {c["name"] for c in report["checks"]}
        assert {
            "normalization_sweep", "marginal_order_2", "marginal_order_3",
            "gamma_closed_form", "local_discount_identity", "discount_bounds",
        } <= names
        assert all(c["passed"] for c in report["checks"])

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

    def test_tampered_gamma_table_fails_verification(self, ws, tmp_path, capsys):
        model = load_model(str(ws["plre_model"]))
        level = model.levels[3]
        level.gammas = level.gammas.copy()
        level.gammas[0, 0] += 0.05
        bad = tmp_path / "tampered.plre"
        save_model(model, str(bad))
        code = main(["verify", "--model", str(bad), "--json"])
        assert code == 7
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is False
        assert any(not c["passed"] for c in report["checks"])

    def test_nan_gamma_fails_every_check_that_reads_it(self, toy_corpus, toy_top3):
        # a NaN must not vanish into a max(): the checks that read gammas
        # fail, and scoring refuses the NaN probability
        sents, vocab, _ = toy_corpus
        model = build_plre(toy_top3, vocab, seed=0)
        assert model.check_gamma_closed_form() <= 1e-12
        level = model.levels[2]
        ctx = list(level.context_totals).index((3,))
        level.gammas[1, ctx] = float("nan")
        assert not model.check_gamma_closed_form() <= 1e-12
        assert not model.check_local_constraints() <= 1e-12
        assert not _normalization_sweep(model, 0) <= 1e-8
        with pytest.raises(EvalError):
            perplexity(model, sents)

    def test_marginal_error_above_rounding_fails(
        self, toy_corpus, toy_top3, tmp_path, capsys
    ):
        # moving one top numerator shifts the order-3 marginal of its word
        # by delta / level total, ~1e-10: far below the old flat 1e-6 slack
        _, vocab, _ = toy_corpus
        model = build_plre(toy_top3, vocab, ranks={2: (1,), 3: (1,)}, seed=0)
        level = model.levels[3]
        ctx = int(level.totals.argmax())
        level.top[level.ctx_start[ctx]] += 1e-10 * level.totals.sum()
        path = tmp_path / "shifted.plre"
        save_model(model, str(path))
        code = main(["verify", "--model", str(path), "--json"])
        assert code == 7
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
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

    def test_mixed_unk_thresholds_rejected(self, ws, tmp_path, capsys):
        cfg = tmp_path / "t9.cfg"
        cfg.write_text("smoother = kn\norder = 2\nunk_threshold = 9\n")
        code = main(["compare", "--corpus", str(ws["train"]), "--test",
                     str(ws["test"]), "--config", str(ws["root"] / "kn.cfg"),
                     "--config", str(cfg)])
        assert code == 3
        assert "unk_threshold" in capsys.readouterr().err


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
