"""The traced benchmark (bench/run.py) wraps program functions by the names
their callers look them up by; every such name must still resolve and
return what the benchmark reads off it."""

import importlib.util
import sys
from pathlib import Path

from plre import baselines, corpus, ensemble

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_and_unwrap(monkeypatch, toy_corpus, tmp_path, capsys):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    run, spans = _load(monkeypatch, "run"), _load(monkeypatch, "spans")
    prog = run.import_program()
    originals = (corpus.count_ngrams, ensemble.compute_z, baselines.NgramLM.build)
    tracer = spans.Tracer()
    run.install_tracing(tracer, prog)
    try:
        _, vocab, enc = toy_corpus
        top = prog["corpus"].count_ngrams(enc, 3)
        model = prog["ensemble"].build_plre(top, vocab, ranks={2: (1,), 3: (4,)}, seed=0)
        prog["baselines"].NgramLM.build(vocab, {3: top}, "kn")
        path = tmp_path / "toy.plre"
        prog["container"].save_model(model, str(path))
        assert prog["cli"].main(["verify", "--model", str(path), "--json"]) == 0
    finally:
        tracer.unwrap()
    assert (corpus.count_ngrams, ensemble.compute_z, baselines.NgramLM.build) == originals

    named = {}
    for span in tracer.spans:
        named.setdefault(span["name"], []).append(span)
    [count] = named["corpus.count_ngrams"]
    assert count["types"] == len(top.entries) > 0
    assert sorted(s["level"] for s in named["ensemble.compute_z"]) == [2, 3]
    assert all(s["slices"] > 0 for s in named["ensemble.compute_z"])
    for name in (
        "corpus.adjusted_tables",
        "ensemble.build_plre",
        "ensemble.power_counts",
        "ensemble.compute_discounts",
        "baselines.NgramLM.build",
    ):
        assert named[name], name
    # the kn build derives its lower orders under its own span, where the
    # benchmark's wrap of baselines.adjusted_tables finds them
    [kn_build] = named["baselines.NgramLM.build"]
    parents = [s["parent"] for s in named["corpus.adjusted_tables"]]
    assert parents.count(kn_build["id"]) == 1
    # the traced verify metrics read these spans: one marginal check per
    # level, the bound, and PLRE's three local checks
    capsys.readouterr()
    [verify] = named["cli.main"]
    assert sorted(s["level"] for s in named["ensemble.verify_marginal"]) == [2, 3]
    assert len(named["ensemble.marginal_error_bound"]) == 2
    assert len(named["ensemble.local_check"]) == 3
    for name in (
        "ensemble.verify_marginal",
        "ensemble.marginal_error_bound",
        "ensemble.local_check",
    ):
        assert all(s["parent"] == verify["id"] for s in named[name]), name
