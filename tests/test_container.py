"""Binary model container: round-trip fidelity and corruption handling."""

import hashlib
import json
import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from plre.baselines import NgramLM
from plre.cli import main
from plre.container import FORMAT_VERSION, load_model, save_model
from plre.corpus import adjusted_tables, count_all_orders, count_ngrams
from plre.ensemble import build_plre
from plre.errors import ContainerError
from plre.evaluation import perplexity

from conftest import write_corpus


def _read_header(path):
    blob = open(path, "rb").read()
    (hlen,) = struct.unpack("<Q", blob[8:16])
    return json.loads(blob[16 : 16 + hlen].decode("utf-8"))


def _split(blob):
    """(header, [[name, payload], ...]) of a container blob."""
    (hlen,) = struct.unpack("<Q", blob[8:16])
    header = json.loads(blob[16 : 16 + hlen].decode("utf-8"))
    pos = 16 + hlen
    sections = []
    for name in header["sections"]:
        (plen,) = struct.unpack("<Q", blob[pos : pos + 8])
        sections.append([name, bytearray(blob[pos + 8 : pos + 8 + plen])])
        pos += 8 + plen
    return header, sections


def _header_digest(header):
    """sha256 of a header's canonical JSON without its sha256 map."""
    rest = {k: v for k, v in header.items() if k != "sha256"}
    return hashlib.sha256(
        json.dumps(rest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


def _join(blob, header, sections, rehash):
    """Reassemble a blob from edited sections and header, optionally
    re-hashing the sections and the header."""
    if rehash:
        header["sha256"] = {n: hashlib.sha256(p).hexdigest() for n, p in sections}
        header["sha256"]["header"] = _header_digest(header)
    hjson = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = b"".join(struct.pack("<Q", len(p)) + bytes(p) for _, p in sections)
    return blob[:8] + struct.pack("<Q", len(hjson)) + hjson + body


def _first_float(name):
    """Byte offset of the first f64 in a section, None if it holds none: a
    ``z.k.j`` section is its factors alone."""
    return 0 if name.startswith("z.") else None


def _sample_queries(vocab_size, rng, n=300, max_ctx=2):
    out = []
    for _ in range(n):
        w = int(rng.integers(0, vocab_size))
        ctx = tuple(
            int(x) for x in rng.integers(0, vocab_size, size=rng.integers(0, max_ctx + 1))
        )
        out.append((w, ctx))
    return out


class TestRoundTrip:
    def test_baselines_round_trip_bit_exact(self, toy_corpus, tmp_path):
        _, vocab, enc = toy_corpus
        raw = count_all_orders(enc, 3)
        rng = np.random.default_rng(3)
        queries = _sample_queries(len(vocab), rng)
        for smoother in ("mle", "abs", "kn", "mkn"):
            lm = NgramLM.build(vocab, raw, smoother)
            path = str(tmp_path / f"{smoother}.plre")
            save_model(lm, path)
            loaded = load_model(path)
            assert loaded.smoother == smoother
            assert loaded.order == 3
            assert loaded.vocab.id_to_word == vocab.id_to_word
            for w, ctx in queries:
                assert loaded.prob(w, ctx) == lm.prob(w, ctx), (smoother, w, ctx)

    def test_plre_round_trip_bit_exact(self, toy_plre3, tmp_path):
        model = toy_plre3
        path = str(tmp_path / "model.plre")
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.dstars == model.dstars
        assert loaded.resolved_ranks == model.resolved_ranks
        rng = np.random.default_rng(5)
        for w, ctx in _sample_queries(len(model.vocab), rng, n=500):
            assert loaded.prob(w, ctx) == model.prob(w, ctx)

    def test_loaded_plre_still_satisfies_invariants(self, toy_plre3, tmp_path):
        path = str(tmp_path / "model.plre")
        save_model(toy_plre3, path)
        loaded = load_model(path)
        assert loaded.check_local_constraints() <= 1e-12
        assert loaded.check_gamma_closed_form() <= 1e-12
        assert loaded.check_discount_bounds() <= 1e-12

    def test_save_is_deterministic(self, toy_plre3, toy_kn3, tmp_path):
        for name, model in (("p", toy_plre3), ("k", toy_kn3)):
            p1 = tmp_path / f"{name}1.plre"
            p2 = tmp_path / f"{name}2.plre"
            save_model(model, str(p1))
            save_model(model, str(p2))
            assert p1.read_bytes() == p2.read_bytes()

    def test_resaving_a_loaded_model_is_identical(self, toy_plre3, toy_corpus, tmp_path):
        _, vocab, enc = toy_corpus
        raw = count_all_orders(enc, 3)
        models = [toy_plre3] + [NgramLM.build(vocab, raw, s) for s in ("mle", "abs", "kn", "mkn")]
        for model in models:
            p1 = tmp_path / f"{model.smoother}-a.plre"
            p2 = tmp_path / f"{model.smoother}-b.plre"
            save_model(model, str(p1))
            save_model(load_model(str(p1)), str(p2))
            assert p1.read_bytes() == p2.read_bytes(), model.smoother

    @pytest.mark.parametrize("order", [3, 4])
    @pytest.mark.parametrize("rank", [1, 3])
    def test_loaded_levels_rederive_their_discount_sections(
        self, toy_corpus, tmp_path, order, rank
    ):
        # top, gammas and denominators follow from a level's keys, counts,
        # d* and powers alone: context sums run in key order, which the
        # container keeps, so a loaded level derives the built one's bytes
        _, vocab, enc = toy_corpus
        model = build_plre(
            count_ngrams(enc, order),
            vocab,
            powers={k: (0.6, 0.3) for k in range(2, order + 1)},
            ranks={k: (rank, rank) for k in range(2, order + 1)},
            seed=0,
        )
        path = tmp_path / "m.plre"
        save_model(model, str(path))
        loaded = load_model(str(path))
        assert sorted(loaded.levels) == list(range(2, order + 1))
        for k, level in loaded.levels.items():
            built = model.levels[k]
            assert level.top.tobytes() == built.top.tobytes()
            assert level.gammas.shape == built.gammas.shape == (3, len(level.contexts))
            assert level.gammas.tobytes() == built.gammas.tobytes()
            assert len(level.z_tables) == len(built.z_tables) == 2
            for z, zb in zip(level.z_tables, built.z_tables):
                assert z.denominators.tobytes() == zb.denominators.tobytes()

    def test_toy_model_stays_small(self, toy_kn3, tmp_path):
        path = tmp_path / "kn.plre"
        save_model(toy_kn3, str(path))
        assert path.stat().st_size < 1 << 20

    def test_config_echo_lands_in_header(self, toy_kn3, tmp_path):
        path = tmp_path / "kn.plre"
        echo = {"smoother": "kn", "order": 3, "unk_threshold": 1}
        save_model(toy_kn3, str(path), config_echo=echo)
        header = _read_header(str(path))
        assert header["config"] == echo
        assert header["format_version"] == FORMAT_VERSION
        assert header["kind"] == "baseline"

    def test_unserializable_object_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            save_model(object(), str(tmp_path / "x.plre"))


class TestCorruption:
    @pytest.fixture()
    def saved(self, toy_kn3, tmp_path):
        path = tmp_path / "kn.plre"
        save_model(toy_kn3, str(path))
        return path

    def test_bad_magic(self, saved):
        blob = bytearray(saved.read_bytes())
        blob[0] ^= 0xFF
        saved.write_bytes(bytes(blob))
        with pytest.raises(ContainerError, match="magic"):
            load_model(str(saved))

    def test_unsupported_version(self, saved):
        blob = bytearray(saved.read_bytes())
        blob[4:8] = struct.pack("<I", FORMAT_VERSION + 9)
        saved.write_bytes(bytes(blob))
        with pytest.raises(ContainerError, match="version"):
            load_model(str(saved))

    def test_version_3_file_exits_6(self, saved, capsys):
        # format 3 also stored base_counts and a word<TAB>id<TAB>count vocab
        blob = bytearray(saved.read_bytes())
        blob[4:8] = struct.pack("<I", 3)
        saved.write_bytes(bytes(blob))
        with pytest.raises(ContainerError, match="unsupported container version 3"):
            load_model(str(saved))
        assert main(["verify", "--model", str(saved)]) == 6

    def test_version_4_file_exits_6(self, saved, capsys):
        # format 4 also stored every lower order's counts.k
        blob = bytearray(saved.read_bytes())
        blob[4:8] = struct.pack("<I", 4)
        saved.write_bytes(bytes(blob))
        with pytest.raises(ContainerError, match="unsupported container version 4"):
            load_model(str(saved))
        assert main(["verify", "--model", str(saved)]) == 6

    def test_version_5_file_exits_6(self, saved, capsys):
        # format 5 also stored each slice's interior, dims, row ids and
        # column ids in z.k.j, and a header map of slice counts
        blob = bytearray(saved.read_bytes())
        blob[4:8] = struct.pack("<I", 5)
        saved.write_bytes(bytes(blob))
        with pytest.raises(ContainerError, match="unsupported container version 5"):
            load_model(str(saved))
        assert main(["verify", "--model", str(saved)]) == 6

    def test_version_6_file_exits_6(self, saved, capsys):
        # format 6 held rank-1 factors whose L divided by numpy's pairwise
        # sum of the nonzeros, about 1e-14 off the closed form's tolerance
        blob = bytearray(saved.read_bytes())
        blob[4:8] = struct.pack("<I", 6)
        saved.write_bytes(bytes(blob))
        with pytest.raises(ContainerError, match="unsupported container version 6"):
            load_model(str(saved))
        assert main(["verify", "--model", str(saved)]) == 6

    def test_truncated_payload(self, saved):
        blob = saved.read_bytes()
        saved.write_bytes(blob[: len(blob) - 40])
        with pytest.raises(ContainerError):
            load_model(str(saved))

    def test_trailing_garbage(self, saved):
        saved.write_bytes(saved.read_bytes() + b"extra")
        with pytest.raises(ContainerError, match="trailing"):
            load_model(str(saved))

    def test_tampered_vocab_fails_hash_check(self, saved):
        blob = bytearray(saved.read_bytes())
        (hlen,) = struct.unpack("<Q", bytes(blob[8:16]))
        # first payload is the vocabulary text; flip a byte inside it
        vocab_start = 16 + hlen + 8
        blob[vocab_start + 3] ^= 0x01
        saved.write_bytes(bytes(blob))
        with pytest.raises(ContainerError, match="hash"):
            load_model(str(saved))

    def test_unknown_kind_rejected(self, saved):
        blob = saved.read_bytes()
        assert b'"kind":"baseline"' in blob
        saved.write_bytes(blob.replace(b'"kind":"baseline"', b'"kind":"nonsense"'))
        with pytest.raises(ContainerError, match="hash|kind"):
            load_model(str(saved))

    def test_not_a_container_at_all(self, tmp_path):
        path = tmp_path / "junk.plre"
        path.write_bytes(b"this is not a model file at all")
        with pytest.raises(ContainerError, match="magic"):
            load_model(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.plre"
        path.write_bytes(b"")
        with pytest.raises(ContainerError):
            load_model(str(path))


class TestBaselineKeyOrder:
    @pytest.mark.parametrize("name", ["counts.3"])
    @pytest.mark.parametrize("edit", ["swap", "duplicate"])
    def test_unsorted_or_duplicate_keys_exit_6(self, toy_kn3, name, edit, tmp_path, capsys):
        path = tmp_path / "kn.plre"
        save_model(toy_kn3, str(path))
        blob = path.read_bytes()
        header, sections = _split(blob)
        payload = next(sec for sec in sections if sec[0] == name)[1]
        k = int(name.split(".")[1])
        n = header["entries"][str(k)]
        keys = np.frombuffer(bytes(payload), "<i4", count=n * k).reshape(n, k).copy()
        keys[[0, 1]] = keys[[1, 0]] if edit == "swap" else keys[[0, 0]]
        payload[: 4 * n * k] = keys.tobytes()
        path.write_bytes(_join(blob, header, sections, rehash=True))
        with pytest.raises(ContainerError, match="sorted and unique"):
            load_model(str(path))
        assert main(["verify", "--model", str(path)]) == 6


class TestPlreKeyOrder:
    # Lower orders are derived from counts.n, so its keys must be sorted
    # and unique for the derivation to mean anything: the load rejects them.
    @pytest.mark.parametrize("rows", [(0, 1), (0, -1)])
    @pytest.mark.parametrize("edit", ["swap", "duplicate"])
    def test_unsorted_or_duplicate_keys_exit_6(self, toy_plre3, rows, edit, tmp_path, capsys):
        path = tmp_path / "m.plre"
        save_model(toy_plre3, str(path))
        blob = path.read_bytes()
        header, sections = _split(blob)
        payload = next(sec for sec in sections if sec[0] == "counts.3")[1]
        n = header["entries"]["3"]
        keys = np.frombuffer(bytes(payload), "<i4", count=n * 3).reshape(n, 3).copy()
        a, b = rows
        keys[[a, b]] = keys[[b, a]] if edit == "swap" else keys[[a, a]]
        payload[: 4 * n * 3] = keys.tobytes()
        path.write_bytes(_join(blob, header, sections, rehash=True))
        with pytest.raises(ContainerError, match="sorted and unique|parent"):
            load_model(str(path))
        assert main(["verify", "--model", str(path)]) == 6


class TestBaselineLayout:
    @pytest.mark.parametrize("smoother", ["mle", "abs", "kn", "mkn"])
    def test_only_the_top_order_is_stored(self, smoother, toy_corpus, tmp_path):
        _, vocab, enc = toy_corpus
        for order in (1, 2, 3):
            model = NgramLM.build(vocab, count_all_orders(enc, order), smoother)
            p1, p2 = tmp_path / "a.plre", tmp_path / "b.plre"
            save_model(model, str(p1))
            header = _read_header(str(p1))
            assert header["sections"] == ["vocab", f"counts.{order}"]
            assert header["entries"] == {str(order): len(model.tables()[order].counts)}
            assert "discounts" not in header
            save_model(load_model(str(p1)), str(p2))
            assert p1.read_bytes() == p2.read_bytes(), (smoother, order)


def _save_every_order(model, path):
    """Save a baseline in the layout that also stored every lower order's
    counts and the discounts, which loading now derives instead."""
    save_model(model, str(path))
    blob = path.read_bytes()
    header, sections = _split(blob)
    arrays = [(k, (t.keys, t.counts)) for k, t in sorted(model.tables().items())]
    sections[1:1] = [
        [f"counts.{k}", bytearray(keys.astype("<i4").tobytes() + counts.astype("<i8").tobytes())]
        for k, (keys, counts) in arrays[:-1]
    ]
    header["sections"] = [name for name, _ in sections]
    header["entries"] = {str(k): len(keys) for k, (keys, _) in arrays}
    header["discounts"] = {str(k): [d.d1, d.d2, d.d3plus] for k, d in model.discounts.items()}
    path.write_bytes(_join(blob, header, sections, rehash=True))


class TestBaselineTamper:
    # A baseline is rebuilt from its top-order counts, so a container that
    # also stores lower orders and discounts answers from the top order
    # alone: rewriting the rest cannot change the model.
    @staticmethod
    def _perplexity(path, test, capsys):
        capsys.readouterr()
        assert main(["eval", "--model", str(path), "--corpus", str(test), "--json"]) == 0
        return json.loads(capsys.readouterr().out)["perplexity"]

    @pytest.fixture()
    def test_text(self, toy_corpus, tmp_path):
        path = tmp_path / "test.txt"
        write_corpus(str(path), toy_corpus[0][:40])
        return path

    @pytest.mark.parametrize("smoother", ["mle", "abs", "kn", "mkn"])
    def test_every_order_layout_loads_to_the_same_answers(
        self, smoother, toy_top3, toy_corpus, tmp_path
    ):
        _, vocab, _ = toy_corpus
        model = NgramLM.build(vocab, {3: toy_top3}, smoother)
        path = tmp_path / "lm.plre"
        _save_every_order(model, path)
        loaded = load_model(str(path))
        rng = np.random.default_rng(9)
        for w, ctx in _sample_queries(len(vocab), rng):
            assert loaded.prob(w, ctx) == model.prob(w, ctx), (smoother, w, ctx)

    @pytest.mark.parametrize("model", ["toy_kn3", "toy_mkn3"])
    @pytest.mark.parametrize("value", [-0.5, 0.05, 7.0, float("nan"), float("inf")])
    def test_rewritten_discounts_leave_perplexity_unchanged(
        self, model, value, request, test_text, tmp_path, capsys
    ):
        path = tmp_path / "lm.plre"
        _save_every_order(request.getfixturevalue(model), path)
        untouched = self._perplexity(path, test_text, capsys)
        blob = path.read_bytes()
        header, sections = _split(blob)
        header["discounts"] = {k: [value] * 3 for k in header["discounts"]}
        path.write_bytes(_join(blob, header, sections, rehash=True))
        assert self._perplexity(path, test_text, capsys) == untouched
        assert main(["verify", "--model", str(path)]) == 0

    @pytest.mark.parametrize("model", ["toy_kn3", "toy_mkn3"])
    def test_tripled_lower_order_counts_leave_perplexity_unchanged(
        self, model, request, test_text, tmp_path, capsys
    ):
        path = tmp_path / "lm.plre"
        _save_every_order(request.getfixturevalue(model), path)
        untouched = self._perplexity(path, test_text, capsys)
        blob = path.read_bytes()
        header, sections = _split(blob)
        payload = next(sec for sec in sections if sec[0] == "counts.2")[1]
        n = header["entries"]["2"]
        counts = np.frombuffer(bytes(payload), "<i8", count=n, offset=4 * 2 * n)
        payload[4 * 2 * n :] = (3 * counts).astype("<i8").tobytes()
        path.write_bytes(_join(blob, header, sections, rehash=True))
        assert self._perplexity(path, test_text, capsys) == untouched
        assert main(["verify", "--model", str(path)]) == 0


class TestSectionChecks:
    @pytest.fixture()
    def blob(self, toy_plre3, tmp_path):
        path = tmp_path / "model.plre"
        save_model(toy_plre3, str(path))
        return path.read_bytes()

    @staticmethod
    def _verify(tmp_path, blob):
        path = tmp_path / "edited.plre"
        path.write_bytes(blob)
        return main(["verify", "--model", str(path)])

    @pytest.mark.parametrize("rehash", [False, True])
    def test_negative_factor_exits_6(self, blob, rehash, tmp_path, capsys):
        header, sections = _split(blob)
        name, payload = next(sec for sec in sections if sec[0] == "z.3.1")
        at = _first_float(name)
        payload[at : at + 8] = struct.pack("<d", -1.0)
        edited = _join(blob, header, sections, rehash)
        with pytest.raises(ContainerError, match="negative" if rehash else "hash"):
            (tmp_path / "m.plre").write_bytes(edited)
            load_model(str(tmp_path / "m.plre"))
        assert self._verify(tmp_path, edited) == 6

    def test_nan_or_truncation_in_any_section_never_exits_clean(
        self, blob, tmp_path, capsys
    ):
        header, _ = _split(blob)
        assert len(header["sections"]) == 4
        for i, name in enumerate(header["sections"]):
            edits = ["truncate"]
            if _first_float(name) is not None:
                edits.append("nan")
            for edit in edits:
                header, sections = _split(blob)
                payload = sections[i][1]
                if edit == "nan":
                    at = _first_float(name)
                    payload[at : at + 8] = struct.pack("<d", float("nan"))
                else:
                    del payload[-1]
                code = self._verify(tmp_path, _join(blob, header, sections, rehash=True))
                assert code in (6, 7), (name, edit, code)


class TestFactorSections:
    # A z.k.j section is every slice's L, then every slice's R, sized by
    # the layout its level derives: a section one float longer or shorter
    # is corrupt, and an edited factor fails verification.
    @pytest.mark.parametrize("edit", ["add", "remove"])
    def test_rehashed_float_added_or_removed_exits_6(self, toy_plre3, edit, tmp_path, capsys):
        path = tmp_path / "m.plre"
        save_model(toy_plre3, str(path))
        blob = path.read_bytes()
        names = [name for name in _split(blob)[0]["sections"] if name.startswith("z.")]
        assert names == ["z.3.1", "z.2.1"]
        for name in names:
            header, sections = _split(blob)
            payload = dict(sections)[name]
            if edit == "add":
                payload += struct.pack("<d", 0.5)
            else:
                del payload[-8:]
            path.write_bytes(_join(blob, header, sections, rehash=True))
            with pytest.raises(ContainerError, match=f"section {name}: (trailing|truncated)"):
                load_model(str(path))
            assert main(["verify", "--model", str(path)]) == 6

    @pytest.mark.parametrize("rank", [0, -1])
    def test_rehashed_rank_below_one_exits_6(self, toy_plre3, rank, tmp_path, capsys):
        # the header's rank caps size the factors, so they are checked too
        path = tmp_path / "m.plre"
        save_model(toy_plre3, str(path))
        blob = path.read_bytes()
        header, sections = _split(blob)
        header["ranks"]["3"] = [rank]
        path.write_bytes(_join(blob, header, sections, rehash=True))
        with pytest.raises(ContainerError, match=f"order 3: rank must be >= 1, got {rank}"):
            load_model(str(path))
        assert main(["verify", "--model", str(path)]) == 6

    @pytest.mark.parametrize(
        "model,name,kind",
        [
            ("toy_plre3", "z.3.1", "rank1"),
            ("toy_plre3", "z.2.1", "iterative"),
            ("toy_plre3_rank1", "z.3.1", "rank1"),
            ("toy_plre3_rank1", "z.2.1", "rank1"),
        ],
    )
    def test_rehashed_last_factor_edit_exits_7(
        self, model, name, kind, request, tmp_path, capsys
    ):
        # the last float is the last slice's last R entry, one column's mass
        model = request.getfixturevalue(model)
        k, j = map(int, name.split(".")[1:])
        assert model.levels[k].z_tables[j - 1].reports[-1].kind == kind
        path = tmp_path / "m.plre"
        save_model(model, str(path))
        blob = path.read_bytes()
        header, sections = _split(blob)
        payload = dict(sections)[name]
        (last,) = struct.unpack("<d", payload[-8:])
        payload[-8:] = struct.pack("<d", 1.5 * last)
        path.write_bytes(_join(blob, header, sections, rehash=True))
        load_model(str(path))
        capsys.readouterr()
        assert main(["verify", "--model", str(path), "--json"]) == 7
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert not checks["normalization_observed"]["passed"]


def _count_swapping_edit(model):
    """(row, word) of a top-order key whose word can change to another
    without changing the shape of any derived table or any context's
    counts: its context has no other entry, and its entry one order lower
    has count 2 where the new word's has count 1, so the two counts swap.
    Only the rows of the low-rank slices one order lower change."""
    top, mid = model.levels[model.order], model.levels[model.order - 1]
    by_context = {}
    for (w, *q), c in mid.entries.items():
        by_context.setdefault(tuple(q), {})[w] = c
    keys, single = top.keys, np.diff(top.ctx_start) == 1
    for e in np.flatnonzero(single[top.ctx_of_entry]).tolist():
        words = by_context[tuple(keys[e, 1:-1].tolist())]
        if words[keys[e, 0]] == 2:
            for w, c in words.items():
                if c == 1:
                    return e, w
    raise AssertionError("no count-swapping edit in this model")


class TestRank1ClosedForm:
    def test_rehashed_key_edit_that_keeps_the_layout_exits_7(self, toy_corpus, tmp_path, capsys):
        # rank-1 factors are a closed form of their level's counts: a key
        # edit that keeps every size loads, and swaps two counts one order
        # lower, so normalization and the marginal bound (which takes its
        # residuals from the factors) stay clean; only the factors' row
        # sums no longer meet their targets
        _, vocab, enc = toy_corpus
        model = build_plre(
            count_ngrams(enc, 4),
            vocab,
            powers={2: (0.6, 0.3), 3: (0.6, 0.3), 4: ()},
            ranks={2: (1, 1), 3: (1, 1), 4: ()},
        )
        path = tmp_path / "m.plre"
        save_model(model, str(path))
        assert main(["verify", "--model", str(path)]) == 0
        blob = path.read_bytes()
        header, sections = _split(blob)
        payload = dict(sections)["counts.4"]
        n = header["entries"]["4"]
        keys = np.frombuffer(bytes(payload), "<i4", count=4 * n).reshape(n, 4).copy()
        row, word = _count_swapping_edit(model)
        keys[row, 0] = word
        payload[: 16 * n] = keys.tobytes()
        path.write_bytes(_join(blob, header, sections, rehash=True))
        loaded = load_model(str(path))
        for k in (2, 3):
            for z, built in zip(loaded.levels[k].z_tables, model.levels[k].z_tables):
                assert np.array_equal(z.dims, built.dims)
                assert z.L.tobytes() == built.L.tobytes()
        capsys.readouterr()
        assert main(["verify", "--model", str(path), "--json"]) == 7
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert not checks.pop("rank1_closed_form")["passed"]
        assert all(c["passed"] for c in checks.values()), checks

    def test_rehashed_rank1_factor_a_few_ulps_off_exits_7(self, toy_corpus, tmp_path, capsys):
        # the closed form's row sums come back within one rounding, so an
        # order-3 rank-1 L entry scaled by (1 + 8 eps) and rehashed fails
        # the rank-1 check alone: every other check passes it
        _, vocab, enc = toy_corpus
        model = build_plre(
            count_ngrams(enc, 4),
            vocab,
            powers={2: (0.6, 0.3), 3: (0.6, 0.3), 4: ()},
            ranks={2: (1, 1), 3: (1, 1), 4: ()},
        )
        assert model.levels[3].z_tables[0].ranks[0] == 1
        path = tmp_path / "m.plre"
        save_model(model, str(path))
        blob = path.read_bytes()
        header, sections = _split(blob)
        payload = dict(sections)["z.3.1"]
        L = np.frombuffer(bytes(payload[:8]), "<f8").copy()
        scaled = L * (1.0 + 8 * np.finfo(float).eps)
        assert scaled[0] != L[0]
        payload[:8] = scaled.tobytes()
        path.write_bytes(_join(blob, header, sections, rehash=True))
        capsys.readouterr()
        assert main(["verify", "--model", str(path), "--json"]) == 7
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert not checks.pop("rank1_closed_form")["passed"]
        assert all(c["passed"] for c in checks.values()), checks


class TestFuzz:
    def test_rehashed_byte_edits_and_tail_cuts_never_escape(
        self, toy_plre3, toy_kn3, toy_corpus, tmp_path, capsys
    ):
        # a seeded single-byte edit or tail cut in any section of a PLRE
        # and a kn container, rehashed: the load rejects it (6), verify
        # fails it (7), or it is a model that verifies and answers finite
        # probabilities; nothing else escapes
        sentences = toy_corpus[0][:10]
        rng = np.random.default_rng(21)
        outcomes = {}
        for model in (toy_plre3, toy_kn3):
            path = tmp_path / "m.plre"
            save_model(model, str(path))
            blob = path.read_bytes()
            for i, name in enumerate(_split(blob)[0]["sections"]):
                for trial in range(32):
                    header, sections = _split(blob)
                    payload = sections[i][1]
                    if trial % 4 == 0:
                        del payload[-int(rng.integers(1, 17)) :]
                    else:
                        payload[int(rng.integers(len(payload)))] ^= int(rng.integers(1, 256))
                    edited = tmp_path / "edited.plre"
                    edited.write_bytes(_join(blob, header, sections, rehash=True))
                    code = main(["verify", "--model", str(edited)])
                    err = capsys.readouterr().err
                    assert code in (0, 6, 7), (model.smoother, name, trial, code, err)
                    if code == 0:
                        rep = perplexity(load_model(str(edited)), sentences)
                        assert math.isfinite(rep.perplexity), (model.smoother, name, trial)
                    outcomes[code] = outcomes.get(code, 0) + 1
        assert sum(outcomes.values()) == 32 * 6
        assert outcomes.get(6, 0) > 0 and outcomes.get(0, 0) + outcomes.get(7, 0) > 0


class TestPlreLayout:
    @pytest.mark.parametrize(
        "order,powers",
        [
            (2, {2: (0.5,)}),
            (3, {2: (0.6, 0.3), 3: (0.5,)}),
            (4, {2: (0.6, 0.3), 3: (0.6, 0.3), 4: ()}),
        ],
    )
    @pytest.mark.parametrize("rank", [1, 3])
    def test_sections_are_counts_and_factors_per_level(
        self, toy_corpus, tmp_path, order, powers, rank
    ):
        # a slice is its interior, so a z.k.j section is every slice's L,
        # then every slice's R, and the header lists no slices
        _, vocab, enc = toy_corpus
        ranks = {k: (rank,) * len(chain) for k, chain in powers.items()}
        model = build_plre(count_ngrams(enc, order), vocab, powers=powers, ranks=ranks, seed=0)
        p1, p2 = tmp_path / "a.plre", tmp_path / "b.plre"
        save_model(model, str(p1))
        want = ["vocab", f"counts.{order}"]
        for k in range(order, 1, -1):
            want += [f"z.{k}.{j}" for j in range(1, len(powers[k]) + 1)]
        header, sections = _split(p1.read_bytes())
        assert header["sections"] == want
        assert header["entries"] == {str(order): len(model.levels[order].keys)}
        assert set(header["sha256"]) == set(want) | {"header"}
        assert "slices" not in header
        for name, payload in sections[2:]:
            k, j = map(int, name.split(".")[1:])
            z = model.levels[k].z_tables[j - 1]
            assert bytes(payload) == z.L.astype("<f8").tobytes() + z.R.astype("<f8").tobytes()
        loaded = load_model(str(p1))
        for k, level in loaded.levels.items():
            for z, built in zip(level.z_tables, model.levels[k].z_tables):
                for field in ("slices", "dims", "row_ids", "col_ids"):
                    assert np.array_equal(getattr(z, field), getattr(built, field)), (k, field)
        save_model(loaded, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("model", ["toy_plre3", "toy_plre3_rank1", "toy_plre3_eta0"])
    def test_base_counts_are_the_order_one_adjusted_table(
        self, model, toy_top3, request, tmp_path
    ):
        # the base's numerators are derived from the order-2 keys, for a
        # build and a load alike
        model = request.getfixturevalue(model)
        unigrams = adjusted_tables(toy_top3)[1]
        want = np.zeros(len(model.vocab), dtype=np.int64)
        want[unigrams.keys[:, 0]] = unigrams.counts
        path = tmp_path / "m.plre"
        save_model(model, str(path))
        for m in (model, load_model(str(path))):
            assert m.base_counts.dtype == want.dtype
            assert m.base_counts.tobytes() == want.tobytes()


def _f8(values):
    return bytearray(np.ascontiguousarray(values, dtype="<f8").tobytes())


def _save_with_discount_sections(model, path):
    """Save a PLRE model in the layout that also stored each level's top
    numerators (``top.k``) and gammas (``gamma.k``) after its counts, and
    each low-rank table's denominators (``zden.k.j``) after its factors,
    which loading now derives instead."""
    save_model(model, str(path))
    blob = path.read_bytes()
    header, sections = _split(blob)
    stored = dict(sections)
    out = sections[:2]
    for k in range(model.order, 1, -1):
        level = model.levels[k]
        out += [[f"top.{k}", _f8(level.top)], [f"gamma.{k}", _f8(level.gammas)]]
        for j, z in enumerate(level.z_tables, start=1):
            out += [[f"z.{k}.{j}", stored[f"z.{k}.{j}"]], [f"zden.{k}.{j}", _f8(z.denominators)]]
    header["sections"] = [name for name, _ in out]
    path.write_bytes(_join(blob, header, out, rehash=True))


class TestPlreTamper:
    # A PLRE level derives its top numerators, gammas and denominators, so
    # a container that also stores them answers from its counts, factors,
    # d*s and powers alone: rewriting those sections cannot change it.
    @pytest.mark.parametrize("model", ["toy_plre3", "toy_plre3_rank1"])
    @pytest.mark.parametrize("edit", ["none", "nan", "triple"])
    def test_stored_discount_sections_are_never_read(
        self, model, edit, request, tmp_path, capsys
    ):
        model = request.getfixturevalue(model)
        path = tmp_path / "m.plre"
        _save_with_discount_sections(model, path)
        blob = path.read_bytes()
        header, sections = _split(blob)
        derived = [sec for sec in sections if sec[0].split(".")[0] in ("top", "gamma", "zden")]
        assert [name for name, _ in derived] == [
            "top.3", "gamma.3", "zden.3.1", "top.2", "gamma.2", "zden.2.1"
        ]
        for _, payload in derived:
            values = np.frombuffer(bytes(payload), "<f8")
            if edit != "none":
                payload[:] = _f8(np.full_like(values, np.nan) if edit == "nan" else 3 * values)
        path.write_bytes(_join(blob, header, sections, rehash=True))

        loaded = load_model(str(path))
        rng = np.random.default_rng(13)
        for w, ctx in _sample_queries(len(model.vocab), rng, n=500):
            assert loaded.prob(w, ctx) == model.prob(w, ctx), (edit, w, ctx)
        assert main(["verify", "--model", str(path)]) == 0
        p1, p2 = tmp_path / "a.plre", tmp_path / "b.plre"
        save_model(loaded, str(p1))
        save_model(model, str(p2))
        assert p1.read_bytes() == p2.read_bytes()


def _save_with_lower_counts(model, path):
    """Save a PLRE model in format 4's layout, which also stored each lower
    level's counts (``counts.k``) before its factors; loading now derives
    them from ``counts.n``."""
    save_model(model, str(path))
    blob = path.read_bytes()
    header, sections = _split(blob)
    stored = dict(sections)
    out = [sections[0]]
    for k in range(model.order, 1, -1):
        level = model.levels[k]
        keys, counts = level.keys.astype("<i4"), level.counts.astype("<i8")
        out.append([f"counts.{k}", bytearray(keys.tobytes() + counts.tobytes())])
        out += [[f"z.{k}.{j}", stored[f"z.{k}.{j}"]] for j in range(1, level.eta + 1)]
    header["sections"] = [name for name, _ in out]
    header["entries"] = {str(k): len(level.keys) for k, level in model.levels.items()}
    path.write_bytes(_join(blob, header, out, rehash=True))


class TestLowerCountsTamper:
    # A PLRE model's lower orders are derived from counts.n, so a container
    # that also stores them answers from the top order alone: rewriting
    # those sections cannot change it.
    @pytest.mark.parametrize("model", ["toy_plre3", "toy_plre3_rank1", "toy_plre3_eta0"])
    @pytest.mark.parametrize("edit", ["none", "nan", "triple"])
    def test_stored_lower_order_counts_are_never_read(
        self, model, edit, request, tmp_path, capsys
    ):
        model = request.getfixturevalue(model)
        path = tmp_path / "m.plre"
        _save_with_lower_counts(model, path)
        blob = path.read_bytes()
        header, sections = _split(blob)
        assert [name for name, _ in sections if name.startswith("counts.")] == [
            "counts.3", "counts.2"
        ]
        payload = next(sec for sec in sections if sec[0] == "counts.2")[1]
        n = header["entries"]["2"]
        counts = np.frombuffer(bytes(payload), "<i8", count=n, offset=4 * 2 * n)
        if edit == "triple":
            payload[4 * 2 * n :] = (3 * counts).astype("<i8").tobytes()
        elif edit == "nan":
            payload[4 * 2 * n :] = _f8(np.full(n, np.nan))
        path.write_bytes(_join(blob, header, sections, rehash=True))

        loaded = load_model(str(path))
        rng = np.random.default_rng(19)
        for w, ctx in _sample_queries(len(model.vocab), rng, n=500):
            assert loaded.prob(w, ctx) == model.prob(w, ctx), (edit, w, ctx)
        assert main(["verify", "--model", str(path)]) == 0
        p1, p2 = tmp_path / "a.plre", tmp_path / "b.plre"
        save_model(loaded, str(p1))
        save_model(model, str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestVocabSection:
    # Each edit of the word lines; "no-newline" also drops the last newline.
    EDITS = {
        "empty-line": lambda lines: lines[:4] + [""] + lines[4:],
        "space": lambda lines: lines[:3] + ["a b"] + lines[4:],
        "tab": lambda lines: lines[:3] + ["a\tb"] + lines[4:],
        "carriage-return": lambda lines: lines[:3] + [lines[3] + "\r"] + lines[4:],
        "duplicate": lambda lines: lines[:4] + [lines[3]] + lines[5:],
        "reserved-late": lambda lines: [lines[3]] + lines[1:3] + [lines[0]] + lines[4:],
        "no-newline": lambda lines: lines,
    }

    @pytest.mark.parametrize("model", ["toy_plre3", "toy_kn3"])
    def test_vocab_is_the_words_one_per_line(self, model, request, tmp_path):
        model = request.getfixturevalue(model)
        path = tmp_path / "m.plre"
        save_model(model, str(path))
        name, payload = _split(path.read_bytes())[1][0]
        assert name == "vocab"
        assert bytes(payload) == "".join(w + "\n" for w in model.vocab.id_to_word).encode()

    @pytest.mark.parametrize("model", ["toy_plre3", "toy_kn3"])
    @pytest.mark.parametrize("edit", list(EDITS))
    def test_rehashed_vocab_edit_exits_6(self, model, edit, request, tmp_path, capsys):
        model = request.getfixturevalue(model)
        path = tmp_path / "m.plre"
        save_model(model, str(path))
        blob = path.read_bytes()
        header, sections = _split(blob)
        lines = self.EDITS[edit](list(model.vocab.id_to_word))
        text = "\n".join(lines) + ("" if edit == "no-newline" else "\n")
        sections[0][1] = bytearray(text.encode("utf-8"))
        path.write_bytes(_join(blob, header, sections, rehash=True))
        with pytest.raises(ContainerError, match="vocab|reserved|duplicate"):
            load_model(str(path))
        assert main(["verify", "--model", str(path)]) == 6


class TestBaseTamper:
    # The base's numerators follow from the order-2 keys, so a container
    # that also stores them, as format version 3 did, answers the same
    # whatever that section holds.
    @pytest.mark.parametrize("model", ["toy_plre3", "toy_plre3_rank1"])
    @pytest.mark.parametrize("scale", [1, 3, -1])
    def test_stored_base_counts_section_is_never_read(
        self, model, scale, request, tmp_path, capsys
    ):
        model = request.getfixturevalue(model)
        path = tmp_path / "m.plre"
        save_model(model, str(path))
        blob = path.read_bytes()
        header, sections = _split(blob)
        stored = (scale * model.base_counts).astype("<i8")
        sections.append(["base_counts", bytearray(stored.tobytes())])
        header["sections"] = [name for name, _ in sections]
        path.write_bytes(_join(blob, header, sections, rehash=True))

        loaded = load_model(str(path))
        rng = np.random.default_rng(17)
        for w, ctx in _sample_queries(len(model.vocab), rng, n=500):
            assert loaded.prob(w, ctx) == model.prob(w, ctx), (scale, w, ctx)
        assert loaded.base.tobytes() == model.base.tobytes()
        assert main(["verify", "--model", str(path)]) == 0
        p1, p2 = tmp_path / "a.plre", tmp_path / "b.plre"
        save_model(loaded, str(p1))
        save_model(model, str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestHeaderTrust:
    # The header's d*s and powers decide a PLRE model's answers, so the
    # header carries its own digest.  A rehashed header is range-checked on
    # load, and verify catches an in-range edit through normalization.
    @staticmethod
    def _edited(model, tmp_path, edit, rehash):
        path = tmp_path / "m.plre"
        save_model(model, str(path))
        blob = path.read_bytes()
        header, sections = _split(blob)
        edit(header)
        path.write_bytes(_join(blob, header, sections, rehash))
        return path

    EDITS = {
        "dstar": ("toy_plre3", lambda h: h["dstars"].update({"3": h["dstars"]["3"] * 0.9})),
        "power": ("toy_plre3", lambda h: h["powers"].update({"2": [0.4]})),
        "seed": ("toy_plre3", lambda h: h.update(seed=1)),
        "warnings": ("toy_plre3", lambda h: h["warnings"].append("edited")),
        "smoother": ("toy_kn3", lambda h: h.update(smoother="mkn")),
        "order": ("toy_kn3", lambda h: h.update(order=2)),
    }

    @pytest.mark.parametrize("name", list(EDITS))
    def test_header_edit_without_rehash_exits_6(self, name, request, tmp_path, capsys):
        fixture, edit = self.EDITS[name]
        path = self._edited(request.getfixturevalue(fixture), tmp_path, edit, rehash=False)
        with pytest.raises(ContainerError, match="header: hash mismatch"):
            load_model(str(path))
        assert main(["verify", "--model", str(path)]) == 6

    def test_header_without_its_digest_exits_6(self, toy_plre3, tmp_path, capsys):
        path = self._edited(toy_plre3, tmp_path, lambda h: h["sha256"].pop("header"), False)
        with pytest.raises(ContainerError, match="header: hash mismatch"):
            load_model(str(path))

    @pytest.mark.parametrize("key", ["dstars", "powers"])
    @pytest.mark.parametrize("value", [0.0, 1.0, -0.3, 1.7, float("nan"), float("inf")])
    def test_rehashed_value_out_of_range_exits_6(
        self, toy_plre3, key, value, tmp_path, capsys
    ):
        new = value if key == "dstars" else [value]
        path = self._edited(toy_plre3, tmp_path, lambda h: h[key].update({"3": new}), True)
        with pytest.raises(ContainerError, match="order 3: (d\\* must lie|powers must strictly)"):
            load_model(str(path))
        assert main(["verify", "--model", str(path)]) == 6

    @pytest.mark.parametrize("chain", [[0.3, 0.6], [0.6, 0.6]])
    def test_rehashed_non_descending_chain_exits_6(
        self, toy_corpus, toy_top3, chain, tmp_path, capsys
    ):
        _, vocab, _ = toy_corpus
        model = build_plre(
            toy_top3, vocab, powers={2: (0.6, 0.3), 3: (0.6, 0.3)}, ranks={2: (1, 1), 3: (1, 1)}
        )
        path = self._edited(model, tmp_path, lambda h: h["powers"].update({"2": chain}), True)
        with pytest.raises(ContainerError, match="order 2: powers must strictly descend"):
            load_model(str(path))
        assert main(["verify", "--model", str(path)]) == 6

    @pytest.mark.parametrize("k", ["2", "3"])
    @pytest.mark.parametrize("key", ["dstars", "powers"])
    def test_rehashed_in_range_edit_fails_verification(
        self, toy_plre3, k, key, tmp_path, capsys
    ):
        def edit(header):
            header[key][k] = header[key][k] * 0.9 if key == "dstars" else [0.4]

        path = self._edited(toy_plre3, tmp_path, edit, True)
        load_model(str(path))
        capsys.readouterr()
        assert main(["verify", "--model", str(path), "--json"]) == 7
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert not checks["normalization_observed"]["passed"]


def _readme_section_tables():
    """The section names of README's container tables, one list per table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    part = readme.split("\n## Model containers\n", 1)[1].split("\n## ", 1)[0]
    tables = re.findall(r"\| section \| holds \|\n\| --- \| --- \|\n((?:\|.*\n)+)", part)
    return [re.findall(r"^\| `([^`]+)` \|", table, flags=re.M) for table in tables]


def test_readme_section_tables_list_what_save_model_writes(toy_corpus, tmp_path):
    _, vocab, enc = toy_corpus
    plre_table, baseline_table = _readme_section_tables()
    model = build_plre(
        count_ngrams(enc, 4),
        vocab,
        powers={2: (0.6, 0.3), 3: (0.5,), 4: ()},
        ranks={2: (1, 1), 3: (1,), 4: ()},
    )
    path = tmp_path / "m.plre"
    save_model(model, str(path))
    header, sections = _split(path.read_bytes())
    names = [
        re.sub(r"^z\.\d+\.\d+$", "z.k.j", re.sub(r"^counts\.\d+$", "counts.n", name))
        for name in header["sections"]
    ]
    assert list(dict.fromkeys(names)) == plre_table
    # z.k.j holds the factors alone: every slice's L, then every slice's R
    for name, payload in sections[2:]:
        k, j = map(int, name.split(".")[1:])
        z = model.levels[k].z_tables[j - 1]
        assert len(payload) == 8 * (len(z.L) + len(z.R)), name
    for order in (1, 3):
        save_model(NgramLM.build(vocab, {order: count_ngrams(enc, order)}, "kn"), str(path))
        header = _read_header(str(path))
        assert [re.sub(r"^counts\.\d+$", "counts.n", n) for n in header["sections"]] == baseline_table
