"""Binary model container: round-trip fidelity and corruption handling."""

import hashlib
import json
import struct

import numpy as np
import pytest

from plre.baselines import NgramLM
from plre.cli import main
from plre.container import FORMAT_VERSION, load_model, save_model
from plre.corpus import count_all_orders
from plre.errors import ContainerError


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


def _join(blob, header, sections, rehash):
    """Reassemble a blob from edited sections, optionally re-hashing them."""
    if rehash:
        header["sha256"] = {n: hashlib.sha256(p).hexdigest() for n, p in sections}
    hjson = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = b"".join(struct.pack("<Q", len(p)) + bytes(p) for _, p in sections)
    return blob[:8] + struct.pack("<Q", len(hjson)) + hjson + body


def _first_float(header, name, payload):
    """Byte offset of the first f64 in a section, None if it holds none."""
    kind, *rest = name.split(".")
    if kind in ("top", "gamma", "zden"):
        return 0
    if kind == "z":
        k, s = int(rest[0]), header["slices"][".".join(rest)]
        dims = np.frombuffer(bytes(payload), "<i4", count=3 * s, offset=4 * s * (k - 2))
        dims = dims.reshape(s, 3)
        return 4 * (s * (k - 2) + 3 * s + int(dims[:, 0].sum()) + int(dims[:, 1].sum()))
    return None


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
    @pytest.mark.parametrize("name", ["counts.1", "counts.2", "counts.3"])
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
        at = _first_float(header, name, payload)
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
        assert len(header["sections"]) == 12
        for i, name in enumerate(header["sections"]):
            edits = ["truncate"]
            if _first_float(header, name, _split(blob)[1][i][1]) is not None:
                edits.append("nan")
            for edit in edits:
                header, sections = _split(blob)
                payload = sections[i][1]
                if edit == "nan":
                    at = _first_float(header, name, payload)
                    payload[at : at + 8] = struct.pack("<d", float("nan"))
                else:
                    del payload[-1]
                code = self._verify(tmp_path, _join(blob, header, sections, rehash=True))
                assert code in (6, 7), (name, edit, code)
