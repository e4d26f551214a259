"""Binary model containers.

Layout: 4 magic bytes ``PLRE``, a little-endian u32 format version, a u64
header length, a canonical JSON header (sorted keys, no whitespace), then
for each name in ``header["sections"]`` (in order) a u64 payload length and
the payload bytes.  The header's ``sha256`` map holds a digest of every
payload and, under ``"header"``, one of the header's own canonical JSON
without that map: the header's d*s and powers decide a PLRE model's
answers.  Payloads are bare little-endian arrays (word ids i32, counts i64,
floats f64), except ``vocab``: the words, one per line in id order, UTF-8.
Every model stores ``vocab`` and its top order n's raw counts, and a PLRE
model one ``z.k.j`` per order k = n..2 and intermediate power j:

    counts.n    m x n keys, sorted by context then word; m counts
    z.k.j       every slice's L (rows x rank), then every slice's R
                (rank x cols), row-major, in slice order

The rest is derived on load by the code that built it.  The keys' digits
are read once into trie codes (``CountTable.from_keys``), and
``plre_levels``, the build's own loop, derives each lower order's adjusted
table from the one above; each level derives its top numerators, gammas
and low-rank denominators from its counts, d* and powers, and its slices'
layout from its table and the one below (``PlreLevel``): slice s of order
k is the order-(k-1) context s, its rows that context's entries and its
columns the order-k contexts it is the parent of.  The unigram base comes
from the order-2 words (``PlreModel``).  A baseline is rebuilt by
``NgramLM.build``.  So a loaded model answers queries bit-identically, and
a rebuild with the same seed produces byte-identical files.  Sections a
loader does not read, as earlier layouts wrote them, are hash-checked and
ignored.
"""

from __future__ import annotations

import hashlib
import json
import struct
from typing import Dict, List, Optional, Tuple

import numpy as np

from .baselines import NgramLM
from .corpus import CountTable, Vocabulary
from .ensemble import DiscountSpec, LowRankCPT, PlreLevel, PlreModel, SliceLayout, plre_levels
from .errors import ContainerError, DataError

MAGIC = b"PLRE"
FORMAT_VERSION = 7


def _bytes(arr: np.ndarray, dtype: str) -> bytes:
    return np.ascontiguousarray(arr, dtype=dtype).tobytes()


class _Cursor:
    """Bounds-checked reader of consecutive arrays in one payload."""

    def __init__(self, buf: bytes, name: str):
        self.buf = buf
        self.pos = 0
        self.name = name

    def array(self, dtype: str, count: int) -> np.ndarray:
        n = np.dtype(dtype).itemsize * count
        if count < 0 or self.pos + n > len(self.buf):
            raise ContainerError(f"section {self.name}: truncated payload")
        out = np.frombuffer(self.buf, dtype=dtype, count=count, offset=self.pos)
        self.pos += n
        return out

    def ids(self, count: int, vsize: int) -> np.ndarray:
        arr = self.array("<i4", count)
        if arr.size and (arr.min() < 0 or arr.max() >= vsize):
            raise ContainerError(f"section {self.name}: word id outside [0, {vsize})")
        return arr

    def floats(self, count: int) -> np.ndarray:
        arr = self.array("<f8", count)
        if not np.all(np.isfinite(arr) & (arr >= 0.0)):
            raise ContainerError(f"section {self.name}: negative or non-finite value")
        return arr

    def done(self) -> None:
        if self.pos != len(self.buf):
            raise ContainerError(f"section {self.name}: trailing bytes")


def _canonical(header: dict) -> bytes:
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _header_digest(header: dict) -> str:
    """sha256 of the header's canonical JSON without its ``sha256`` map."""
    rest = {k: v for k, v in header.items() if k != "sha256"}
    return hashlib.sha256(_canonical(rest)).hexdigest()


def _assemble(header: dict, sections: List[Tuple[str, bytes]]) -> bytes:
    header = dict(header)
    header["sections"] = [name for name, _ in sections]
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in sections}
    header["sha256"] = dict(digests, header=_header_digest(header))
    hjson = _canonical(header)
    parts = [MAGIC, struct.pack("<I", FORMAT_VERSION), struct.pack("<Q", len(hjson)), hjson]
    for _, payload in sections:
        parts.append(struct.pack("<Q", len(payload)))
        parts.append(payload)
    return b"".join(parts)


def save_model(model, path: str, config_echo: Optional[dict] = None) -> None:
    """Serialize an NgramLM or PlreModel to a container file."""
    if not isinstance(model, (PlreModel, NgramLM)):
        raise TypeError(f"cannot serialize {type(model).__name__}")
    top = model.tables()[model.order]
    header = {
        "format_version": FORMAT_VERSION,
        "kind": "plre" if isinstance(model, PlreModel) else "baseline",
        "order": model.order,
        "smoother": model.smoother,
        "vocab_size": len(model.vocab),
        "entries": {str(model.order): len(top.counts)},
    }
    if config_echo is not None:
        header["config"] = config_echo
    vocab_text = "".join(word + "\n" for word in model.vocab.id_to_word)
    sections: List[Tuple[str, bytes]] = [
        ("vocab", vocab_text.encode("utf-8")),
        (f"counts.{model.order}", _bytes(top.keys, "<i4") + _bytes(top.counts, "<i8")),
    ]

    if isinstance(model, PlreModel):
        header["seed"] = model.seed
        header["dstars"] = {str(k): d for k, d in model.dstars.items()}
        header["powers"] = {
            str(k): list(level.powers) for k, level in model.levels.items()
        }
        header["ranks"] = {str(k): list(r) for k, r in model.resolved_ranks.items()}
        header["warnings"] = list(model.warnings)
        for k in range(model.order, 1, -1):
            for j, z in enumerate(model.levels[k].z_tables, start=1):
                sections.append((f"z.{k}.{j}", _bytes(z.L, "<f8") + _bytes(z.R, "<f8")))

    with open(path, "wb") as fh:
        fh.write(_assemble(header, sections))


def load_model(path: str):
    """Load a container; returns an NgramLM or a PlreModel.

    The header and every section must match their hashes, and the sections
    hold well-formed data: one whitespace-free word per vocab line, ids in
    [0, V), keys sorted by context then word without duplicates, positive
    counts, lengths that agree with the header, and exactly the finite
    nonnegative factor floats the derived slice layout sizes.  Anything
    else is a ContainerError.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise ContainerError(f"{path}: not a model container (bad magic)")
    if len(blob) < 16:
        raise ContainerError(f"{path}: truncated container")
    (version,) = struct.unpack("<I", blob[4:8])
    if version != FORMAT_VERSION:
        raise ContainerError(
            f"{path}: unsupported container version {version} (expected {FORMAT_VERSION})"
        )
    (hlen,) = struct.unpack("<Q", blob[8:16])
    if 16 + hlen > len(blob):
        raise ContainerError(f"{path}: truncated header")
    try:
        header = json.loads(blob[16 : 16 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ContainerError(f"{path}: corrupt header: {exc}") from exc
    if not isinstance(header, dict):
        raise ContainerError(f"{path}: corrupt header: not a JSON object")
    hashes = header.get("sha256")
    if not isinstance(hashes, dict) or hashes.get("header") != _header_digest(header):
        raise ContainerError(f"{path}: header: hash mismatch")

    payloads: Dict[str, bytes] = {}
    pos = 16 + hlen
    for name in header.get("sections", []):
        if pos + 8 > len(blob):
            raise ContainerError(f"{path}: missing section {name}")
        (plen,) = struct.unpack("<Q", blob[pos : pos + 8])
        pos += 8
        if pos + plen > len(blob):
            raise ContainerError(f"{path}: truncated section {name}")
        payloads[name] = blob[pos : pos + plen]
        pos += plen
    if pos != len(blob):
        raise ContainerError(f"{path}: trailing bytes after last section")
    for name, payload in payloads.items():
        if hashes.get(name) != hashlib.sha256(payload).hexdigest():
            raise ContainerError(f"{path}: section {name}: hash mismatch")

    if "vocab" not in payloads:
        raise ContainerError(f"{path}: missing vocab section")

    try:
        text = payloads["vocab"].decode("utf-8")
        words = text.split("\n")[:-1]
        # Equal only if every line, the last one too, ends in a newline and
        # holds one word without whitespace.
        if text.split() != words:
            raise DataError("section vocab: not one word per line")
        vocab = Vocabulary(words)
        if len(vocab) != header.get("vocab_size"):
            raise ContainerError(f"{path}: vocab size disagrees with header")
        top = CountTable.from_keys(*_read_counts(header, payloads, len(vocab)))
        if header.get("kind") == "plre":
            return _load_plre(header, payloads, vocab, top)
        if header.get("kind") == "baseline":
            return NgramLM.build(vocab, {top.order: top}, header["smoother"])
    except LookupError as exc:
        raise ContainerError(f"{path}: missing container field {exc}") from exc
    except (DataError, TypeError, ValueError) as exc:
        raise ContainerError(f"{path}: {exc}") from exc
    raise ContainerError(f"{path}: unknown container kind {header.get('kind')!r}")


def _read_counts(header: dict, payloads: Dict[str, bytes], vsize: int):
    k = int(header["order"])
    name = f"counts.{k}"
    n = int(header["entries"][str(k)])
    cur = _Cursor(payloads[name], name)
    keys = cur.ids(n * k, vsize).reshape(n, k)
    counts = cur.array("<i8", n)
    cur.done()
    if counts.size and counts.min() < 1:
        raise ContainerError(f"section {name}: counts must be positive")
    return keys, counts


def _load_plre(
    header: dict, payloads: Dict[str, bytes], vocab: Vocabulary, top: CountTable
) -> PlreModel:
    def make_level(table: CountTable, lower: CountTable) -> PlreLevel:
        k = table.order
        ranks = header["ranks"][str(k)]

        def sized(spec: DiscountSpec, layout: SliceLayout) -> LowRankCPT:
            # Each section holds its factors alone, sized by the layout.
            name = f"z.{k}.{spec.level}"
            z = LowRankCPT(k, int(ranks[spec.level - 1]), layout, spec.sums)
            cur = _Cursor(payloads[name], name)
            z.L, z.R = cur.floats(len(z.L)), cur.floats(len(z.R))
            cur.done()
            return z

        powers = tuple(map(float, header["powers"][str(k)]))
        dstar = float(header["dstars"][str(k)])
        return PlreLevel(table, lower, dstar, powers, sized)

    levels = plre_levels(top, make_level)
    seed, warnings = int(header.get("seed", 0)), list(header.get("warnings", []))
    return PlreModel(vocab, top.order, levels, seed, warnings)
