"""Binary model containers.

Layout: 4 magic bytes ``PLRE``, a little-endian u32 format version, a u64
header length, a canonical JSON header (sorted keys, no whitespace), then
for each name in ``header["sections"]`` (in order) a u64 payload length and
the payload bytes.  The header holds a sha256 of every payload.  Payloads
are bare little-endian arrays (word ids i32, counts i64, floats f64); a PLRE
model stores, per order k with n entries and m contexts:

    counts.k    n x k keys, sorted by context then word; n counts
    top.k       n top numerators
    gamma.k     one row of m hand-off weights per chain step
    z.k.j       s slice keys (k-2 ids each) and dims (rows, cols, rank),
                then all row ids, column ids, L and R factors, concatenated
    zden.k.j    m powered context sums

then ``base_counts``.  A baseline model stores ``counts.k`` per order.
Contexts are derived from the keys on load, so each key array is stored
once.  Every float that a query can touch is stored verbatim rather than
recomputed, so a loaded model answers queries bit-identically and a rebuild
with the same seed produces byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import struct
from typing import Dict, List, Optional, Tuple

import numpy as np

from .baselines import DiscountParams, NgramLM
from .corpus import Vocabulary
from .ensemble import LowRankCPT, PlreLevel, PlreModel
from .errors import ContainerError, DataError

MAGIC = b"PLRE"
FORMAT_VERSION = 2


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


def _assemble(header: dict, sections: List[Tuple[str, bytes]]) -> bytes:
    header = dict(header)
    header["sections"] = [name for name, _ in sections]
    header["sha256"] = {name: hashlib.sha256(data).hexdigest() for name, data in sections}
    hjson = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [MAGIC, struct.pack("<I", FORMAT_VERSION), struct.pack("<Q", len(hjson)), hjson]
    for _, payload in sections:
        parts.append(struct.pack("<Q", len(payload)))
        parts.append(payload)
    return b"".join(parts)


def save_model(model, path: str, config_echo: Optional[dict] = None) -> None:
    """Serialize an NgramLM or PlreModel to a container file."""
    if not isinstance(model, (PlreModel, NgramLM)):
        raise TypeError(f"cannot serialize {type(model).__name__}")
    header = {
        "format_version": FORMAT_VERSION,
        "order": model.order,
        "smoother": model.smoother,
        "vocab_size": len(model.vocab),
        "entries": {},
    }
    if config_echo is not None:
        header["config"] = config_echo
    vocab_text = "".join(line + "\n" for line in model.vocab.export_lines())
    sections: List[Tuple[str, bytes]] = [("vocab", vocab_text.encode("utf-8"))]

    if isinstance(model, PlreModel):
        header["kind"] = "plre"
        header["seed"] = model.seed
        header["dstars"] = {str(k): model.dstars[k] for k in model.dstars}
        header["powers"] = {
            str(k): list(level.powers) for k, level in model.levels.items()
        }
        header["ranks"] = {
            str(k): list(model.resolved_ranks[k]) for k in model.resolved_ranks
        }
        header["warnings"] = list(model.warnings)
        header["slices"] = {}
        for k in range(model.order, 1, -1):
            level = model.levels[k]
            header["entries"][str(k)] = len(level.keys)
            table = _bytes(level.keys, "<i4") + _bytes(level.counts, "<i8")
            sections.append((f"counts.{k}", table))
            sections.append((f"top.{k}", _bytes(level.top, "<f8")))
            sections.append((f"gamma.{k}", _bytes(level.gammas, "<f8")))
            for j, z in enumerate(level.z_tables, start=1):
                header["slices"][f"{k}.{j}"] = len(z.slices)
                ints = [_bytes(a, "<i4") for a in (z.slices, z.dims, z.row_ids, z.col_ids)]
                floats = [_bytes(a, "<f8") for a in (z.L, z.R)]
                sections.append((f"z.{k}.{j}", b"".join(ints + floats)))
                sections.append((f"zden.{k}.{j}", _bytes(z.denominators, "<f8")))
        sections.append(("base_counts", _bytes(model.base_counts, "<i8")))
    else:
        header["kind"] = "baseline"
        header["discounts"] = {
            str(k): [dp.d1, dp.d2, dp.d3plus] for k, dp in model.discounts.items()
        }
        for k, (keys, counts) in sorted(model.count_arrays().items()):
            header["entries"][str(k)] = len(keys)
            sections.append((f"counts.{k}", _bytes(keys, "<i4") + _bytes(counts, "<i8")))

    with open(path, "wb") as fh:
        fh.write(_assemble(header, sections))


def load_model(path: str):
    """Load a container; returns an NgramLM or a PlreModel.

    Every section must match its header hash and hold well-formed arrays:
    ids in [0, V), keys sorted by context then word without duplicates,
    finite nonnegative floats, positive counts, and lengths and ranks that
    agree with the header.  Anything else is a ContainerError.
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
    hashes = header.get("sha256")
    for name, payload in payloads.items():
        digest = hashlib.sha256(payload).hexdigest()
        if not isinstance(hashes, dict) or hashes.get(name) != digest:
            raise ContainerError(f"{path}: section {name}: hash mismatch")

    if "vocab" not in payloads:
        raise ContainerError(f"{path}: missing vocab section")
    if not payloads["vocab"].endswith(b"\n"):
        raise ContainerError(f"{path}: section vocab: truncated payload")

    try:
        vocab = Vocabulary.from_export_lines(payloads["vocab"].decode("utf-8").split("\n"))
        if len(vocab) != header.get("vocab_size"):
            raise ContainerError(f"{path}: vocab size disagrees with header")
        if header.get("kind") == "plre":
            return _load_plre(header, payloads, vocab)
        if header.get("kind") == "baseline":
            return _load_baseline(header, payloads, vocab)
    except LookupError as exc:
        raise ContainerError(f"{path}: missing container field {exc}") from exc
    except (DataError, TypeError, ValueError) as exc:
        raise ContainerError(f"{path}: {exc}") from exc
    raise ContainerError(f"{path}: unknown container kind {header.get('kind')!r}")


def _read_counts(header: dict, payloads: Dict[str, bytes], k: int, vsize: int):
    name = f"counts.{k}"
    n = int(header["entries"][str(k)])
    cur = _Cursor(payloads[name], name)
    keys = cur.ids(n * k, vsize).reshape(n, k)
    counts = cur.array("<i8", n)
    cur.done()
    if counts.size and counts.min() < 1:
        raise ContainerError(f"section {name}: counts must be positive")
    return keys, counts


def _read_floats(payloads: Dict[str, bytes], name: str) -> np.ndarray:
    cur = _Cursor(payloads[name], name)
    out = cur.floats(len(cur.buf) // 8)
    cur.done()
    return out


def _read_slices(payloads: Dict[str, bytes], name: str, k: int, s: int, vsize: int):
    cur = _Cursor(payloads[name], name)
    slices = cur.ids(s * (k - 2), vsize).reshape(s, k - 2)
    dims = cur.array("<i4", 3 * s).reshape(s, 3)
    if dims.size and (dims.min() < 1 or dims.max() > vsize):
        raise ContainerError(f"section {name}: slice dims outside [1, {vsize}]")
    rows, cols, ranks = dims.astype(np.int64).T
    out = dict(
        slices=slices,
        dims=dims,
        row_ids=cur.ids(int(rows.sum()), vsize),
        col_ids=cur.ids(int(cols.sum()), vsize),
        L=cur.floats(int((rows * ranks).sum())),
        R=cur.floats(int((ranks * cols).sum())),
    )
    cur.done()
    return out


def _load_baseline(header: dict, payloads: Dict[str, bytes], vocab: Vocabulary) -> NgramLM:
    order = int(header["order"])
    tables = {k: _read_counts(header, payloads, k, len(vocab)) for k in range(1, order + 1)}
    discounts = {
        int(k): DiscountParams(*map(float, v)) for k, v in header["discounts"].items()
    }
    return NgramLM(vocab, order, header["smoother"], tables, discounts)


def _load_plre(header: dict, payloads: Dict[str, bytes], vocab: Vocabulary) -> PlreModel:
    order = int(header["order"])
    vsize = len(vocab)
    dstars = {int(k): float(v) for k, v in header["dstars"].items()}
    if not all(0.0 < d < 1.0 for d in dstars.values()):
        raise ContainerError("discount d* outside (0, 1)")
    powers = {int(k): tuple(map(float, v)) for k, v in header["powers"].items()}
    ranks = {int(k): tuple(map(int, v)) for k, v in header["ranks"].items()}
    levels: Dict[int, PlreLevel] = {}
    for k in range(order, 1, -1):
        keys, counts = _read_counts(header, payloads, k, vsize)
        eta = len(powers[k])
        z_tables = [
            LowRankCPT(
                k,
                ranks[k][j - 1],
                denominators=_read_floats(payloads, f"zden.{k}.{j}"),
                **_read_slices(
                    payloads, f"z.{k}.{j}", k, int(header["slices"][f"{k}.{j}"]), vsize
                ),
            )
            for j in range(1, eta + 1)
        ]
        levels[k] = PlreLevel(
            order=k,
            dstar=dstars[k],
            powers=powers[k],
            keys=keys,
            counts=counts,
            top=_read_floats(payloads, f"top.{k}"),
            gammas=_read_floats(payloads, f"gamma.{k}").reshape(eta + 1, -1),
            z_tables=z_tables,
        )
    cur = _Cursor(payloads["base_counts"], "base_counts")
    base_counts = cur.array("<i8", vsize)
    cur.done()
    if base_counts.min() < 0:
        raise ContainerError("section base_counts: negative count")
    return PlreModel(
        vocab,
        order,
        levels,
        base_counts,
        dstars,
        ranks,
        int(header.get("seed", 0)),
        list(header.get("warnings", [])),
    )
