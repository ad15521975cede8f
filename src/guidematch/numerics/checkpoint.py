"""Binary checkpoint format for named float64 arrays.

Layout (little-endian): magic ``GMCK``, version u32, parameter count u32,
then per parameter: name length u32, UTF-8 name, rank u32, extents u32[],
raw float64 values.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

MAGIC = b"GMCK"
VERSION = 1


def save_checkpoint(path, arrays: dict[str, np.ndarray]) -> None:
    path = Path(path)
    chunks = [MAGIC, struct.pack("<II", VERSION, len(arrays))]
    for name, arr in arrays.items():
        a = np.array(arr, dtype=np.float64, copy=None, order="C")
        nb = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(nb)))
        chunks.append(nb)
        chunks.append(struct.pack("<I", a.ndim))
        if a.ndim:
            chunks.append(struct.pack(f"<{a.ndim}I", *a.shape))
        chunks.append(a.astype("<f8").tobytes())
    path.write_bytes(b"".join(chunks))


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a checkpoint; a ValueError naming ``path`` reports a wrong magic
    or version, a name that is not UTF-8, a file cut short anywhere, and
    bytes after the last array."""
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        raise ValueError(f"{path}: not a checkpoint file (bad magic {raw[:4]!r})")
    offset = 4

    def take(n: int, what: str) -> bytes:
        nonlocal offset
        if offset + n > len(raw):
            raise ValueError(f"{path}: truncated checkpoint while reading {what}")
        offset += n
        return raw[offset - n : offset]

    version, count = struct.unpack("<II", take(8, "the header"))
    if version != VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    out: dict[str, np.ndarray] = {}
    for i in range(count):
        (name_len,) = struct.unpack("<I", take(4, f"the name length of array {i}"))
        try:
            name = take(name_len, f"the name of array {i}").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: the name of array {i} is not UTF-8") from exc
        (rank,) = struct.unpack("<I", take(4, f"the rank of {name!r}"))
        shape = struct.unpack(f"<{rank}I", take(4 * rank, f"the shape of {name!r}"))
        n = int(np.prod(shape, dtype=np.int64))
        out[name] = np.frombuffer(take(8 * n, repr(name)), dtype="<f8").reshape(shape).astype(np.float64)
    if offset != len(raw):
        raise ValueError(f"{path}: {len(raw) - offset} trailing bytes after the last array")
    return out
