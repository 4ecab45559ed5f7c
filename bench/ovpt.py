"""Reader and writer for the OVPT container, written from the documented format.

The benchmark writes its inputs and reads the program's outputs with this
module instead of ``obsprune.tensorstore``, so that a fault in the
program's container code cannot hide itself behind the output checks.

    "OVPT" | version u32 = 1 | count u32 | count x [ name_len u32 | name utf-8 |
            dtype u8 (0 f32, 1 f64, 2 u8) | ndim u32 | ndim x dim u64 | raw bytes ]

All integers and payloads are little-endian.
"""

from __future__ import annotations

import struct

import numpy as np

MAGIC = b"OVPT"
VERSION = 1
_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8"), 2: np.dtype("u1")}
_BY_KIND = {("f", 4): 0, ("f", 8): 1, ("u", 1): 2}


class FormatError(Exception):
    """The bytes do not follow the OVPT format."""


def write(path: str, tensors: dict[str, np.ndarray]) -> None:
    """Write ``tensors`` in insertion order."""
    parts = [MAGIC, struct.pack("<II", VERSION, len(tensors))]
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr)
        code = _BY_KIND.get((arr.dtype.kind, arr.dtype.itemsize))
        if code is None:
            raise FormatError(f"{name}: dtype {arr.dtype} has no OVPT code")
        raw = name.encode("utf-8")
        parts += [
            struct.pack("<I", len(raw)), raw,
            struct.pack("<BI", code, arr.ndim),
            struct.pack(f"<{arr.ndim}Q", *arr.shape),
            arr.astype(_CODES[code], copy=False).tobytes(),
        ]
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def read(path: str) -> dict[str, np.ndarray]:
    """Parse a whole container; every deviation from the format raises."""
    with open(path, "rb") as fh:
        buf = fh.read()
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(buf):
            raise FormatError(f"{path}: truncated at byte {pos}")
        out = buf[pos:pos + n]
        pos += n
        return out

    if take(4) != MAGIC:
        raise FormatError(f"{path}: bad magic")
    version, count = struct.unpack("<II", take(8))
    if version != VERSION:
        raise FormatError(f"{path}: version {version}")
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4))
        name = take(name_len).decode("utf-8")
        code, ndim = struct.unpack("<BI", take(5))
        if code not in _CODES or name in out:
            raise FormatError(f"{path}: tensor {name!r} has dtype code {code} or is repeated")
        dims = struct.unpack(f"<{ndim}Q", take(8 * ndim))
        dtype = _CODES[code]
        size = int(np.prod(dims, dtype=np.int64))
        out[name] = np.frombuffer(take(size * dtype.itemsize), dtype=dtype).reshape(dims)
    if pos != len(buf):
        raise FormatError(f"{path}: {len(buf) - pos} trailing bytes")
    return out
