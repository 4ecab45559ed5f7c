"""Bit-exact binary container for named tensors.

Everything the pruning tools exchange on disk (weights, gradient samples,
masks, prunability flags) travels in one self-describing little-endian
format:

    magic    4 bytes   b"OVPT"
    version  u32       currently 1
    count    u32       number of tensors
    then per tensor, in container order:
        name_len  u32
        name      UTF-8 bytes
        dtype     u8        0 = f32, 1 = f64, 2 = u8 mask
        ndim      u32
        dims      ndim x u64
        data      raw row-major values, little-endian

Masks are u8 with values restricted to {0, 1} (1 = kept);
``nm_violations`` checks one against an n:m pattern. Round trips are
bit-exact: floats are never re-encoded, so NaN payloads and signed zeros
survive. The row-major flattening of each tensor is the global weight
index order every pruning module uses.

Tensor naming convention inside a container: ``layer.<id>.weight``,
``layer.<id>.grads`` (one row per sample), ``layer.<id>.mask`` and
``layer.<id>.prunable``.

Reading maps the file copy-on-write instead of copying it into memory:
every tensor is a writable view into one private mapping, pages are read
only when touched, and writes to a view never reach the file. Writing never
truncates a file in place, because touching a mapping of a truncated file
kills the process with SIGBUS: the bytes go to a sibling temporary file
that then atomically replaces the destination, so readers that still map
the old file keep its old bytes.

Pages of the mapping that were read once stay resident until the mapping
goes. The private helper ``_release_pages`` drops the whole pages of a
view's bytes from it again (``madvise(MADV_DONTNEED)``), so that a
consumer which reads gradient rows once can keep its memory to the rows
it is reading; a later read maps them in again from the file. On a
private mapping that also discards what was written to a page, so it
releases only read-only views, which is how the CLI hands gradient rows
out; a writable view or an in-memory array is never released.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from typing import Iterator, Mapping

import numpy as np

MAGIC = b"OVPT"
VERSION = 1

# dtype tag <-> numpy dtype; stored data is always little-endian
_CODE_TO_NAME = {0: "f32", 1: "f64", 2: "u8"}
_NAME_TO_CODE = {v: k for k, v in _CODE_TO_NAME.items()}
_NAME_TO_NP = {
    "f32": np.dtype("<f4"),
    "f64": np.dtype("<f8"),
    "u8": np.dtype("u1"),
}
_KIND_TO_NAME = {"f4": "f32", "f8": "f64", "u1": "u8"}

WEIGHT_SUFFIX = ".weight"
GRADS_SUFFIX = ".grads"
MASK_SUFFIX = ".mask"
PRUNABLE_SUFFIX = ".prunable"
_LAYER_PREFIX = "layer."


class ContainerError(Exception):
    """Base class for container parse/encode failures."""


class BadMagicError(ContainerError):
    """File does not start with the OVPT magic."""


class TruncatedError(ContainerError):
    """File ended before the advertised payload was complete."""


class UnknownDtypeError(ContainerError):
    """Tensor header used a dtype code this reader does not know."""


class UnsupportedVersionError(ContainerError):
    """Container version is not one this reader supports."""


def _dtype_name_for(arr: np.ndarray) -> str:
    key = arr.dtype.str.lstrip("<>|=")
    if key not in _KIND_TO_NAME:
        raise ContainerError(
            f"array dtype {arr.dtype} not storable; use float32, float64 or uint8"
        )
    return _KIND_TO_NAME[key]


@dataclass(frozen=True)
class Tensor:
    """One named payload: dtype tag, shape, and flat row-major data."""

    dtype: str
    dims: tuple[int, ...]
    data: np.ndarray  # 1-D, little-endian, row-major

    def __post_init__(self) -> None:
        if self.dtype not in _NAME_TO_NP:
            raise UnknownDtypeError(f"unknown dtype name {self.dtype!r}")
        if len(self.dims) == 0:
            raise ContainerError("tensor dims must be non-empty")
        if any(int(d) <= 0 for d in self.dims):
            raise ContainerError(f"tensor dims must be positive, got {self.dims}")
        want = int(np.prod(self.dims, dtype=np.int64))
        flat = np.ascontiguousarray(self.data, dtype=_NAME_TO_NP[self.dtype]).reshape(-1)
        if flat.size != want:
            raise ContainerError(
                f"data has {flat.size} elements, dims {self.dims} imply {want}"
            )
        if self.dtype == "u8" and flat.size and not np.all((flat == 0) | (flat == 1)):
            raise ContainerError("u8 mask tensors may only contain 0 and 1")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "data", flat)

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "Tensor":
        arr = np.asarray(arr)
        return cls(_dtype_name_for(arr), tuple(arr.shape), arr.reshape(-1))

    def array(self) -> np.ndarray:
        """Return the data reshaped to ``dims`` (shares memory)."""
        return self.data.reshape(self.dims)

    def __eq__(self, other: object) -> bool:  # bitwise, NaN-safe
        if not isinstance(other, Tensor):
            return NotImplemented
        return (
            self.dtype == other.dtype
            and self.dims == other.dims
            and self.data.tobytes() == other.data.tobytes()
        )

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("Tensor is not hashable")


def nm_violations(mask: np.ndarray, n: int, m: int) -> int:
    """Count aligned m-groups whose mask keeps more than n entries.

    A group with *extra* zeros still fits the hardware pattern, so only
    under-sparse groups (fewer than m-n mask zeros) are violations.
    """
    mask = np.asarray(mask).reshape(-1)
    if mask.size % m:
        raise ValueError(f"mask size {mask.size} is not divisible by m={m}")
    kept = (mask != 0).reshape(-1, m).sum(axis=1)
    return int(np.count_nonzero(kept > n))


@dataclass
class TensorContainer:
    """Ordered mapping of names to tensors; iteration order is insertion order."""

    entries: dict[str, Tensor] = field(default_factory=dict)
    version: int = VERSION

    def add(self, name: str, tensor: Tensor | np.ndarray) -> None:
        if name in self.entries:
            raise ContainerError(f"duplicate tensor name {name!r}")
        if not isinstance(tensor, Tensor):
            tensor = Tensor.from_array(tensor)
        self.entries[name] = tensor

    def __getitem__(self, name: str) -> Tensor:
        return self.entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[str]:
        return iter(self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TensorContainer):
            return NotImplemented
        return (
            self.version == other.version
            and list(self.entries) == list(other.entries)
            and all(self.entries[k] == other.entries[k] for k in self.entries)
        )


def write_container(path: str, container: TensorContainer) -> None:
    """Serialize ``container`` to ``path``. Same container, same bytes.

    The parts are streamed into a new sibling file, which then replaces
    ``path`` (the target of ``path`` if it is a symlink) in one
    ``os.replace``. Arrays read from the old file stay valid, and ``path``
    may be one of the inputs the container was computed from. On any
    failure the temporary file is removed and ``path`` is left untouched.
    The new file gets the mode ``open(path, "wb")`` would leave: that of
    the file it replaces, or 0o666 less the umask.
    """
    if container.version != VERSION:
        raise UnsupportedVersionError(f"cannot write version {container.version}")
    parts = [MAGIC, struct.pack("<II", container.version, len(container.entries))]
    for name, t in container.entries.items():
        raw = name.encode("utf-8")
        parts.append(struct.pack("<I", len(raw)))
        parts.append(raw)
        parts.append(struct.pack("<BI", _NAME_TO_CODE[t.dtype], len(t.dims)))
        parts.append(struct.pack(f"<{len(t.dims)}Q", *t.dims))
        parts.append(t.data)  # contiguous little-endian, written without a copy
    dest = os.path.realpath(path)
    try:
        mode = os.stat(dest).st_mode & 0o777
    except FileNotFoundError:
        mode = None
    head, tail = os.path.split(dest)
    tmp = os.path.join(head, f".{tail}.{os.urandom(8).hex()}.tmp")
    fh = os.fdopen(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), "wb")
    try:
        with fh:
            if mode is not None:
                os.fchmod(fh.fileno(), mode)
            fh.writelines(parts)
        os.replace(tmp, dest)
    except BaseException:
        os.unlink(tmp)
        raise


class _Cursor:
    def __init__(self, buf: memoryview):
        self.buf = buf
        self.pos = 0

    def view(self, n: int, what: str) -> memoryview:
        end = self.pos + n
        if end > len(self.buf):
            raise TruncatedError(f"file truncated while reading {what}")
        out = self.buf[self.pos : end]
        self.pos = end
        return out

    def take(self, n: int, what: str) -> bytes:
        return bytes(self.view(n, what))

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]


def read_container(path: str) -> TensorContainer:
    """Parse a container file; raises a distinct error per failure mode.

    The file is mapped once, copy-on-write (``mmap.ACCESS_COPY``); every
    tensor's data is a writable view into that one mapping, never a copy.
    Pages are read from the file only when touched, and writes to a view
    stay private to this process. ``write_container`` replaces files
    instead of truncating them, so rewriting ``path`` leaves these views
    valid.
    """
    import mmap  # here, so that commands which read no container never load it

    with open(path, "rb") as fh:
        empty = os.fstat(fh.fileno()).st_size == 0  # mmap rejects empty files
        buf = b"" if empty else mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
    cur = _Cursor(memoryview(buf))
    magic = cur.take(4, "magic")
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
    version = cur.u32("version")
    if version != VERSION:
        raise UnsupportedVersionError(f"unsupported container version {version}")
    count = cur.u32("tensor count")
    out = TensorContainer(version=version)
    for _ in range(count):
        name_len = cur.u32("name length")
        name = cur.take(name_len, "tensor name").decode("utf-8")
        code = cur.u8(f"dtype of tensor {name!r}")
        if code not in _CODE_TO_NAME:
            raise UnknownDtypeError(f"tensor {name!r} has unknown dtype code {code}")
        dtype = _CODE_TO_NAME[code]
        ndim = cur.u32(f"ndim of tensor {name!r}")
        dims_raw = cur.take(8 * ndim, f"dims of tensor {name!r}")
        dims = struct.unpack(f"<{ndim}Q", dims_raw)
        np_dtype = _NAME_TO_NP[dtype]
        n_elem = int(np.prod(dims, dtype=np.int64)) if ndim else 0
        raw = cur.view(n_elem * np_dtype.itemsize, f"data of tensor {name!r}")
        data = np.frombuffer(raw, dtype=np_dtype)
        out.add(name, Tensor(dtype, tuple(int(d) for d in dims), data))
    if cur.pos != len(buf):
        raise ContainerError(
            f"{len(buf) - cur.pos} trailing bytes after the last tensor"
        )
    return out


def _release_pages(view: np.ndarray) -> None:
    """Drop the whole pages of ``view``'s bytes from its file mapping.

    Does nothing unless ``view`` is read-only, C-contiguous and a view
    into a ``read_container`` mapping, or where ``madvise`` is missing.
    Edge pages that the view shares with other bytes are kept. It calls no
    public function, so a stream on a worker thread may call it.
    """
    if view.flags.writeable or not view.flags.c_contiguous or not view.nbytes:
        return
    owner = view
    while isinstance(owner, np.ndarray):
        owner = owner.base
    import mmap  # loaded already if ``view`` is in a mapping

    owner = owner.obj if isinstance(owner, memoryview) else owner
    if not isinstance(owner, mmap.mmap) or not hasattr(mmap, "MADV_DONTNEED"):
        return
    origin = np.frombuffer(owner, dtype=np.uint8).__array_interface__["data"][0]
    start = view.__array_interface__["data"][0] - origin
    page = mmap.PAGESIZE
    lo, hi = -(-start // page) * page, (start + view.nbytes) // page * page
    if hi > lo:
        owner.madvise(mmap.MADV_DONTNEED, lo, hi - lo)


class GradientSet:
    """Per-sample gradient rows for one layer: shape (N, d), one row per sample.

    The rows are either stored or factored. Stored float32 and float64
    rows keep their dtype (and their memory: a container view stays a
    view); anything else is converted to float64. A factored set holds a
    dense layer's output residual r (N, O) and input x (N, I), float64,
    and row n is the row-major flattening of the outer product of r[n]
    and x[n], so d = O*I. Its rows are never held: ``columns`` and
    ``rows`` form the range asked for with ``np.einsum``, each value with
    the bytes of the same entry of the whole outer product (an einsum
    writes r[n, o] * x[n, i] + 0.0, so a -0.0 product comes out +0.0),
    and ``samples`` forms them all. Consumers read rows a range at a time
    and widen them to float64 as they go.
    """

    def __init__(self, layer: str, samples=None, factors=None) -> None:
        if (samples is None) == (factors is None):
            raise ValueError(f"gradient set for {layer!r} needs either rows or factors")
        self.layer, self.factors, self._stored = layer, None, None
        if factors is not None:
            r, x = (np.asarray(f, dtype=np.float64) for f in factors)
            if r.ndim != 2 or x.ndim != 2 or r.shape[0] != x.shape[0]:
                raise ValueError(f"factors for {layer!r} must be (N, O) and (N, I)")
            self.factors, shape = (r, x), (r.shape[0], r.shape[1] * x.shape[1])
        else:
            s = np.asarray(samples)
            if s.dtype not in (np.float32, np.float64):
                s = s.astype(np.float64)
            if s.ndim != 2:
                raise ValueError(f"gradient samples for {layer!r} must be 2-D")
            self._stored, shape = s, s.shape
        if shape[0] < 1:
            raise ValueError(f"gradient set for {layer!r} needs at least one row")
        self.num_samples, self.dim = int(shape[0]), int(shape[1])

    @property
    def samples(self) -> np.ndarray:
        """Every row: the stored array, or all of them formed."""
        return self._stored if self.factors is None else self.rows(0, self.num_samples)

    def head(self, n: int) -> GradientSet:
        """The first ``n`` rows, sharing this set's memory."""
        if self.factors is None:
            return GradientSet(self.layer, self._stored[:n])
        return GradientSet(self.layer, factors=[f[:n] for f in self.factors])

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows ``lo:hi``: a view of stored rows, or a formed array."""
        if self.factors is None:
            return self._stored[lo:hi]
        r, x = self.factors
        return np.einsum("no,ni->noi", r[lo:hi], x[lo:hi]).reshape(-1, self.dim)

    def columns(self, lo: int, hi: int) -> np.ndarray:
        """Columns ``lo:hi`` of every row: a view of stored rows, or a
        formed C-contiguous array, filled a run of whole weight rows (one
        outer product) or a part of one weight row at a time."""
        if self.factors is None:
            return self._stored[:, lo:hi]
        r, x = self.factors
        width = x.shape[1]
        out = np.empty((len(r), hi - lo))
        pos = 0
        while pos < hi - lo:
            o, i = divmod(lo + pos, width)
            k = (hi - lo - pos) // width if i == 0 else 0
            if k:
                part = out[:, pos : pos + k * width].reshape(-1, k, width)  # a view
                np.einsum("no,ni->noi", r[:, o : o + k], x, out=part)
                pos += k * width
            else:
                k = min(width - i, hi - lo - pos)
                np.einsum("n,ni->ni", r[:, o], x[:, i : i + k], out=out[:, pos : pos + k])
                pos += k
        return out

    def release(self) -> None:
        """Drop the pages of stored read-only mapped rows (see
        ``_release_pages``); a factored set holds no such pages."""
        if self.factors is None:
            _release_pages(self._stored)


# -- layer naming helpers ----------------------------------------------------

def weight_name(layer_id: str) -> str:
    return f"{_LAYER_PREFIX}{layer_id}{WEIGHT_SUFFIX}"


def grads_name(layer_id: str) -> str:
    return f"{_LAYER_PREFIX}{layer_id}{GRADS_SUFFIX}"


def mask_name(layer_id: str) -> str:
    return f"{_LAYER_PREFIX}{layer_id}{MASK_SUFFIX}"


def prunable_name(layer_id: str) -> str:
    return f"{_LAYER_PREFIX}{layer_id}{PRUNABLE_SUFFIX}"


def layer_ids(container: TensorContainer | Mapping[str, object]) -> list[str]:
    """Layer ids that have a ``layer.<id>.weight`` entry, sorted.

    Numeric ids sort numerically so layer.10 comes after layer.2; the order
    must not depend on how the writer happened to arrange the container.
    """
    ids = []
    for name in container:
        if name.startswith(_LAYER_PREFIX) and name.endswith(WEIGHT_SUFFIX):
            ids.append(name[len(_LAYER_PREFIX) : -len(WEIGHT_SUFFIX)])
    return sorted(ids, key=lambda s: (0, int(s)) if s.isdigit() else (1, s))
