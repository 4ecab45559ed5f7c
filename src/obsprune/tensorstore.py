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

In memory a container is an ordered dict of names to NumPy arrays:
``read_container`` returns one in file order, each array shaped by its
header, and ``write_container`` takes any mapping of names to arrays.
Both refuse, naming the tensor, a dtype other than f32/f64/u8, a 0-d
array, a zero-length dim and a u8 value other than 0 or 1.

Masks are u8 with values restricted to {0, 1} (1 = kept);
``nm_violations`` checks one against an n:m pattern. Round trips are
bit-exact: floats are never re-encoded, so NaN payloads and signed zeros
survive. The row-major flattening of each tensor is the global weight
index order every pruning module uses.

Tensor naming convention inside a container: ``layer.<id>.weight``,
``layer.<id>.grads`` (one row per sample), ``layer.<id>.mask`` and
``layer.<id>.prunable``.

Every read is a positioned read (``os.preadv``) into a new array:
``read_container`` reads each tensor whole, and ``read_gradients`` keeps
the file open and its sets read the rows asked for. Every read checks its
byte count, so a file that shrinks while it is read raises
TruncatedError and hands out no unread bytes; one replaced by
``write_container`` is still read as it was opened.
"""

from __future__ import annotations

import os
import struct
import tempfile
from typing import Iterator, Mapping

import numpy as np

MAGIC = b"OVPT"
VERSION = 1

# the dtype stored under each dtype code (its index); data is little-endian
_DTYPES = (np.dtype("<f4"), np.dtype("<f8"), np.dtype("u1"))

WEIGHT_SUFFIX = ".weight"
GRADS_SUFFIX = ".grads"
MASK_SUFFIX = ".mask"
PRUNABLE_SUFFIX = ".prunable"
_LAYER_PREFIX = "layer."
#: bytes of a gradient file's columns that a set holds at once (``_FileRows``)
STRIPE_BYTES = 16 << 20


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


def _checked(name: str, arr) -> np.ndarray:
    """``arr`` as tensor ``name`` is stored: C-contiguous, little-endian.
    Refuses a dtype other than float32, float64 or uint8, a 0-d array, a
    zero-length dim and a uint8 value other than 0 or 1."""
    arr = np.asarray(arr)
    dtype = arr.dtype.newbyteorder("<")
    if dtype not in _DTYPES:
        raise ContainerError(
            f"tensor {name!r} has dtype {arr.dtype}; use float32, float64 or uint8"
        )
    if arr.ndim == 0 or 0 in arr.shape:
        raise ContainerError(
            f"tensor {name!r} has shape {arr.shape}; it needs one or more dims, all positive"
        )
    arr = np.ascontiguousarray(arr, dtype)
    if dtype == np.uint8 and (arr > 1).any():
        raise ContainerError(f"u8 mask tensor {name!r} may only contain 0 and 1")
    return arr


def write_container(path: str, arrays: Mapping[str, np.ndarray]) -> None:
    """Serialize ``arrays`` to ``path`` in their order, each tensor shaped
    like its array (see ``_checked``). Same arrays, same bytes.

    The parts are streamed into a new sibling file, which then replaces
    ``path`` (the target of ``path`` if it is a symlink) in one
    ``os.replace``, so ``path`` may be one of the inputs the container was
    computed from, and a reader that opened the old file reads it. On any
    failure the temporary file is removed and ``path`` is left untouched.
    The new file gets the mode ``open(path, "wb")`` would leave: that of
    the file it replaces, or 0o666 less the umask.
    """
    parts = [MAGIC, struct.pack("<II", VERSION, len(arrays))]
    for name, arr in arrays.items():
        arr = _checked(name, arr)
        raw = name.encode("utf-8")
        parts.append(struct.pack("<I", len(raw)))
        parts.append(raw)
        parts.append(struct.pack("<BI", _DTYPES.index(arr.dtype), arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        parts.append(arr.reshape(-1))  # contiguous, written without a copy
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


def _read_at(fd: int, out: np.ndarray, pos: int, what: str) -> np.ndarray:
    """``out``, filled from byte ``pos`` of ``fd`` on with positioned reads;
    a short read is a file that shrank."""
    done = os.preadv(fd, [out], pos)
    while done < out.nbytes:  # cut short, as at the file's end
        got = os.preadv(fd, [out.reshape(-1).view(np.uint8)[done:]], pos + done)
        if not got:
            raise TruncatedError(f"file truncated while reading {what}")
        done += got
    return out


def _parse(fd: int) -> Iterator[tuple[str, np.dtype, tuple[int, ...], slice]]:
    """(name, dtype, dims, byte range of the data) of each tensor, in order,
    of the container open at ``fd``. Reads only the headers. Raises a
    distinct error per failure mode, trailing bytes once the last tensor
    is yielded."""
    size, pos = os.fstat(fd).st_size, 0

    def skip(n: int, what: str) -> int:  # the start of the next n bytes
        nonlocal pos
        if pos + n > size:
            raise TruncatedError(f"file truncated while reading {what}")
        pos += n
        return pos - n

    def take(n: int, what: str) -> bytes:
        return _read_at(fd, np.empty(n, np.uint8), skip(n, what), what).tobytes()

    def u32(what: str) -> int:
        return struct.unpack("<I", take(4, what))[0]

    magic = take(4, "magic")
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
    version = u32("version")
    if version != VERSION:
        raise UnsupportedVersionError(f"unsupported container version {version}")
    for _ in range(u32("tensor count")):
        name = take(u32("name length"), "tensor name").decode("utf-8")
        code = take(1, f"dtype of tensor {name!r}")[0]
        if code >= len(_DTYPES):
            raise UnknownDtypeError(f"tensor {name!r} has unknown dtype code {code}")
        dtype = _DTYPES[code]
        ndim = u32(f"ndim of tensor {name!r}")
        dims = struct.unpack(f"<{ndim}Q", take(8 * ndim, f"dims of tensor {name!r}"))
        nbytes = int(np.prod(dims, dtype=np.int64)) * dtype.itemsize
        offset = skip(nbytes, f"data of tensor {name!r}")
        yield name, dtype, tuple(int(d) for d in dims), slice(offset, offset + nbytes)
    if pos != size:
        raise ContainerError(f"{size - pos} trailing bytes after the last tensor")


def read_container(path: str) -> dict[str, np.ndarray]:
    """Parse a container file into its tensors, in file order, each a new
    array of its own shaped by its header; raises a distinct error per
    failure mode, and refuses what ``write_container`` would."""
    out = {}
    with open(path, "rb") as fh:
        for name, dtype, dims, data in _parse(fh.fileno()):
            if name in out:
                raise ContainerError(f"duplicate tensor name {name!r}")
            raw = np.empty(data.stop - data.start, np.uint8)
            _read_at(fh.fileno(), raw, data.start, f"data of tensor {name!r}")
            out[name] = _checked(name, raw.view(dtype).reshape(dims))
    return out


class GradientSet:
    """Per-sample gradient rows for one layer: shape (N, d), one row per sample.

    The rows are either stored or factored. Stored float32 and float64
    rows keep their dtype (and their memory: a view stays a view);
    anything else is converted to float64. A factored set holds a dense
    layer's output residual r (N, O) and input x (N, I), float64,
    and row n is the row-major flattening of the outer product of r[n]
    and x[n], so d = O*I. Its rows are never held: ``columns`` and
    ``rows`` form the range asked for with ``np.einsum``, each value with
    the bytes of the same entry of the whole outer product (an einsum
    writes r[n, o] * x[n, i] + 0.0, so a -0.0 product comes out +0.0),
    and ``samples`` forms them all. A set from ``read_gradients`` reads
    its rows from the file as they are asked for. Consumers read rows a
    range at a time and widen them to float64 as they go.
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
        """Every row: the stored array, or all of them formed or read."""
        return self.rows(0, self.num_samples) if self._stored is None else self._stored

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


class _Descriptor(int):
    """A file descriptor, closed when the last set reading it goes."""

    def __del__(self) -> None:
        os.close(self)


class _FileRows(GradientSet):
    """The rows of a ``.grads`` tensor at byte ``offset`` of an open file.

    ``rows`` reads its range into a new array with one positioned read.
    ``columns`` returns a view of a stripe of ``STRIPE_BYTES`` of columns
    (or the range, if wider) that starts at the first range outside the
    last one, read one positioned read per row. The build asks for columns
    in increasing order, so it reads each byte once. Calls no public
    function, so a stream on a worker thread may call it.
    """

    def __init__(self, layer: str, fd: _Descriptor, offset: int, shape, dtype) -> None:
        self.layer, self.factors, self._stored = layer, None, None
        self.num_samples, self.dim = shape
        self._fd, self._offset, self._dtype = fd, offset, dtype
        self._stripe = (0, None)  # its first column and its array

    def head(self, n: int) -> GradientSet:
        return _FileRows(self.layer, self._fd, self._offset,
                         (min(n, self.num_samples), self.dim), self._dtype)

    def rows(self, lo: int, hi: int) -> np.ndarray:
        out = np.empty((max(0, min(hi, self.num_samples) - lo), self.dim), self._dtype)
        return _read_at(self._fd, out, self._offset + lo * self.dim * out.itemsize,
                        f"gradient rows of layer {self.layer!r}")

    def columns(self, lo: int, hi: int) -> np.ndarray:
        first, stripe = self._stripe
        if stripe is None or not first <= lo <= hi <= first + stripe.shape[1]:
            self._stripe = first, stripe = lo, None  # free the last stripe first
            width = max(hi - lo, STRIPE_BYTES // (self.num_samples * self._dtype.itemsize))
            stripe = np.empty((self.num_samples, min(width, self.dim - lo)), self._dtype)
            for n, part in enumerate(stripe):
                _read_at(self._fd, part, self._offset + (n * self.dim + lo) * stripe.itemsize,
                         f"gradient rows of layer {self.layer!r}")
            self._stripe = lo, stripe
        return stripe[:, lo - first : hi - first]


class Spill:
    """An unlinked temporary file that a solve appends arrays to and reads
    back by position: the write-side twin of ``_FileRows``. It is made by
    ``tempfile.TemporaryFile``, in ``TMPDIR``, so no name of it is ever
    left on disk. Every write and read checks its byte count; a failed
    write, such as a full disk, raises OSError. The owner closes it on
    every exit path (it is a context manager)."""

    def __init__(self) -> None:
        self._file = tempfile.TemporaryFile()
        self.size = 0  # bytes written

    def __enter__(self) -> Spill:
        return self

    def __exit__(self, *exc) -> None:
        self._file.close()

    def append(self, arr: np.ndarray) -> int:
        """Writes ``arr``'s values at the end; returns their byte position."""
        data = np.ascontiguousarray(arr).reshape(-1).view(np.uint8)
        pos, done = self.size, 0
        while done < data.nbytes:
            try:
                wrote = os.pwrite(self._file.fileno(), data[done:], pos + done)
            except OSError as exc:
                raise OSError(exc.errno, f"cannot write a spill file in "
                              f"{tempfile.gettempdir()}: {exc.strerror}") from exc
            if not wrote:
                raise OSError(f"a spill file in {tempfile.gettempdir()} took no bytes")
            done += wrote
        self.size += done
        return pos

    def read(self, out: np.ndarray, pos: int) -> np.ndarray:
        """``out``, filled with the values written from byte ``pos`` on."""
        return _read_at(self._file.fileno(), out, pos, "the spill file")


def read_gradients(path: str, ids) -> dict[str, GradientSet]:
    """The ``layer.<id>.grads`` rows of each layer in ``ids`` in the
    container at ``path``, as sets that read them from the file by
    position (see the module docstring). Reads only the headers: the rows'
    values are checked by whoever reads them."""
    fd = _Descriptor(os.open(path, os.O_RDONLY))
    found = {name: (dtype, dims, data.start) for name, dtype, dims, data in _parse(fd)}
    out = {}
    for lid in ids:
        name = grads_name(lid)
        if name not in found:
            raise ContainerError(f"{path}: missing {name}")
        dtype, dims, offset = found[name]
        if dtype == np.uint8 or len(dims) != 2 or 0 in dims:
            raise ContainerError(f"{path}: {name} is not a non-empty 2-D float tensor")
        out[lid] = _FileRows(lid, fd, offset, dims, dtype)
    return out


# -- layer naming helpers ----------------------------------------------------

def weight_name(layer_id: str) -> str:
    return f"{_LAYER_PREFIX}{layer_id}{WEIGHT_SUFFIX}"


def grads_name(layer_id: str) -> str:
    return f"{_LAYER_PREFIX}{layer_id}{GRADS_SUFFIX}"


def mask_name(layer_id: str) -> str:
    return f"{_LAYER_PREFIX}{layer_id}{MASK_SUFFIX}"


def prunable_name(layer_id: str) -> str:
    return f"{_LAYER_PREFIX}{layer_id}{PRUNABLE_SUFFIX}"


def layer_ids(container: Mapping[str, object]) -> list[str]:
    """Layer ids that have a ``layer.<id>.weight`` entry, sorted.

    Numeric ids sort numerically so layer.10 comes after layer.2; the order
    must not depend on how the writer happened to arrange the container.
    """
    ids = []
    for name in container:
        if name.startswith(_LAYER_PREFIX) and name.endswith(WEIGHT_SUFFIX):
            ids.append(name[len(_LAYER_PREFIX) : -len(WEIGHT_SUFFIX)])
    return sorted(ids, key=lambda s: (0, int(s)) if s.isdigit() else (1, s))
