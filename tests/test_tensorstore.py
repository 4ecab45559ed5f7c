"""Container format: round trips, error taxonomy, naming helpers."""

import os
import pathlib
import stat
import struct
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import obsprune
from obsprune import tensorstore
from obsprune.tensorstore import (
    BadMagicError,
    ContainerError,
    GradientSet,
    Tensor,
    TensorContainer,
    TruncatedError,
    UnknownDtypeError,
    UnsupportedVersionError,
    grads_name,
    layer_ids,
    mask_name,
    read_container,
    read_gradients,
    weight_name,
    write_container,
)


def roundtrip(tmp_path, box):
    path = tmp_path / "t.ovpt"
    write_container(path, box)
    return read_container(path)


def test_roundtrip_preserves_everything(tmp_path):
    box = TensorContainer()
    box.add("layer.0.weight", np.arange(12, dtype=np.float64).reshape(3, 4))
    box.add("layer.0.mask", np.array([0, 1, 1], dtype=np.uint8))
    box.add("layer.1.weight", np.float32([[1.5, -2.5]]))
    out = roundtrip(tmp_path, box)
    assert list(out) == ["layer.0.weight", "layer.0.mask", "layer.1.weight"]
    assert out == box
    assert out["layer.1.weight"].dtype == "f32"
    assert out["layer.0.weight"].dims == (3, 4)


def test_roundtrip_is_bit_exact_for_awkward_floats(tmp_path):
    vals = np.array([0.1, -0.0, np.nextafter(1.0, 2.0), 1e-300, np.nan, np.inf])
    box = TensorContainer()
    box.add("layer.0.weight", vals)
    out = roundtrip(tmp_path, box)
    assert out["layer.0.weight"].data.tobytes() == vals.tobytes()


@settings(max_examples=50, deadline=None)
@given(
    shape=st.lists(st.integers(1, 5), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
    dtype=st.sampled_from(["f32", "f64"]),
)
def test_roundtrip_property(tmp_path_factory, shape, seed, dtype):
    rng = np.random.default_rng(seed)
    arr = rng.standard_normal(shape)
    arr = arr.astype(np.float32 if dtype == "f32" else np.float64)
    box = TensorContainer()
    box.add("layer.0.weight", arr)
    path = tmp_path_factory.mktemp("rt") / "t.ovpt"
    write_container(path, box)
    back = read_container(path)["layer.0.weight"]
    assert back.dtype == dtype
    assert back.dims == tuple(shape)
    np.testing.assert_array_equal(back.array(), arr)


def test_write_then_read_twice_identical_bytes(tmp_path):
    box = TensorContainer()
    box.add("layer.0.weight", np.linspace(0, 1, 7))
    p1, p2 = tmp_path / "a.ovpt", tmp_path / "b.ovpt"
    write_container(p1, box)
    write_container(p2, box)
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.ovpt"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(BadMagicError):
        read_container(path)


def test_unsupported_version(tmp_path):
    box = TensorContainer()
    box.add("layer.0.weight", np.zeros(2))
    path = tmp_path / "t.ovpt"
    write_container(path, box)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(UnsupportedVersionError):
        read_container(path)


def test_unknown_dtype_code(tmp_path):
    box = TensorContainer()
    box.add("x", np.zeros(2))
    path = tmp_path / "t.ovpt"
    write_container(path, box)
    raw = bytearray(path.read_bytes())
    # dtype byte sits right after magic+version+count+name_len+name
    off = 4 + 4 + 4 + 4 + len("x")
    assert raw[off] in (0, 1, 2)
    raw[off] = 77
    path.write_bytes(bytes(raw))
    with pytest.raises(UnknownDtypeError):
        read_container(path)


@pytest.mark.parametrize("cut", [2, 5, 9, 16, -1])
def test_truncation_always_raises_truncated(tmp_path, cut):
    box = TensorContainer()
    box.add("layer.0.weight", np.arange(6, dtype=np.float64))
    box.add("layer.0.mask", np.ones(6, dtype=np.uint8))
    path = tmp_path / "t.ovpt"
    write_container(path, box)
    raw = path.read_bytes()
    path.write_bytes(raw[:cut] if cut > 0 else raw[:-1])
    with pytest.raises(TruncatedError):
        read_container(path)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_truncation_fuzz_never_misparses(tmp_path_factory, data):
    """Any strict prefix of a valid file must raise a container error,
    never return garbage or crash with an unrelated exception."""
    box = TensorContainer()
    box.add("layer.0.weight", np.arange(5, dtype=np.float32))
    path = tmp_path_factory.mktemp("fz") / "t.ovpt"
    write_container(path, box)
    raw = path.read_bytes()
    cut = data.draw(st.integers(0, len(raw) - 1))
    path.write_bytes(raw[:cut])
    with pytest.raises(ContainerError):
        read_container(path)


def test_empty_file_raises_truncated(tmp_path):
    path = tmp_path / "empty.ovpt"
    path.write_bytes(b"")
    with pytest.raises(TruncatedError):
        read_container(path)


def test_trailing_garbage_rejected(tmp_path):
    box = TensorContainer()
    box.add("x", np.zeros(3))
    path = tmp_path / "t.ovpt"
    write_container(path, box)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ContainerError):
        read_container(path)


def test_duplicate_name_rejected():
    box = TensorContainer()
    box.add("x", np.zeros(2))
    with pytest.raises(ContainerError):
        box.add("x", np.zeros(2))


def test_mask_values_validated():
    with pytest.raises(ContainerError):
        Tensor.from_array(np.array([0, 1, 2], dtype=np.uint8))


def test_gradient_set_shape_checks():
    g = GradientSet("0", np.ones((4, 3)))
    assert g.num_samples == 4 and g.dim == 3
    with pytest.raises(ValueError):
        GradientSet("0", np.ones(3))
    with pytest.raises(ValueError):
        GradientSet("0", np.ones((0, 3)))


def test_gradient_set_keeps_float_rows_as_stored():
    rows32 = np.ones((4, 3), dtype=np.float32)
    assert GradientSet("0", rows32).samples is rows32
    rows64 = np.ones((4, 3))
    assert GradientSet("0", rows64).samples is rows64
    assert GradientSet("0", np.ones((4, 3), dtype=np.int64)).samples.dtype == np.float64


# -- gradient rows read by position ---------------------------------------------

def grads_file(tmp_path, rows, name="g.ovpt"):
    """A container of a weight, layer "0"'s rows and layer "1"'s rows
    reversed, so the rows sit at an offset that is no multiple of a page."""
    box = TensorContainer()
    box.add(weight_name("0"), np.zeros(3))
    box.add(grads_name("0"), rows)
    box.add(grads_name("1"), rows[::-1])
    write_container(tmp_path / name, box)
    return tmp_path / name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_file_rows_and_columns_have_the_stored_bytes(tmp_path, monkeypatch, dtype):
    """Every range of rows and of columns, read in any order, in stripes of
    several columns, of one column and of whole rows, has the bytes of the
    stored rows; ``head`` clamps to the file's row count."""
    rows = np.random.default_rng(5).standard_normal((7, 40)).astype(dtype)
    rows[2, 3] = -0.0
    sets = read_gradients(grads_file(tmp_path, rows), ["1", "0"])
    assert list(sets) == ["1", "0"]
    for stripe in (3 * 7 * rows.itemsize, 1, 1 << 20):
        monkeypatch.setattr(tensorstore, "STRIPE_BYTES", stripe)
        for lid, want in (("0", rows), ("1", rows[::-1])):
            g = sets[lid].head(5)
            assert (g.num_samples, g.dim) == (5, 40)
            assert sets[lid].head(100).num_samples == 7
            assert sets[lid].samples.tobytes() == want.tobytes()
            for lo, hi in ((0, 5), (3, 9), (6, 7), (4, 4)):
                assert g.rows(lo, hi).tobytes() == want[:5][lo:hi].tobytes()
            for lo, hi in ((0, 8), (8, 12), (12, 40), (5, 6), (0, 40), (39, 40)):
                got = g.columns(lo, hi)
                assert got.dtype == dtype and got.tobytes() == want[:5, lo:hi].tobytes()


def test_file_rows_keep_the_bytes_they_were_opened_on(tmp_path):
    """``write_container`` replaces the path, so a set reads the old file."""
    rows = np.arange(12.0).reshape(3, 4)
    path = grads_file(tmp_path, rows)
    g = read_gradients(path, ["0"])["0"]
    grads_file(tmp_path, -rows)
    assert g.samples.tobytes() == rows.tobytes()
    assert g.columns(1, 3).tobytes() == rows[:, 1:3].tobytes()
    assert read_gradients(path, ["0"])["0"].samples.tobytes() == (-rows).tobytes()


def test_file_rows_of_a_shrunk_file_raise_truncated(tmp_path):
    """Every read checks its byte count, so no read hands out the unread
    contents of a fresh array."""
    rows = np.ones((4, 1024))
    path = grads_file(tmp_path, rows)
    g = read_gradients(path, ["1"])["1"]  # the last tensor: its rows end the file
    os.truncate(path, path.stat().st_size - 8)
    assert g.rows(0, 3).tobytes() == rows[:3].tobytes()
    with pytest.raises(TruncatedError):
        g.rows(2, 4)
    with pytest.raises(TruncatedError):
        g.columns(0, 1024)


@pytest.mark.parametrize("rows, ids", [
    (np.zeros((2, 3)), ["2"]),
    (np.zeros((2, 3, 1)), ["0"]),
    (np.zeros((2, 3), dtype=np.uint8), ["0"]),
], ids=["missing", "3-d", "u8"])
def test_read_gradients_rejects_what_is_no_set_of_float_rows(tmp_path, rows, ids):
    with pytest.raises(ContainerError):
        read_gradients(grads_file(tmp_path, rows), ids)


def test_read_gradients_checks_the_headers(tmp_path):
    path = grads_file(tmp_path, np.zeros((2, 3)))
    path.write_bytes(path.read_bytes()[:-1])
    with pytest.raises(TruncatedError):
        read_gradients(path, ["0"])


def test_read_round_trips_every_dtype_bit_exactly(tmp_path):
    box = TensorContainer()
    box.add(grads_name("0"), np.float32([[0.1, -0.0], [np.nan, np.inf]]))
    box.add(weight_name("0"), np.array([np.nextafter(1.0, 2.0), 1e-300]))
    box.add(mask_name("0"), np.array([1, 0], dtype=np.uint8))
    out = roundtrip(tmp_path, box)
    assert out == box
    path = tmp_path / "again.ovpt"
    write_container(path, out)
    assert path.read_bytes() == (tmp_path / "t.ovpt").read_bytes()


def test_a_short_positioned_read_raises_truncated(tmp_path, monkeypatch):
    """A tensor's read cut short and then at the file's end, as when the
    file shrinks after its headers were read, raises instead of handing
    out the unread contents of a new array."""
    box = TensorContainer()
    box.add(weight_name("0"), np.arange(64.0))
    path = tmp_path / "t.ovpt"
    write_container(path, box)
    real, calls = os.preadv, []

    def short(fd, buffers, pos):
        view = memoryview(buffers[0]).cast("B")
        if view.nbytes <= 64:  # a header field
            return real(fd, buffers, pos)
        calls.append(pos)
        return real(fd, [view[:8]], pos) if len(calls) == 1 else 0

    monkeypatch.setattr(os, "preadv", short)
    with pytest.raises(TruncatedError, match="data of tensor"):
        read_container(path)
    assert len(calls) == 2
    monkeypatch.undo()
    assert read_container(path) == box


def test_layer_naming_and_discovery():
    box = TensorContainer()
    box.add(weight_name("2"), np.zeros(2))
    box.add(weight_name("0"), np.zeros(2))
    box.add(grads_name("0"), np.zeros((1, 2)))
    box.add(mask_name("0"), np.zeros(2, dtype=np.uint8))
    assert layer_ids(box) == ["0", "2"]


# -- reads and atomic writes ---------------------------------------------------

_OVERWRITE_SCRIPT = """
import sys
import numpy as np
from obsprune.tensorstore import TensorContainer, read_container, write_container

path = sys.argv[1]
old = np.arange(1 << 17, dtype=np.float64)  # 1 MiB: many pages past the new end
box = TensorContainer()
box.add("x", old)
write_container(path, box)
alive = read_container(path)["x"].array()
small = TensorContainer()
small.add("x", np.float32([7.0, 8.0]))
write_container(path, small)
assert np.array_equal(alive, old), "old arrays changed"
assert read_container(path) == small, "file does not hold the new container"
print("ok")
"""


def run_child(script, path):
    """``script`` run in a new interpreter that imports this obsprune."""
    src = str(pathlib.Path(obsprune.__file__).resolve().parents[1])
    paths = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(script), str(path)],
                          capture_output=True, text=True, env=env, timeout=120)


def test_overwriting_a_read_file_leaves_its_arrays_alive(tmp_path):
    # a file replaced under its reader must not change what it read; run in a
    # child, as a regression to reads that map the file could die of SIGBUS
    proc = run_child(_OVERWRITE_SCRIPT, tmp_path / "t.ovpt")
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr


def test_editing_a_read_array_leaves_the_file_unchanged(tmp_path):
    box = TensorContainer()
    box.add(weight_name("0"), np.arange(6, dtype=np.float64).reshape(2, 3))
    path = tmp_path / "t.ovpt"
    write_container(path, box)
    before = path.read_bytes()
    arr = read_container(path)[weight_name("0")].array()
    arr[...] = -1.0  # a new array: the file is not touched
    assert (arr == -1.0).all()
    assert path.read_bytes() == before
    assert read_container(path) == box


_TRUNCATE_SCRIPT = """
import os, sys
import numpy as np
from obsprune.tensorstore import TensorContainer, read_container, write_container

path = sys.argv[1]
box = TensorContainer()
box.add("w", np.arange(1 << 18, dtype=np.float64))  # 2 MiB
box.add("m", np.ones(1 << 12, dtype=np.uint8))
write_container(path, box)
read = read_container(path)
os.truncate(path, 100)  # in place, as another writer might
assert read == box, "read arrays changed"
print(sum(float(read[name].data.sum()) for name in read))
"""


def test_truncating_a_read_file_leaves_its_arrays_alive(tmp_path):
    # touching a mapping of a file truncated in place dies with SIGBUS, so
    # run in a child: a regression fails this test instead of pytest
    proc = run_child(_TRUNCATE_SCRIPT, tmp_path / "t.ovpt")
    want = float(np.arange(1 << 18, dtype=np.float64).sum()) + (1 << 12)
    assert (proc.returncode, proc.stdout) == (0, f"{want}\n"), proc.stderr


def test_failed_replace_leaves_no_temp_file(tmp_path):
    dest = tmp_path / "dest.ovpt"
    dest.mkdir()
    (dest / "inside").write_bytes(b"keep")
    box = TensorContainer()
    box.add("x", np.zeros(3))
    with pytest.raises(OSError):
        write_container(dest, box)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dest.ovpt"]
    assert [p.name for p in dest.iterdir()] == ["inside"]
    assert (dest / "inside").read_bytes() == b"keep"


def test_failed_write_leaves_the_old_file_intact(tmp_path, monkeypatch):
    old, new = TensorContainer(), TensorContainer()
    old.add("x", np.zeros(3))
    new.add("x", np.ones(5))
    path = tmp_path / "t.ovpt"
    write_container(path, old)
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        write_container(path, new)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["t.ovpt"]


def test_write_follows_symlinks_and_keeps_the_open_mode(tmp_path):
    box = TensorContainer()
    box.add("x", np.arange(3.0))
    target, link = tmp_path / "target.ovpt", tmp_path / "link.ovpt"
    write_container(target, box)
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask
    target.chmod(0o640)
    link.symlink_to(target.name)
    box2 = TensorContainer()
    box2.add("x", np.arange(4.0))
    write_container(link, box2)
    assert link.is_symlink()
    assert read_container(target) == box2
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
