"""The codec's one record reader and one record writer: every loader and
every file-backed frame store reads through `Format.open`, and no
descriptor it opens outlives a load, whether the file is good or is
rejected at any check; `Format.save` writes a record from sections that
stack to exactly its declared payload, or writes nothing."""

import os
import struct

import numpy as np
import pytest

from streammem.assembly import RWLI, load_llm_input
from streammem.errors import EngineError
from streammem.memory import (RWMB, SPILL_MANIFEST, DiskFeatureBuffer,
                              FrameStore, load_bank)
from streammem.params import RWPM, load_params
from streammem.stream import RWFS

FDS = "/proc/self/fd"


def _record(fmt, **fields):
    """One record of `fmt` with every payload value 1."""
    header = fmt.Header(**fields)
    _, shape, _ = fmt.layout(header)
    return fmt.header_bytes(header) + np.ones(shape, "<f4").tobytes()


RWFS_GOOD = dict(T=3, P=2, d=4)
# a small model: d=4, 1 head, 1 layer, 2 read and 2 write queries
RWPM_GOOD = dict(d=4, heads=1, layers=1, n_read=2, n_write=2, hidden=16,
                 temporal_mode=0)
GOOD = {
    "RWFS": _record(RWFS, **RWFS_GOOD),
    "RWMB": _record(RWMB, count=3, W=2, d=4),
    "RWPM": _record(RWPM, **RWPM_GOOD),
    "RWLI": _record(RWLI, d=3, memory_rows=4, selected_rows=2),
}
EMPTY = {
    "RWFS": _record(RWFS, **dict(RWFS_GOOD, T=0)),
    "RWMB": _record(RWMB, count=0, W=2, d=4),
    "RWPM": _record(RWPM, **dict(RWPM_GOOD, layers=0)),
    "RWLI": _record(RWLI, d=3, memory_rows=0, selected_rows=2),
}


def _close(store):
    store.close()


def _open_spill(path):
    manifest = path.with_name("buffer.manifest")
    manifest.write_bytes(SPILL_MANIFEST)
    return DiskFeatureBuffer(path, manifest)


# name -> (format, a load, or an open then a close, of one path)
LOADS = {
    "RWFS.load": ("RWFS", RWFS.load),
    "load_bank": ("RWMB", load_bank),
    "load_params": ("RWPM", load_params),
    "load_llm_input": ("RWLI", load_llm_input),
    "FrameStore.open": ("RWFS", lambda p: _close(FrameStore.open(p))),
    "DiskFeatureBuffer": ("RWFS", lambda p: _close(_open_spill(p))),
}

NAN = np.array([np.nan], "<f4").tobytes()
# each case made from a good file; "empty axis" is the format's EMPTY file
CASES = {
    "good": lambda raw: raw,
    "cut header": lambda raw: raw[:10],
    "short payload": lambda raw: raw[:-4],
    "extra byte": lambda raw: raw + b"\0",
    "bad magic": lambda raw: b"XXXX" + raw[4:],
    "bad version": lambda raw: raw[:4] + struct.pack("<I", 99) + raw[8:],
    "nan": lambda raw: raw[:-4] + NAN,
}
# bad files that an open accepts: a spill is checked for finiteness a
# frame at a time as Stage 2 reads it
ACCEPTED = {("DiskFeatureBuffer", "nan")}


def _open_fds() -> int:
    return len(os.listdir(FDS))


@pytest.mark.skipif(not os.path.isdir(FDS), reason="no /proc/self/fd")
@pytest.mark.parametrize("case", list(CASES) + ["empty axis"])
@pytest.mark.parametrize("load", list(LOADS))
def test_no_descriptor_outlives_a_load(tmp_path, load, case):
    """The error stays referenced while the descriptors are counted, so
    its traceback keeps every local of the failed load alive: a descriptor
    closed only when its record is collected would still count."""
    name, run = LOADS[load]
    path = tmp_path / "record.bin"
    path.write_bytes(EMPTY[name] if case == "empty axis"
                     else CASES[case](GOOD[name]))
    before = _open_fds()
    error = None
    try:
        run(path)
    except EngineError as exc:
        error = exc
    assert _open_fds() == before
    rejected = case != "good" and (load, case) not in ACCEPTED
    assert (error is not None) == rejected, error


def test_copy_to_needs_a_first_field_that_counts_rows(tmp_path):
    """`Record.copy_to` sets the header's first field to the row count:
    an RWFS record's T, but not an RWLI record's d."""
    for fmt, fields in ((RWFS, RWFS_GOOD),
                        (RWLI, dict(d=3, memory_rows=4, selected_rows=2))):
        path = tmp_path / f"{fmt.name}.bin"
        path.write_bytes(_record(fmt, **fields))
        with fmt.open(path) as record:
            if fmt is RWFS:
                record.copy_to(2, tmp_path / "copy.bin")
                assert (tmp_path / "copy.bin").read_bytes() == \
                    _record(RWFS, **dict(fields, T=2))
            else:
                with pytest.raises(ValueError):
                    record.copy_to(2, tmp_path / "copy.bin")


# sections of an RWLI record declaring d=3, 4 memory and 2 selected rows
RWLI_FIELDS = dict(d=3, memory_rows=4, selected_rows=2)
BAD_SECTIONS = {
    "rows short": [np.ones((4, 3)), np.ones((1, 3)), np.ones((1, 3))],
    "rows over": [np.ones((4, 3)), np.ones((1, 3)), np.ones((3, 3))],
    "trailing shape": [np.ones((4, 3)), np.ones((1, 4)), np.ones((2, 3))],
    "rank": [np.ones((4, 3)), np.ones(3), np.ones((2, 3))],
    "no section": [],
}


@pytest.mark.parametrize("case", list(BAD_SECTIONS))
def test_save_rejects_sections_that_are_not_the_payload(tmp_path, case):
    """Sections whose rows do not add up to the declared count, or whose
    trailing shape or rank differs from the payload's, raise ValueError
    before the file is created."""
    path = tmp_path / "x.rwli"
    with pytest.raises(ValueError):
        RWLI.save(path, *BAD_SECTIONS[case], **RWLI_FIELDS)
    assert not path.exists()


def test_save_writes_sections_in_order(tmp_path):
    """The record is the header, then each section's rows in turn; a
    float64 section is its float32 cast, bit for bit, also where the cast
    rounds, goes subnormal or flushes to zero, and a strided one is its
    rows in order."""
    rng = np.random.default_rng(3)
    memory = rng.standard_normal((4, 3)).astype(np.float32)
    separator = np.array([[1.0 + 2.0 ** -30, 1e-46, -3e-39]])
    selected = (rng.standard_normal((2, 6)) * 1e30)[:, ::2]
    RWLI.save(tmp_path / "x.rwli", memory, separator, selected,
              **RWLI_FIELDS)
    header = struct.pack("<4sIIII", b"RWLI", 2, 3, 4, 2)
    assert (tmp_path / "x.rwli").read_bytes() == \
        header + memory.tobytes() + separator.astype("<f4").tobytes() \
        + selected.astype("<f4").tobytes()
