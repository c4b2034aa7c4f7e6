"""The binary artifact codec: the one place that packs, parses, checks and
reads streammem's binary files.

A record is a little-endian header (a 4-byte magic, a u32 version, the
format's u32 fields), then the payload those fields fix exactly. A payload
decodes to a read-only view of the bytes it was read from, never a copy.

    format  ver  header fields (u32)            payload
    RWFS    1    T P d                          T x P x d float32
    RWMB    2    count W d                      count x W x d float32
    RWPM    3    d heads layers n_read n_write  float32 tensors in the draw
                 hidden temporal_mode           order of params.py
    RWLI    2    d memory_rows selected_rows    (memory_rows + 1 +
                                                selected_rows) x d float32

`buffer.bin` is one RWFS record, so its header fixes where each frame's
tokens start; `buffer.manifest` is one constant line of JSON, version 3,
read back only as those exact bytes. An RWMB entry's frame is its
position, 0..count-1; version 1 also stored it, with a sub-clip index,
before each entry's tokens, and is rejected. RWLI version 1 also stored
the total row count, which the section sizes fix, and is rejected. RWPM
v2 also stored read and write layer norms that nothing applied; it and v1
are rejected. RWPM's temporal_mode indexes TEMPORAL_MODES. RWFS is
defined here, as both `stream` and `memory` use it.

Every record is written by one writer, `Format.save`: the header, then
the arrays the caller holds, as sections stacked along the payload's
leading axis (a bank's tokens; an LLM input's memory rows, separator row
and selected rows), each written where it lies, so no write joins or
concatenates a copy of the payload. Every record is read by one reader,
`Format.open`: a `Record`, read through one read-only descriptor a range
of leading-axis rows at a time. `Format.load` reads every row at once;
`memory.FrameStore` reads a stream or a spill a block of frames at a
time, after `Record.scan` has checked a stream's finiteness a bounded
chunk at a time (see `_SCAN_BYTES`).
"""

import math
import os
import struct
import weakref
from collections import namedtuple

import numpy as np

from .errors import (BadMagicError, BadVersionError, MalformedArtifactError,
                     NonFiniteDataError, TruncatedPayloadError)


class Format:
    """A magic, a version, the names of the u32 header fields, and
    `payload(header) -> (dtype, shape)`, the payload a header declares."""

    def __init__(self, magic: bytes, version: int, fields, payload):
        self.magic, self.version, self.name = magic, version, magic.decode()
        self.Header = namedtuple(self.name + "Header", fields)
        self._struct = struct.Struct("<4sI" + "I" * len(fields))
        self.header_size = self._struct.size
        self._payload = payload

    def layout(self, header):
        """(dtype, shape, byte size) of the payload `header` declares."""
        dtype, shape = self._payload(header)
        dtype = np.dtype(dtype)
        return dtype, shape, dtype.itemsize * math.prod(shape)

    def header_bytes(self, header) -> bytes:
        return self._struct.pack(self.magic, self.version, *header)

    def save(self, path, *sections, **fields) -> None:
        """Write one record: the header of `fields`, then each section as
        it is, cast to the payload's dtype only if it has another. Stacked
        along their leading axis, the sections must be exactly the payload
        the header declares; that is checked before the file is opened, so
        a mismatch raises ValueError and writes nothing."""
        header = self.Header(**fields)
        dtype, shape, _ = self.layout(header)
        shapes = [np.shape(section) for section in sections]
        if (any(len(s) != len(shape) or s[1:] != shape[1:] for s in shapes)
                or sum(s[0] for s in shapes) != shape[0]):
            raise ValueError(f"{self.name} sections {shapes} do not stack "
                             f"to the declared payload {shape}")
        with open(path, "wb") as fh:
            fh.write(self.header_bytes(header))
            for section in sections:
                fh.write(np.ascontiguousarray(section, dtype))

    def read_header(self, data: bytes):
        if len(data) < self.header_size:
            raise TruncatedPayloadError(f"{self.name} header truncated")
        magic, version, *fields = self._struct.unpack_from(data)
        if magic != self.magic:
            raise BadMagicError(f"bad magic {magic!r}, not {self.magic!r}")
        if version != self.version:
            raise BadVersionError(f"unsupported {self.name} version {version}")
        return self.Header(*fields)

    def open(self, path) -> "Record":
        """The record the file at `path` holds, its header and size checked."""
        return Record(self, path)

    def load(self, path):
        """(header, payload) of the one record the file at `path` holds."""
        with self.open(path) as record:
            return record.header, record.read(0, record.shape[0])


# `Record.scan` checks a payload for non-finite values in chunks of at
# most this many bytes, so the check never holds the payload. The freed
# chunk also matters to Stage 1: glibc raises its dynamic mmap threshold
# to the size of a freed mmapped block, so the perceiver's temporaries
# that follow are reused from the heap instead of mmapped and faulted in
# afresh on every call. Stage 1 of a 548-frame, 8-layer stream in a fresh
# process (Linux, glibc 2.36) took about 63,000 minor faults with no
# scan, 5,300 with 1 MiB chunks and 700-800 with 2 or 4 MiB ones; of a
# 2192-frame, 1-layer stream 17,000, 1,500 and 770-900.
_SCAN_BYTES = 4 << 20


class Record:
    """One record read through one read-only descriptor.

    Opening checks the header, that the payload it declares has no empty
    axis (no artifact is empty), and that the file holds exactly that
    payload. `read(start, end)` reads rows start..end-1 of the
    payload's leading axis and checks them for finiteness, unless `scan()`
    has checked every value already; `largest_read` is the most bytes one
    read has returned. The descriptor closes on `close`, at the end of a
    `with` block, when opening fails, or when the record is collected.
    """

    def __init__(self, fmt: Format, path):
        self._format, self.name, self._start = fmt, fmt.name, fmt.header_size
        self._fd = os.open(path, os.O_RDONLY)
        self._closer = weakref.finalize(self, os.close, self._fd)
        try:
            self.header = fmt.read_header(os.pread(self._fd, self._start, 0))
            self.dtype, self.shape, self.nbytes = fmt.layout(self.header)
            if 0 in self.shape:
                raise MalformedArtifactError(
                    f"{self.name} payload {self.shape} is empty")
            size = os.fstat(self._fd).st_size - self._start
            if size != self.nbytes:
                raise TruncatedPayloadError(
                    f"{self.name} payload: {size} bytes, not {self.nbytes}")
        except BaseException:
            self.close()
            raise
        self.row_bytes = self.dtype.itemsize * math.prod(self.shape[1:])
        self.largest_read, self.checked = 0, False

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    @property
    def fd(self) -> int:
        # a closed descriptor's number may already name another file
        if not self._closer.alive:
            raise ValueError(f"read from a closed {self.name} record")
        return self._fd

    def close(self) -> None:
        self._closer()

    def _shrank(self):
        return TruncatedPayloadError(f"{self.name} file shrank while open")

    def _not_finite(self):
        return NonFiniteDataError(f"{self.name} payload is not finite")

    def scan(self) -> None:
        """Check every payload value for finiteness now, reading each chunk
        into one reused buffer, so that no later read checks again."""
        size, itemsize = self.nbytes, self.dtype.itemsize
        chunk = np.empty(max(1, min(size, _SCAN_BYTES) // itemsize),
                         self.dtype)
        for start in range(0, size, chunk.nbytes):
            part = chunk[:(size - start) // itemsize]
            if os.preadv(self.fd, [part], self._start + start) != part.nbytes:
                raise self._shrank()
            if not np.isfinite(part).all():
                raise self._not_finite()
        self.checked = True

    def read(self, start: int, end: int) -> np.ndarray:
        """Rows start..end-1, a fresh read-only array viewing the bytes read
        for them."""
        size = (end - start) * self.row_bytes
        data = os.pread(self.fd, size, self._start + start * self.row_bytes)
        if len(data) != size:
            raise self._shrank()
        out = np.frombuffer(data, self.dtype).reshape(
            (end - start,) + self.shape[1:])
        if not self.checked and not np.isfinite(out).all():
            raise self._not_finite()
        self.largest_read = max(self.largest_read, size)
        return out

    def copy_to(self, rows: int, path) -> None:
        """Write the first `rows` rows to `path` as a record of their own:
        this header with its first field, which must count the rows (RWFS's
        T, RWMB's count), set to `rows`, then their bytes copied by the
        kernel."""
        header = self.header._replace(**{self.header._fields[0]: rows})
        left = self._format.layout(header)[2]
        if left != rows * self.row_bytes:
            raise ValueError(f"{self.name}'s first field does not count rows")
        with open(path, "wb") as out:
            out.write(self._format.header_bytes(header))
            out.flush()
            offset = self._start
            while left:
                sent = os.sendfile(out.fileno(), self.fd, offset, left)
                if sent == 0:
                    raise self._shrank()
                offset, left = offset + sent, left - sent


RWFS = Format(b"RWFS", 1, ("T", "P", "d"), lambda h: ("<f4", tuple(h)))
