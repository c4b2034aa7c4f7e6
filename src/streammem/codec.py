"""The binary artifact codec: the one place that packs, parses and checks
streammem's binary files.

A record is a little-endian header (a 4-byte magic, a u32 version, the
format's u32 fields), then the payload those fields fix exactly. A payload
decodes to a read-only view of the bytes it was read from, never a copy.

    format  ver  header fields (u32)            payload
    RWFS    1    T P d                          T x P x d float32
    RWMB    2    count W d                      count x W x d float32
    RWPM    2    d heads layers n_read n_write  float32 tensors in the draw
                 hidden temporal_mode           order of params.py
    RWLI    1    total d memory_rows            total x d float32
                 selected_rows

`buffer.bin` is one RWFS record; `buffer.manifest` maps each frame to the
offset of its tokens in it, and is read back only as the exact bytes
written for that record's header. An RWMB entry's frame is its position,
0..count-1; version 1 also stored it, with a sub-clip index, before each
entry's tokens, and is rejected. RWPM's temporal_mode indexes
TEMPORAL_MODES.
"""

import math
import struct
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
        try:
            dtype, shape = self._payload(header)
            dtype = np.dtype(dtype)
        except ValueError as exc:
            raise MalformedArtifactError(
                f"{self.name} header {tuple(header)} declares no "
                f"representable payload") from exc
        return dtype, shape, dtype.itemsize * math.prod(shape)

    def encode(self, payload, **fields):
        """One record: its header bytes and `payload` in the header's dtype."""
        header = self.Header(**fields)
        dtype, shape, _ = self.layout(header)
        payload = np.ascontiguousarray(payload, dtype=dtype)
        if payload.shape != shape:
            raise ValueError(f"{self.name} payload shape {payload.shape} "
                             f"is not the declared {shape}")
        return self._struct.pack(self.magic, self.version, *header), payload

    def save(self, path, payload, **fields) -> None:
        with open(path, "wb") as fh:
            fh.writelines(self.encode(payload, **fields))

    def read_header(self, data: bytes):
        if len(data) < self.header_size:
            raise TruncatedPayloadError(f"{self.name} header truncated")
        magic, version, *fields = self._struct.unpack_from(data)
        if magic != self.magic:
            raise BadMagicError(f"bad magic {magic!r}, not {self.magic!r}")
        if version != self.version:
            raise BadVersionError(f"unsupported {self.name} version {version}")
        return self.Header(*fields)

    def read_payload(self, header, data: bytes, offset: int = 0):
        """The payload `header` declares, viewing `data` from `offset` on,
        which must hold exactly it."""
        dtype, shape, size = self.layout(header)
        if len(data) - offset != size:
            raise TruncatedPayloadError(
                f"{self.name} payload: {len(data) - offset} bytes, not {size}")
        values = np.frombuffer(data, dtype, math.prod(shape), offset)
        values = values.reshape(shape)
        if not np.isfinite(values).all():
            raise NonFiniteDataError(f"{self.name} payload is not finite")
        return values

    def load(self, path):
        """(header, payload) of the one record the file at `path` holds."""
        with open(path, "rb") as fh:
            data = fh.read()
        header = self.read_header(data)
        return header, self.read_payload(header, data, self.header_size)
