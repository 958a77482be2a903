"""The binary layout shared by the corpus, checkpoint and blank-parameter files.

Each file is a 4-byte magic, a u32 version and u32 header fields, followed by
little-endian arrays whose sizes the header determines. The reader checks
each declared size against the bytes left in the file before it reads or
allocates, and rejects non-finite floats and trailing bytes, so a malformed
file raises VersionMismatchError. It reads array by array: a whole-file buffer
made the allocator trim and re-fault the heap on every corpus load, which cost
more.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import VersionMismatchError

U32, I32, F32, F64 = map(np.dtype, ("<u4", "<i4", "<f4", "<f8"))


def write_file(path, magic: bytes, version: int, header, arrays) -> None:
    """Write the magic, the version and the u32 `header` fields, then each
    (dtype, array) of `arrays` in order."""
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack(f"<{1 + len(header)}I", version, *header))
        for dtype, arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype=dtype).tobytes())


class FileReader:
    """Sequential reader of an open binary file whose magic and version
    matched; `what` names the format in error messages."""

    def __init__(self, fh, magic: bytes, version: int, what: str):
        self._fh = fh
        self._what = what
        found = fh.read(4)
        if found != magic:
            raise VersionMismatchError(f"bad {what} magic {found!r}")
        self._left = os.fstat(fh.fileno()).st_size - 4
        (found,) = self.u32s(1)
        if found != version:
            raise VersionMismatchError(f"unsupported {what} version {found}")

    def _read(self, nbytes: int) -> bytes:
        raw = self._fh.read(nbytes) if nbytes <= self._left else b""
        if len(raw) != nbytes:
            raise VersionMismatchError(f"{self._what} file is truncated")
        self._left -= nbytes
        return raw

    def u32s(self, count: int) -> tuple[int, ...]:
        return struct.unpack(f"<{count}I", self._read(4 * count))

    def array(self, dtype: np.dtype, rows: int, cols: int | None = None) -> np.ndarray:
        """A fresh float64 (float dtypes) or int array, 1-D or (rows, cols).
        No writer emits a non-finite float, so one is a malformed file."""
        count = rows if cols is None else rows * cols
        raw = np.frombuffer(self._read(count * dtype.itemsize), dtype)
        if dtype.kind == "f" and not np.isfinite(raw).all():
            raise VersionMismatchError(f"corrupt {self._what} file: non-finite value")
        out = raw.astype(np.float64 if dtype.kind == "f" else int)
        return out if cols is None else out.reshape(rows, cols)

    def end(self) -> None:
        if self._left:
            raise VersionMismatchError(f"{self._what} file has {self._left} trailing bytes")
