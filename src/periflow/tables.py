"""The data-file formats: every CSV a run writes goes through `write_csv`,
and the trajectory and the band field go through `write_npy` as binary
arrays.

A CSV has one header line, then one row per entry of the columns.  Numeric
cells are ``%.17g`` (round-trip exact, integers print without a decimal
point), text cells are written as given, line ends are LF and nothing
depends on the locale.  Rows are formatted in bounded chunks, so a large
table never exists as one string.  Both writers take the SHA-256 of the
bytes as they are written: the manifest records the digest of exactly the
file a run wrote.
"""

from __future__ import annotations

import hashlib

import numpy as np

_CHUNK_ROWS = 4096


class _DigestingFile:
    """A binary file whose `write` also feeds the SHA-256 `digest`."""

    def __init__(self, fh):
        self.fh, self.digest = fh, hashlib.sha256()

    def write(self, data) -> int:
        self.digest.update(data)
        return self.fh.write(data)


def _encoded_chunks(header: list[str], columns: list[np.ndarray]):
    yield (",".join(header) + "\n").encode()
    n_rows = columns[0].shape[0]
    is_text = [col.dtype.kind in "OSU" for col in columns]
    row = ",".join("%s" if text else "%.17g" for text in is_text) + "\n"
    cells = np.empty((min(n_rows, _CHUNK_ROWS), len(columns)), object if any(is_text) else float)
    for start in range(0, n_rows, _CHUNK_ROWS):
        rows = min(_CHUNK_ROWS, n_rows - start)
        for j, col in enumerate(columns):
            cells[:rows, j] = col[start : start + rows]
        yield (row * rows % tuple(cells[:rows].ravel().tolist())).encode()


def write_csv(path, header: list[str], columns) -> str:
    """Write equal-length `columns` under `header`; return the file's SHA-256."""
    columns = [np.asarray(col) for col in columns]
    shape = columns[0].shape
    if len(header) != len(columns) or any(c.ndim != 1 or c.shape != shape for c in columns):
        raise ValueError("write_csv needs one 1-d column per header name, all of one length")
    with open(path, "wb") as fh:
        out = _DigestingFile(fh)
        for data in _encoded_chunks(header, columns):
            out.write(data)
    return out.digest.hexdigest()


def write_npy(path, values: np.ndarray) -> str:
    """Write `values` as a `.npy` file (no pickles); return the file's SHA-256.
    NumPy streams the data in bounded chunks after a header fixed by dtype,
    shape and memory order, so equal arrays give equal files."""
    with open(path, "wb") as fh:
        out = _DigestingFile(fh)
        np.save(out, values, allow_pickle=False)
    return out.digest.hexdigest()
