import hashlib

import numpy as np
import pytest

from periflow.tables import _CHUNK_ROWS, write_csv


def reference_bytes(header, rows, formats):
    """The per-row f-string writer every data file used before `write_csv`."""
    lines = [",".join(header)]
    lines += [",".join(format(v, f) for v, f in zip(row, formats)) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def test_write_csv_matches_fstring_reference(tmp_path):
    floats = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, 0.1, 1.0, -2.5e-7])
    ints = np.arange(floats.size) * 7
    text = np.array(["circle", "0.5", "1.0", "bean", "a", "b", "c", "d", "e"])
    path = tmp_path / "pinned.csv"
    digest = write_csv(path, ["k", "x", "name"], [ints, floats, text])
    expected = reference_bytes(
        ["k", "x", "name"], zip(ints.tolist(), floats.tolist(), text.tolist()), ["", ".17g", ""]
    )
    assert path.read_bytes() == expected
    assert digest == hashlib.sha256(expected).hexdigest()


def test_write_csv_chunks_join_seamlessly(tmp_path):
    rng = np.random.default_rng(3)
    n = 2 * _CHUNK_ROWS + 5
    a = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, size=n)
    b = rng.random(n)
    path = tmp_path / "long.csv"
    digest = write_csv(path, ["a", "b"], [a, b])
    expected = reference_bytes(["a", "b"], zip(a.tolist(), b.tolist()), [".17g", ".17g"])
    assert path.read_bytes() == expected
    assert digest == hashlib.sha256(expected).hexdigest()

    empty = tmp_path / "empty.csv"
    assert write_csv(empty, ["a"], [np.array([])]) == hashlib.sha256(b"a\n").hexdigest()
    assert empty.read_bytes() == b"a\n"


def test_write_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", ["a", "b"], [np.zeros(3), np.zeros(2)])
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", ["a"], [np.zeros(3), np.zeros(3)])
