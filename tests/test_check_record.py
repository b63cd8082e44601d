"""Every check value, verdict, note, exit code and output digest of the small
scenario configs and of the benchmark workload configs equals the committed
record (`check_record.py` writes it).  On the platform the record was made
on, the comparison is exact.  Elsewhere round-off may move the last bits, so
verdicts, exit codes, check names and the notes' count are compared exactly
and values to `RTOL` of the larger of value and threshold, or to `ATOL`; the
test says which comparison it made.

`ATOL` serves the values that are round-off themselves: a converged
fixed-point residual near 1e-10, a field mean of 0 or 2e-16, a flat-strip
step of 5e-15.  With OpenBLAS's Haswell, Sandybridge or Katmai kernels in
place of SkylakeX, and numpy's ufuncs held to their baseline, these moved by
up to 5.3e-15 (24 ulps of 1) and every other value by less than `RTOL`."""

import json
import math

from check_record import RECORD, fingerprint, record

RTOL = 1e-6
ATOL = 1e-13


def close(ours: str, theirs: str, threshold: str) -> bool:
    a, b, scale = float(ours), float(theirs), abs(float(threshold))
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return ours == theirs
    return abs(a - b) <= max(RTOL * max(abs(a), abs(b), scale), ATOL)


def test_a_rerun_reproduces_the_check_record():
    committed, rerun = json.loads(RECORD.read_text()), record()
    assert list(rerun["runs"]) == list(committed["runs"])
    exact = committed["fingerprint"] == fingerprint()
    how = "exact" if exact else f"verdicts exact, values to rtol {RTOL} or atol {ATOL}"
    print(f"check record: {how} comparison "
          f"(recorded on {committed['fingerprint']}, rerun on {fingerprint()})")
    if exact:
        for key, entry in committed["runs"].items():
            assert rerun["runs"][key] == entry, key
        return
    for key, entry in committed["runs"].items():
        ours = rerun["runs"][key]
        assert ours["exit"] == entry["exit"], key
        assert len(ours.get("notes", [])) == len(entry.get("notes", [])), key
        assert sorted(ours.get("outputs", {})) == sorted(entry.get("outputs", {})), key
        assert len(ours.get("checks", [])) == len(entry.get("checks", [])), key
        for (name, value, threshold, passed), (name0, value0, _, passed0) in zip(
                ours.get("checks", []), entry.get("checks", [])):
            assert (name, passed) == (name0, passed0), (key, name)
            assert close(value, value0, threshold), (key, name, value, value0)
