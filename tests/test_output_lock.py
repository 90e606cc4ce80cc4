"""Output lock: the pipeline's outputs on the phantom suite, bit for bit.

``tests/make_output_lock.py`` defines the suite and writes the fixture.  A
change that means to move outputs regenerates the fixture and says which
cases moved.  The vessel map, the 256 levels, ``k_star``, the flags and the
dumped files (from binary and from ASCII input) are exact on every numpy;
the raw float64 response is checked only on the numpy ``major.minor`` the
lock was made with.
"""

import json

import numpy as np
import pytest

import make_output_lock as lock

LOCKED = json.loads(lock.FIXTURE.read_text())
VERSIONS = (f"lock made with numpy {LOCKED['numpy']}, "
            f"running numpy {np.__version__}")


def test_lock_covers_the_suite():
    assert sorted(LOCKED["cases"]) == sorted(lock.case_ids())


@pytest.mark.parametrize("case_id", lock.case_ids())
def test_outputs_match_the_lock(case_id):
    want = LOCKED["cases"][case_id]
    got = lock.run_case(case_id)
    for key in ("vessel_map", "levels", "k_star", "flags"):
        assert got[key] == want[key], f"{case_id} {key}; {VERSIONS}"
    if lock.numpy_version() == LOCKED["numpy"]:
        assert got["response"] == want["response"], (
            f"{case_id} raw response; {VERSIONS}")


@pytest.mark.parametrize("encoding", ["binary", "ascii"])
def test_segment_dumps_match_the_lock(tmp_path, encoding):
    assert (lock.dump_digests(tmp_path, encoding)
            == LOCKED["segment_dump"]), VERSIONS
