import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_features__

import dispatch_path
from dispatch_path import PORTABLE_FEATURES

# every test whose pins or precondition depend on the dispatch path
PATH_DEPENDENT_TESTS = [
    "tests/test_dispatch_path.py::test_the_probe_names_the_path_numpy_takes",
    "tests/test_ar_sieve.py::TestBatchedSieve::test_draws_keep_their_bits",
    "tests/test_io_cli.py::TestWriter::test_pinned_panel_and_te_bytes",
    "tests/test_io_cli.py::test_output_bytes_are_pinned",
    "tests/test_io_cli.py::test_temporal_report_bytes_are_pinned",
    "tests/test_io_cli.py::TestReaderMatchesRowLoop::test_large_panel",
]


def test_the_probe_names_the_path_numpy_takes():
    expected = "avx512" if __cpu_features__.get("X86_V4") else "portable"
    assert dispatch_path.dispatch_path() == expected


def test_a_path_with_no_pins_fails_naming_the_probe(monkeypatch):
    monkeypatch.setattr(dispatch_path, "_PATHS", {})
    with pytest.raises(pytest.fail.Exception, match="probe digest [0-9a-f]{64}$"):
        dispatch_path.dispatch_path()


@pytest.mark.skipif(
    not __cpu_features__.get("X86_V4"),
    reason="numpy takes no X86_V4 kernels in this process, so it runs the portable path already",
)
def test_pins_hold_on_the_portable_path():
    root = Path(__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *PATH_DEPENDENT_TESTS],
        cwd=root,
        env={**os.environ, "NPY_DISABLE_CPU_FEATURES": PORTABLE_FEATURES},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-4000:]
