"""The suite's own pytest settings: a failing hypothesis property is
reported as a failure, and the tests after it still run.  The check runs
pytest in a subprocess, under the repository's ``pyproject.toml``, on a
temporary test file."""

import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SAMPLE = textwrap.dedent("""
    from hypothesis import given, strategies as st


    @given(st.integers())
    def test_property_fails(x):
        assert x < 0


    def test_plain_passes():
        pass
""")


def test_failing_property_leaves_later_tests_running(tmp_path):
    sample = tmp_path / "test_sample.py"
    sample.write_text(SAMPLE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), str(sample)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert "1 failed, 1 passed" in out and "INTERNALERROR" not in out, out
