"""The suite's own settings: a failing test must not end a pytest session.

The repository's ``pyproject.toml`` turns warnings into errors.  When a
hypothesis test fails, hypothesis's pytest plugin imports its patch writer,
which pulls in libcst and then ``mypy_extensions``, whose DeprecationWarning
would become an INTERNALERROR and stop the session after the first failure.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
'''

PASSING = '''
def test_one():
    pass


def test_two():
    pass
'''


def test_failing_hypothesis_test_does_not_stop_the_session(tmp_path):
    shutil.copy(ROOT / "pyproject.toml", tmp_path / "pyproject.toml")
    (tmp_path / "test_a.py").write_text(FAILING)
    (tmp_path / "test_b.py").write_text(PASSING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "test_a.py", "test_b.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr, proc.stdout[-2000:]
    assert "1 failed, 2 passed" in proc.stdout, proc.stdout[-2000:]
