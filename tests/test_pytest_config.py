"""The suite's pytest configuration reports a failing property test.

On failure Hypothesis may import ``libcst`` to propose a patch, and that
import warns ``mypy_extensions.TypedDict is deprecated``; under
``error::DeprecationWarning`` alone the warning ends the session in an
INTERNALERROR instead of one reported failure.
"""

import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FAILING = """\
from hypothesis import given, strategies as st


@given(st.integers(min_value=0, max_value=10))
def test_fails(x):
    assert x < 5
"""


def _pytest(tmp_path, source):
    (tmp_path / "test_case.py").write_text(source)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", os.path.join(REPO, "pyproject.toml"),
         "--rootdir", str(tmp_path), "test_case.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)


def test_failing_given_test_is_reported_not_internal_error(tmp_path):
    run = _pytest(tmp_path, FAILING)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "FAILED test_case.py::test_fails" in run.stdout
    assert "assert 5 < 5" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr


def test_other_deprecation_warnings_still_error(tmp_path):
    run = _pytest(tmp_path, "import warnings\n\n\ndef test_warns():\n"
                            "    warnings.warn('old', DeprecationWarning)\n")
    assert run.returncode == 1, run.stdout + run.stderr
    assert "DeprecationWarning: old" in run.stdout
