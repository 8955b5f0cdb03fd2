"""A failing property test reports its falsifying example under the
repo's pytest settings.

``pyproject.toml`` turns every warning into an error. Hypothesis's report
hook touches ``mypy_extensions.TypedDict``, whose deprecation warning would
then end the run in ``INTERNALERROR`` and lose the example, so that one
warning is ignored; this test runs pytest on a failing ``@given`` test to
keep it that way."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5
'''


def test_failing_property_test_prints_its_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output
    assert run.returncode == 1, output
    assert "Falsifying example: test_fails(" in output
    assert "x=5" in output
