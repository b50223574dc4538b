import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_below_ten(x):
    assert x < 10
"""


def test_a_failing_property_shows_its_falsifying_example(tmp_path):
    # the suite's own warning filters, on a property that fails: hypothesis
    # then writes a patch of the failing example, for which it imports libcst,
    # and libcst's DeprecationWarning must not become an INTERNALERROR
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    run = subprocess.run([sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
                          "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
                          "test_property.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "Falsifying example: test_below_ten(" in run.stdout
