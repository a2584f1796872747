"""Smoke tests: every example script runs to completion.

The examples double as end-to-end integration tests of the public API
(solver -> transformations -> crypto -> simulator -> protocols).
"""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script):
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip(), "examples must print their findings"


def test_examples_exist():
    names = {p.stem for p in EXAMPLES}
    assert "quickstart" in names
    assert len(names) >= 3, "paper reproduction requires >= 3 examples"


def test_readme_public_api_snippet_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    assert "```python\n" in section, "the Public API section lost its snippet"
    snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(snippet, "README.md (Public API)", "exec"), {})
