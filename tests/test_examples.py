"""Smoke tests: every example script and every README command runs.

The examples double as end-to-end integration tests of the public API
(solver -> transformations -> crypto -> simulator -> protocols).

The README runner executes each fenced ``sh`` / ``bash`` / ``python``
block of ``README.md`` as written, in a fresh directory that links the
repo's top-level entries (so repo-relative paths work and outputs land
in the temp dir), with ``repro``, ``python`` and ``python3`` on the
``PATH``.  A shell block runs in order in one shell, so a later line may
read an earlier line's output.  A block's info string carries its marks
(```` ```sh tcp slow ````).  Two kinds of line are not executed as
written: ``pip install`` (no network; its extras are checked against
``pyproject.toml`` instead) and ``pytest`` (collected with
``--collect-only``, which checks its selection without running this
file again).
"""

import os
import pathlib
import re
import stat
import subprocess
import sys
from dataclasses import dataclass

import pytest

ROOT = pathlib.Path(__file__).parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
README = ROOT / "README.md"
README_MAX_LINES = 700

RUNNABLE = ("sh", "bash", "python")
FENCE_LANGUAGES = RUNNABLE + ("text",)
MARKS = ("tcp", "proc", "slow")
# a block naming a live backend must carry that backend's mark (or slow)
LIVE = {
    "tcp": re.compile(r"--(?:transport|backend)[ =]tcp\b|backend=[\"']tcp"),
    "proc": re.compile(r"--(?:transport|backend)[ =]proc\b|backend=[\"']proc|--jobs"),
}
PIP = re.compile(r"^\s*pip install\b")
PYTEST = re.compile(r"\bpytest\b")


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


@dataclass(frozen=True)
class Block:
    """One fenced block of the README."""

    case: str  # "<section slug>-<index in section>"
    section: str
    language: str
    marks: tuple[str, ...]
    text: str
    line: int


def readme_blocks() -> list[Block]:
    blocks: list[Block] = []
    section, index = "top", 0
    lines = README.read_text(encoding="utf-8").splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("## "):
            section, index = line[3:].strip(), 0
        if line.startswith("```"):
            info = line[3:].split()
            start = i
            i += 1
            body = []
            while lines[i] != "```":
                body.append(lines[i])
                i += 1
            index += 1
            slug = re.sub(r"[^a-z0-9]+", "-", section.lower()).strip("-")
            blocks.append(
                Block(
                    case=f"{slug}-{index}",
                    section=section,
                    language=info[0] if info else "",
                    marks=tuple(info[1:]),
                    text="\n".join(body) + "\n",
                    line=start + 1,
                )
            )
        i += 1
    return blocks


BLOCKS = readme_blocks()
RUN_BLOCKS = [b for b in BLOCKS if b.language in RUNNABLE]


def test_readme_is_a_manual_not_a_changelog():
    lines = len(README.read_text(encoding="utf-8").splitlines())
    assert lines <= README_MAX_LINES, f"README.md is {lines} lines"


def test_readme_fences_are_known():
    for block in BLOCKS:
        assert block.language in FENCE_LANGUAGES, (block.line, block.language)
        assert set(block.marks) <= set(MARKS), (block.line, block.marks)
        assert not block.marks or block.language in RUNNABLE, block.line


def test_readme_live_blocks_carry_their_mark():
    for block in RUN_BLOCKS:
        if "slow" in block.marks:
            continue
        for mark, pattern in LIVE.items():
            if pattern.search(block.text):
                assert mark in block.marks, f"README.md:{block.line} needs `{mark}`"


def test_readme_public_api_block_is_a_case():
    cases = [b for b in RUN_BLOCKS if b.section == "Public API"]
    assert [b.language for b in cases] == ["python"], "the Public API lost its snippet"
    assert not cases[0].marks, "the Public API snippet runs in tier-1"


def test_readme_pip_extras_are_declared():
    named = set()
    for block in RUN_BLOCKS:
        for line in block.text.splitlines():
            if PIP.match(line):
                for group in re.findall(r"\.\[([\w,\s-]+)\]", line):
                    named.update(e.strip() for e in group.split(","))
    assert named, "the Install section lost its extras line"
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = pyproject.split("[project.optional-dependencies]", 1)[1].split("\n[", 1)[0]
    declared = set(re.findall(r"^(\w[\w-]*)\s*=", section, re.M))
    assert named <= declared, named - declared


def _workdir(tmp_path: pathlib.Path) -> dict:
    """Link the repo's top-level entries into ``tmp_path`` and put shims
    for ``repro``, ``python`` and ``python3`` on the ``PATH``."""
    for entry in ROOT.iterdir():
        if not entry.name.startswith("."):
            (tmp_path / entry.name).symlink_to(entry)
    bin_dir = tmp_path / ".bin"
    bin_dir.mkdir()
    shims = {
        "repro": f'exec "{sys.executable}" -m repro.cli "$@"\n',
        "python": f'exec "{sys.executable}" "$@"\n',
        "python3": f'exec "{sys.executable}" "$@"\n',
    }
    for name, body in shims.items():
        shim = bin_dir / name
        shim.write_text("#!/bin/sh\n" + body)
        shim.chmod(shim.stat().st_mode | stat.S_IXUSR)
    env = dict(os.environ)
    env["PATH"] = f"{bin_dir}{os.pathsep}{env.get('PATH', '')}"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    return env


def _shell_script(text: str) -> str:
    out = ["set -e -o pipefail"]
    for line in text.splitlines():
        if PIP.match(line):
            continue
        if PYTEST.search(line) and not line.lstrip().startswith("#"):
            line += " --collect-only -p no:cacheprovider"
        out.append(line)
    return "\n".join(out) + "\n"


@pytest.mark.parametrize(
    "block",
    [
        pytest.param(b, marks=[getattr(pytest.mark, m) for m in b.marks], id=b.case)
        for b in RUN_BLOCKS
    ],
)
def test_readme_block_runs(block, tmp_path):
    env = _workdir(tmp_path)
    if block.language == "python":
        (tmp_path / "block.py").write_text(block.text)
        argv = [sys.executable, "block.py"]
    else:
        (tmp_path / "block.sh").write_text(_shell_script(block.text))
        argv = ["bash", "block.sh"]
    proc = subprocess.run(
        argv,
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=900 if "slow" in block.marks else 300,
    )
    assert proc.returncode == 0, (
        f"README.md:{block.line} exited {proc.returncode}\n{proc.stderr[-3000:]}"
    )
