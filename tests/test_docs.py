"""The documentation executes.

Two guards keep README.md and docs/ honest:

* every fenced ``python`` block is executed in a fresh namespace — a
  documented snippet that stops working fails CI instead of rotting
  (non-runnable fragments belong in ``text`` fences);
* every intra-repo markdown link must resolve to an existing file or
  directory (external ``http(s)`` links and pure anchors are skipped).
"""

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

DOC_FILES = sorted(
    [REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")],
    key=lambda path: path.relative_to(REPO_ROOT).as_posix(),
)

_FENCE = re.compile(r"^```(\w*)\s*$")
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def _fenced_blocks(path: Path, language: str) -> list[tuple[int, str]]:
    """Return ``(start_line, source)`` for each fenced block of ``language``."""
    blocks = []
    lines = path.read_text(encoding="utf-8").splitlines()
    inside = False
    matches = False
    start = 0
    body: list[str] = []
    for number, line in enumerate(lines, start=1):
        fence = _FENCE.match(line)
        if fence and not inside:
            inside = True
            matches = fence.group(1) == language
            start = number + 1
            body = []
        elif line.strip() == "```" and inside:
            inside = False
            if matches:
                blocks.append((start, "\n".join(body)))
        elif inside:
            body.append(line)
    return blocks


def _python_block_params():
    for path in DOC_FILES:
        relative = path.relative_to(REPO_ROOT).as_posix()
        for start, source in _fenced_blocks(path, "python"):
            yield pytest.param(source, id=f"{relative}:{start}")


def test_docs_exist_and_are_linked_from_the_readme():
    assert (REPO_ROOT / "README.md").is_file()
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert "docs/architecture.md" in readme
    assert "docs/engines.md" in readme


@pytest.mark.parametrize("source", _python_block_params())
def test_fenced_python_blocks_execute(source):
    exec(compile(source, "<doc-block>", "exec"), {"__name__": "__doc_block__"})


@pytest.mark.parametrize(
    "path", DOC_FILES, ids=[p.relative_to(REPO_ROOT).as_posix() for p in DOC_FILES]
)
def test_intra_repo_links_resolve(path):
    text = path.read_text(encoding="utf-8")
    broken = []
    for match in _LINK.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            broken.append(target)
    assert not broken, f"{path.name}: broken intra-repo links {broken}"


def test_engine_table_covers_the_full_roster():
    """The README engine table must name every family + auto."""
    from repro.matching.registry import ENGINES

    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for name in ENGINES:
        assert f"`{name}`" in readme, f"README engine table is missing {name!r}"
