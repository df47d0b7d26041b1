"""Documentation stays true: doctests run, links resolve.

Three guarantees:

* every ``>>>`` snippet in ``docs/API.md`` executes and produces the
  output the page shows (doctest);
* every relative markdown link in ``README.md`` and ``docs/*.md``
  points at a file that exists, so refactors cannot silently orphan
  the documentation;
* the ``REPRO_*`` environment variables read under ``src/`` are the
  ones ``docs/OPERATIONS.md`` documents;
* the fault-injection sites :mod:`repro.exec.faults` documents are the
  ones the code fires.
"""

from __future__ import annotations

import doctest
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS = sorted((REPO_ROOT / "docs").glob("*.md"))
PAGES = [REPO_ROOT / "README.md"] + DOCS

# [text](target) -- excluding images; target captured up to ) or space
_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")


def test_docs_directory_is_populated():
    names = {page.name for page in DOCS}
    assert {"ARCHITECTURE.md", "API.md", "OPERATIONS.md"} <= names


def test_api_doctests():
    result = doctest.testfile(
        str(REPO_ROOT / "docs" / "API.md"),
        module_relative=False,
        optionflags=doctest.NORMALIZE_WHITESPACE,
    )
    assert result.attempted > 20, "API.md lost its runnable examples"
    assert result.failed == 0


@pytest.mark.parametrize(
    "page", PAGES, ids=[str(p.relative_to(REPO_ROOT)) for p in PAGES]
)
def test_relative_links_resolve(page: Path):
    broken = []
    for target in _LINK.findall(page.read_text()):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path = target.split("#", 1)[0]
        if not path:  # pure in-page anchor
            continue
        if not (page.parent / path).exists():
            broken.append(target)
    assert not broken, f"{page.name}: broken relative links {broken}"


def test_environment_variables_documented():
    """The ``REPRO_*`` variables the library reads are exactly the
    ones the operations guide documents: a row for a deleted variable
    fails here as surely as an undocumented new one."""
    name = re.compile(r"\bREPRO_[A-Z][A-Z0-9_]*")
    read = {
        match
        for source in (REPO_ROOT / "src").rglob("*.py")
        for match in name.findall(source.read_text())
    }
    documented = set(
        name.findall((REPO_ROOT / "docs" / "OPERATIONS.md").read_text())
    )
    assert read, "no REPRO_* variable found under src/"
    assert read == documented


def test_documented_fault_sites_are_the_fired_ones():
    """The "Sites currently wired" list of ``repro.exec.faults`` names
    exactly the sites a ``fire("...")`` call under ``src/`` reports --
    ``operator:<name>`` standing for the per-operator f-string."""
    fired = {
        re.sub(r"\{[^}]*\}", "<name>", site)
        for source in (REPO_ROOT / "src").rglob("*.py")
        for site in re.findall(
            r'\.fire\(\s*f?"([^"]+)"', source.read_text()
        )
    }
    faults = (REPO_ROOT / "src" / "repro" / "exec" / "faults.py").read_text()
    wired = faults.split("Sites currently wired", 1)[1].split("Example", 1)[0]
    documented = {
        site
        for line in wired.splitlines()
        if line.startswith("``")
        for site in re.findall(r"``([^`]+)``", line)
    }
    assert "operator:<name>" in fired
    assert fired == documented
