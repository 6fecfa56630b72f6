"""Documentation hygiene: the CI doc check must pass from a clean tree.

Runs the same checks as ``python tools/check_docs.py`` — intra-repo
markdown links resolve, and every ``src/repro/sqlengine/`` module has a
module docstring — so doc rot fails tier-1 locally, not just in CI.  Also
checks that TONDIR.md's "Translator surface" table is the translator's
own listing.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

import check_docs  # noqa: E402


def test_required_docs_exist():
    for path in ("README.md", "docs/ARCHITECTURE.md", "docs/TONDIR.md"):
        assert (REPO / path).is_file(), f"{path} is missing"


def test_intra_repo_links_resolve():
    assert check_docs.check_links() == []


def test_sqlengine_modules_have_docstrings():
    assert check_docs.check_module_docstrings() == []


def test_checker_detects_broken_link(tmp_path, monkeypatch):
    md = tmp_path / "bad.md"
    md.write_text("see [here](missing/file.md) and [ok](#anchor)")
    monkeypatch.setattr(check_docs, "REPO", tmp_path)
    monkeypatch.setattr(check_docs, "DOC_GLOBS", ["*.md"])
    problems = check_docs.check_links()
    assert len(problems) == 1 and "missing/file.md" in problems[0]


def test_translator_surface_section_is_the_dispatch_listing():
    from repro.core.translate.engine import surface

    text = (REPO / "docs/TONDIR.md").read_text()
    section = text.split("## Translator surface", 1)[1].split("\n## ", 1)[0]
    documented = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].startswith("`"):
            documented[cells[0].strip("`")] = re.findall(r"`([^`]+)`", cells[2])
    assert documented == {kind: [f"{m}{p}" for m, p in calls.items()]
                          for kind, calls in surface().items()}
