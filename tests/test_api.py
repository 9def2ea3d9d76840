from __future__ import annotations

import re
from pathlib import Path

import socio_grid_sim

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_api_names() -> list[str]:
    """The backquoted names of the bullet list under ``## Python API``."""
    section = README.read_text(encoding="utf-8").split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- .*(?:\n  .*)*", section, flags=re.MULTILINE)
    return [name for bullet in bullets for name in re.findall(r"`(\w+)`", bullet)]


def test_public_names_are_the_readme_list():
    names = readme_api_names()
    assert len(names) == len(set(names))
    count = re.search(r"exports these (\d+) names", README.read_text(encoding="utf-8"))
    assert count is not None and int(count[1]) == len(names) == 25
    assert sorted(socio_grid_sim.__all__) == sorted(names)
    for name in names:
        assert getattr(socio_grid_sim, name) is not None
