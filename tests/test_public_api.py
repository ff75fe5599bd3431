"""The package's exports are the list README's "Public API" section gives."""

import re
from pathlib import Path

import verletdem

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_public_api() -> list[str]:
    """The backticked names of the bullet list under README's "## Public API"."""
    section = README.read_text().split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- .*(?:\n  .*)*", section, flags=re.MULTILINE)
    return re.findall(r"`(\w+)`", "\n".join(bullets))


def test_all_equals_the_readme_list():
    listed = readme_public_api()
    assert len(listed) == len(set(listed)), "a name is listed twice"
    assert set(verletdem.__all__) == set(listed)
    assert len(verletdem.__all__) == len(set(verletdem.__all__))


def test_every_export_resolves():
    for name in verletdem.__all__:
        assert hasattr(verletdem, name), name


def test_quick_start_imports_only_exports():
    quick = README.read_text().split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    lines = re.findall(r"^from verletdem import (.+)$", quick, flags=re.MULTILINE)
    names = {name.strip() for line in lines for name in line.split(",")}
    assert names and names <= set(verletdem.__all__)
