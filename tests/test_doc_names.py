"""Every dotted ``repro.…`` name the docs and the source comments cite resolves.

A name counts when it follows a backtick (Markdown code, reST roles such as
:class:`~repro.x.Y`): the longest importable module prefix is imported and
the rest is looked up attribute by attribute.  A dataclass field without a
default is no class attribute, so a dataclass's field names resolve too.
"""

import dataclasses
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"`~?(repro(?:\.[A-Za-z_]\w*)+)")


def cited_names():
    """``(name, where)`` of every cited name, one entry per distinct name."""
    sources = sorted((ROOT / "docs").glob("*.md")) + sorted(
        (ROOT / "src" / "repro").rglob("*.py")
    )
    found = {}
    for path in sources:
        for line_number, line in enumerate(path.read_text().splitlines(), 1):
            for name in NAME.findall(line):
                found.setdefault(name, f"{path.relative_to(ROOT)}:{line_number}")
    return sorted(found.items())


def resolves(name: str) -> bool:
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attribute in parts[split:]:
            if hasattr(target, attribute):
                target = getattr(target, attribute)
            elif dataclasses.is_dataclass(target) and attribute in {
                field.name for field in dataclasses.fields(target)
            }:
                target = None
            else:
                return False
        return True
    return False


def test_every_cited_name_resolves():
    names = cited_names()
    assert len(names) > 50
    stale = [f"{where}: {name}" for name, where in names if not resolves(name)]
    assert stale == []
