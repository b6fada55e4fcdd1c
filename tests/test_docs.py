"""Documentation stays in step with the code it names."""
from __future__ import annotations

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def module_table_rows():
    """(module, backticked names) for each row of README's module table."""
    rows = []
    for line in README.read_text(encoding="utf-8").splitlines():
        match = re.match(r"\|\s*`(dtfield\.\w+)`\s*\|(.*)\|\s*$", line)
        if match:
            rows.append((match.group(1), re.findall(r"`([^`]+)`", match.group(2))))
    return rows


def test_readme_module_table_names_resolve():
    rows = module_table_rows()
    assert {module for module, _ in rows} >= {
        "dtfield.spd", "dtfield.field", "dtfield.optim", "dtfield.analysis"}
    missing = [f"{module}.{name}" for module, names in rows
               for name in names if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"README names what its module lacks: {missing}"
