"""Documentation stays in step with the code it names."""
from __future__ import annotations

import importlib
import json
import re
from pathlib import Path

from dtfield.cli import main
from dtfield.optim import SolveReport

README = Path(__file__).resolve().parent.parent / "README.md"
FORMATS = README.parent / "FORMATS.md"


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


def formats_section(title):
    """Text of the FORMATS.md section whose heading starts with title."""
    text = FORMATS.read_text(encoding="utf-8")
    start = text.index(f"\n## {title}")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def test_formats_provenance_keys_match_generate(tmp_path, capsys):
    listed = formats_section("Provenance").split("keys:", 1)[1].split(".", 1)[0]
    documented = re.findall(r"`(\w+)`", listed)
    assert main(["generate", "--n", "2", "--out", str(tmp_path)]) == 0
    written = json.loads((tmp_path / "provenance.json").read_text(encoding="ascii"))
    assert sorted(documented) == sorted(written)


def test_formats_report_keys_match_solve_report():
    documented = re.findall(r"^\|\s*`(\w+)`\s*\|", formats_section("Solve reports"), re.M)
    report = SolveReport(0, [1.0], 1.0, False, 0.0)
    assert sorted(documented) == sorted(report.to_json_dict())
