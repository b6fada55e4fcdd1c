"""Documentation stays in step with the code it names."""
from __future__ import annotations

import ast
import functools
import importlib
import json
import re
from pathlib import Path

import dtfield
from dtfield.cli import main
from dtfield.optim import SolveReport

README = Path(__file__).resolve().parent.parent / "README.md"
FORMATS = README.parent / "FORMATS.md"
SRC = Path(dtfield.__file__).resolve().parent
PERFBENCH = README.parent / "perfbench"
TESTS = Path(__file__).resolve().parent


def module_table_rows():
    """(module, backticked names) for each row of README's module table."""
    rows = []
    for line in README.read_text(encoding="utf-8").splitlines():
        match = re.match(r"\|\s*`(dtfield\.\w+)`\s*\|(.*)\|\s*$", line)
        if match:
            rows.append((match.group(1), re.findall(r"`([^`]+)`", match.group(2))))
    return rows


def resolves(module, name):
    """Whether module has attribute name; a dotted name (Class.method) is followed."""
    try:
        functools.reduce(getattr, name.split("."), importlib.import_module(module))
    except AttributeError:
        return False
    return True


def test_readme_module_table_names_resolve():
    rows = module_table_rows()
    assert {module for module, _ in rows} >= {
        "dtfield.spd", "dtfield.field", "dtfield.optim", "dtfield.analysis"}
    missing = [f"{module}.{name}" for module, names in rows
               for name in names if not resolves(module, name)]
    assert not missing, f"README names what its module lacks: {missing}"


def referenced_names(directory, strings=False):
    """Names and attributes used in directory/*.py (with strings: string constants too)."""
    names = set()
    for path in directory.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def test_every_public_definition_has_a_use():
    # a public function or class that src/ never references, the package does
    # not export, README's module table does not name and the benchmark does
    # not call is a second copy of some job, or dead
    used = (referenced_names(SRC) | referenced_names(PERFBENCH, strings=True)
            | set(dtfield.__all__) | {name for _, names in module_table_rows() for name in names})
    unused = [f"{path.stem}.{node.name}" for path in sorted(SRC.glob("*.py"))
              for node in ast.parse(path.read_text(encoding="utf-8")).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in used]
    assert not unused, f"public but unused: {unused}"


def test_test_modules_use_every_import():
    # the public-use guard above scans src/ and perfbench/ only, so a dead
    # import in a test module would go unseen; "# noqa: F401" keeps one
    unused = []
    for path in sorted(TESTS.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                noqa = {lines[node.lineno - 1], lines[alias.lineno - 1]}
                if name not in used and not any("# noqa: F401" in line for line in noqa):
                    unused.append(f"{path.name}: {name}")
    assert not unused, f"imported but unused: {unused}"


def doc_section(doc, title):
    """Text of the section of doc (a Markdown path) whose heading starts with title."""
    text = doc.read_text(encoding="utf-8")
    start = text.index(f"\n## {title}")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def test_formats_provenance_keys_match_generate(tmp_path, capsys):
    listed = doc_section(FORMATS, "Provenance").split("keys:", 1)[1].split(".", 1)[0]
    documented = re.findall(r"`(\w+)`", listed)
    assert main(["generate", "--n", "2", "--out", str(tmp_path)]) == 0
    written = json.loads((tmp_path / "provenance.json").read_text(encoding="ascii"))
    assert sorted(documented) == sorted(written)


def test_formats_report_keys_match_solve_report():
    documented = re.findall(r"^\|\s*`(\w+)`\s*\|", doc_section(FORMATS, "Solve reports"), re.M)
    report = SolveReport(0, [1.0], 1.0, False, 0.0)
    assert sorted(documented) == sorted(report.to_json_dict())


def quick_start_transcript():
    """(argv, printed lines) for each `$ dtfield` command of README's quick start."""
    transcript = []
    for block in re.findall(r"^```\n(.*?)^```", doc_section(README, "Command-line quick start"),
                            re.S | re.M):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *printed = chunk.replace("\\\n", " ").splitlines()
            argv = command.split()
            assert argv[0] == "dtfield"
            transcript.append((argv[1:], [line for line in printed if line]))
    return transcript


def test_readme_quick_start_prints_what_it_shows(tmp_path, monkeypatch, capsys):
    # the hole README describes: rows and columns 3 to 6 of the 10x10 grid
    (tmp_path / "hole.msk").write_text("MSK1 10 10\n" + "".join(
        "".join("0" if 3 <= i <= 6 and 3 <= j <= 6 else "1" for j in range(10)) + "\n"
        for i in range(10)), encoding="ascii")
    monkeypatch.chdir(tmp_path)
    transcript = quick_start_transcript()
    assert [argv[0] for argv, _ in transcript] == [
        "generate", "denoise", "evaluate", "evaluate", "render", "inpaint", "evaluate"]
    for argv, shown in transcript:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out.splitlines() == shown, argv
