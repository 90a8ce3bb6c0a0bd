"""Every name that the demos and the README's python blocks import from
alphaspectral exists, so dropping an export they use fails here at once
instead of when someone runs the demo."""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(ROOT.glob("demos/*.py")) + [ROOT / "README.md"]


def package_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) for each ``from alphaspectral[.x] import name``."""
    text = path.read_text()
    if path.suffix == ".md":
        text = "\n".join(re.findall(r"```python\n(.*?)```", text, re.S))
    return [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "alphaspectral"
        for alias in node.names
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imported_names_exist(path):
    imports = package_imports(path)
    assert imports, f"{path.name} imports nothing from alphaspectral"
    missing = [f"{m}.{name}" for m, name in imports if not hasattr(importlib.import_module(m), name)]
    assert not missing
