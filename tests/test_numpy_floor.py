"""The package uses no NumPy name newer than the floor pyproject.toml
declares, so a newer NumPy on the test host cannot hide an AttributeError
that every supported older NumPy would raise."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "alphaspectral").glob("*.py"))

# NumPy release that first has each name
NEWER_NAMES = {
    "bitwise_count": (2, 0),
    "concat": (2, 0),
    "permute_dims": (2, 0),
    "vecdot": (2, 0),
    "unstack": (2, 1),
    "cumulative_sum": (2, 1),
    "matvec": (2, 2),
    "vecmat": (2, 2),
}


def numpy_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'"numpy>=(\d+)\.(\d+)', text).groups()
    return int(major), int(minor)


def numpy_names(source: str) -> set[str]:
    """Attributes read from np / numpy and names imported from numpy."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in ("np", "numpy"):
                names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_numpy_name_newer_than_floor(path):
    newer = {name for name, since in NEWER_NAMES.items() if since > numpy_floor()}
    assert not numpy_names(path.read_text()) & newer


def test_checker_sees_every_form():
    source = "import numpy as np\nfrom numpy import concat\nnp.bitwise_count(x)\nnp.linalg.vecdot(a, b)\n"
    assert {"concat", "bitwise_count", "vecdot"} <= numpy_names(source)
