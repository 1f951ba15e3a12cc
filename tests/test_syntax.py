"""Every module of the package parses with the Python 3.10 grammar, the
oldest that pyproject.toml's `requires-python` accepts.

This checks syntax only: a call into a standard-library API newer than 3.10
still parses, so it is not caught here.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "steffenlab").glob("*.py"))


def test_every_module_is_checked():
    assert {p.name for p in SOURCES} >= {"__init__.py", "generators.py", "scan.py"}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_parses_with_the_3_10_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
