"""The route modules import only the layers beneath them.

``exact``, ``occupancy`` and ``simulate`` compute from the model alone, the
oracle adds the linear solver, and only ``checks`` (and the CLI above it)
brings the routes together.  A route that imported another could no longer
check it.
"""

import ast
from pathlib import Path

import pytest

import urnwalk

ALLOWED = {
    "exact": {"model", "errors"},
    "occupancy": {"model", "errors"},
    "simulate": {"model", "errors"},
    "oracle": {"model", "errors", "linsolve"},
    "linsolve": {"errors"},
    "model": {"errors"},
}


def package_imports(source: str) -> set[str]:
    """Sibling modules a module of the package imports anywhere in
    ``source``, inside functions included."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            parts = node.module.split(".") if node.module else []
            if node.level == 0 and parts[:1] == ["urnwalk"]:
                parts = parts[1:]
            elif node.level != 1:
                continue
            if parts:
                found.add(parts[0])
            else:  # from . import a, b  or  from urnwalk import a, b
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "urnwalk" and len(parts) > 1:
                    found.add(parts[1])
    return found


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_imports_only_lower_layers(module):
    source = Path(urnwalk.__file__).with_name(f"{module}.py").read_text()
    assert package_imports(source) <= ALLOWED[module]


def test_imports_inside_functions_are_seen():
    source = (
        "import urnwalk.simulate\n"
        "from urnwalk import checks\n"
        "from .model import ModelParams\n"
        "def f():\n"
        "    from . import oracle, linsolve\n"
        "    from .exact import full_transfer_time\n"
    )
    assert package_imports(source) == {
        "simulate", "checks", "model", "oracle", "linsolve", "exact"
    }
