"""The route modules import only the layers beneath them.

``exact``, ``occupancy`` and ``simulate`` compute from the model alone, the
oracle adds the linear solver, and only ``checks`` (and the CLI above it)
brings the routes together.  A route that imported another could no longer
check it.  Nothing imports the CLI, and only the CLI reads the environment:
every library result is a function of its arguments.  The model's kernels
are integer move counts, and it imports nothing from ``fractions``.
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
    "checks": {"exact", "occupancy", "oracle", "model", "errors"},
    "cli": {"checks", "exact", "oracle", "simulate", "model", "errors"},
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


def absolute_imports(source: str) -> set[str]:
    """Top-level names of the modules ``source`` imports anywhere, by
    ``import`` or by an absolute ``from``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
    return found


def test_model_imports_nothing_from_fractions():
    source = Path(urnwalk.__file__).with_name("model.py").read_text()
    assert "fractions" not in absolute_imports(source)


def test_absolute_imports_are_seen():
    source = (
        "import os.path, numpy as np\n"
        "from . import errors\n"
        "def f():\n"
        "    from fractions import Fraction\n"
    )
    assert absolute_imports(source) == {"os", "numpy", "fractions"}


ENVIRONMENT = ("environ", "getenv")


def environment_reads(source: str) -> list[int]:
    """Lines of ``source`` that use ``os.environ`` or ``os.getenv``, or
    import either from ``os``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT:
            if isinstance(node.value, ast.Name) and node.value.id == "os":
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in ENVIRONMENT for alias in node.names):
                lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize(
    "module",
    sorted(
        path.stem
        for path in Path(urnwalk.__file__).parent.glob("*.py")
        if path.stem != "cli"
    ),
)
def test_only_the_cli_reads_the_environment(module):
    source = Path(urnwalk.__file__).with_name(f"{module}.py").read_text()
    assert environment_reads(source) == []


def test_environment_reads_are_seen():
    source = (
        "import os\n"
        "a = os.environ.get('X')\n"
        "def f():\n"
        "    from os import getenv\n"
        "    return os.getenv('Y'), os.environ['Z'], os.path.sep\n"
    )
    assert environment_reads(source) == [2, 4, 5, 5]


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_imports_only_lower_layers(module):
    source = Path(urnwalk.__file__).with_name(f"{module}.py").read_text()
    assert package_imports(source) <= ALLOWED[module]


def test_no_module_imports_the_cli():
    package = Path(urnwalk.__file__).parent
    importers = [
        path.stem
        for path in package.glob("*.py")
        if "cli" in package_imports(path.read_text())
    ]
    assert importers == []


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
