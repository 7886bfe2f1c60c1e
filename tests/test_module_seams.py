"""The library's modules call one another through public names only: no
module of src/pharec imports or reads another module's ``_name``.  Tests and
tools may still reach private names."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "pharec"


def private_uses(source: str) -> list[str]:
    """``module._name`` for each private name of another pharec module that
    ``source``, a module of the package, imports or reads."""
    tree = ast.parse(source)
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").split(".")[0] == "pharec")]
    # Names bound to pharec modules: ``from . import models`` and the like.
    modules = {alias.asname or alias.name: alias.name for node in imports
               if node.module in (None, "pharec") for alias in node.names}
    uses = [f"{node.module.split('.')[-1]}.{alias.name}" for node in imports
            if node.module not in (None, "pharec") for alias in node.names
            if alias.name.startswith("_")]
    uses += [f"{modules[node.value.id]}.{node.attr}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in modules and node.attr.startswith("_")
             and not node.attr.startswith("__")]
    return sorted(uses)


@pytest.mark.parametrize("source, uses", [
    ("from .transforms import TransformSet, _wrap", ["transforms._wrap"]),
    ("from pharec.averaging import _horizon_steps as h", ["averaging._horizon_steps"]),
    ("from . import models as m\nm._settle_seed(spec, 0)", ["models._settle_seed"]),
    ("from . import averaging\ndef f(c):\n    return averaging._horizon_steps(c, -1.0, 1.0)",
     ["averaging._horizon_steps"]),
    ("from . import ode\nfrom .ode import integrate\node.integrate(vf, x, 1.0, 0.1).__class__",
     []),
    ("import numpy as np\nnp._NoValue\nself._private", []),
])
def test_private_uses_finds_each_form(source, uses):
    assert private_uses(source) == uses


def test_library_modules_use_only_public_names_of_each_other():
    found = {path.name: private_uses(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert {name: uses for name, uses in found.items() if uses} == {}
