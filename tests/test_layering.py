"""Each module of the library imports only the layers below it, so no import cycle can form."""

import ast
from pathlib import Path

import pytest

import nicecover

PACKAGE = Path(nicecover.__file__).parent
# bottom up: a module may import only those before it
LAYERS = ["errors", "rational", "crn", "machine", "analysis", "expressions", "cover", "cli"]


def imported_layers(name: str) -> set[str]:
    """The library modules that module `name` imports anywhere in its text, by relative or absolute import."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            path = node.module.split(".") if node.module else []
            if node.level == 0:
                if path[:1] != ["nicecover"]:
                    continue
                path = path[1:]
            found.update(path[:1] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names if alias.name.startswith("nicecover."))
    return found


def test_every_module_has_a_layer():
    assert {path.stem for path in PACKAGE.glob("*.py")} == {*LAYERS, "__init__", "__main__"}


@pytest.mark.parametrize("layer", LAYERS)
def test_a_layer_imports_only_the_layers_below_it(layer):
    assert imported_layers(layer) - set(LAYERS[: LAYERS.index(layer)]) == set()


def test_the_walk_finds_every_layer_the_cli_imports():
    assert imported_layers("cli") >= {"analysis", "cover", "crn", "expressions", "machine", "errors", "rational"}
