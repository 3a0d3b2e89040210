"""The package promises no runtime dependencies: it imports only the
standard library and itself."""

import ast
import sys
from pathlib import Path

import nlfsr


def imported_top_level_modules(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_package_imports_only_the_standard_library():
    sources = sorted(Path(nlfsr.__file__).parent.glob("*.py"))
    assert len(sources) >= 10
    for path in sources:
        foreign = imported_top_level_modules(path) - sys.stdlib_module_names - {"nlfsr"}
        assert not foreign, f"{path.name} imports {sorted(foreign)}"
