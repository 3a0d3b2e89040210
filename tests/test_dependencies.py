"""The package promises no runtime dependencies: it imports only the
standard library and itself.  Its modules and the demos also read every
name they import."""

import ast
import sys
from pathlib import Path

import nlfsr

PACKAGE = Path(nlfsr.__file__).parent
DEMOS = Path(__file__).resolve().parent.parent / "demos"


def syntax_nodes(path: Path):
    return ast.walk(ast.parse(path.read_text(), filename=str(path)))


def imported_top_level_modules(path: Path) -> set[str]:
    names = set()
    for node in syntax_nodes(path):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 10
    for path in sources:
        foreign = imported_top_level_modules(path) - sys.stdlib_module_names - {"nlfsr"}
        assert not foreign, f"{path.name} imports {sorted(foreign)}"


def unread_imports(path: Path) -> set[str]:
    bound, read = set(), set()
    for node in syntax_nodes(path):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return bound - read


def test_modules_read_every_name_they_import():
    # __init__.py imports are the public re-exports, read by no code of its own
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted(DEMOS.glob("*.py"))
    assert len(sources) >= 12
    for path in sources:
        unread = unread_imports(path)
        assert not unread, f"{path.name} imports {sorted(unread)} and never reads them"
