import ast
import importlib
import pkgutil
from pathlib import Path

import gausscorr

MODULES = [importlib.import_module(f"gausscorr.{m.name}")
           for m in pkgutil.iter_modules(gausscorr.__path__)]


def test_every_exported_name_exists():
    for module in MODULES:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name!r}"


def test_package_imports_only_exported_names():
    # a name dropped from a module's __all__ must also leave gausscorr/__init__.py
    tree = ast.parse(Path(gausscorr.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        if node.module is None:
            continue  # "from . import reference" imports a module
        module = importlib.import_module(f"gausscorr.{node.module}")
        exported = getattr(module, "__all__", None)
        for alias in node.names:
            assert hasattr(module, alias.name), f"gausscorr imports missing {alias.name!r}"
            if exported is not None:
                assert alias.name in exported, (
                    f"gausscorr imports {node.module}.{alias.name}, which is not in its __all__")


def _bound_names(node):
    """Names an import statement binds in its module."""
    for alias in node.names:
        if alias.asname:
            yield alias.asname
        else:
            yield alias.name.split(".")[0]


def test_modules_use_every_imported_name():
    # an import left behind when its last caller goes is dead code; __init__ re-exports
    package = Path(gausscorr.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {name for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
                    for name in _bound_names(node)}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = sorted(imported - used)
        assert not unused, f"{path.name} imports unused names {unused}"


def _module_level_privates(tree):
    """Private (single-underscore) functions, classes and constants a module defines at top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def test_private_names_have_a_caller_in_the_package():
    # a private helper whose last package caller went is dead code, even if a test
    # still imports it
    package = Path(gausscorr.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = sorted(f"{name}.{private}" for name, tree in trees.items()
                    for private in _module_level_privates(tree) if private not in used)
    assert not unused, f"private names no package module uses: {unused}"


def test_front_ends_import_only_public_names():
    # the CLI and the experiment scripts stay on the public API: a private
    # name (leading underscore, dunders aside) is an internal they must not reach
    root = Path(gausscorr.__file__).resolve().parents[2]
    paths = [Path(gausscorr.__file__).with_name("cli.py"), *sorted(root.glob("scripts/*.py"))]
    assert len(paths) > 1
    private = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or "", *(alias.name for alias in node.names)]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            private += [f"{path.name}: {name}" for name in names for part in name.split(".")
                        if part.startswith("_") and not part.startswith("__")]
    assert not private, f"front ends import private names: {private}"


HELPERS = Path(__file__).with_name("helpers.py")


def test_package_stays_off_the_test_helpers():
    # the test references and generators live in tests/helpers.py: the package
    # neither imports from tests/ nor defines or exports a name that file defines
    package = Path(gausscorr.__file__).parent
    test_modules = {"tests", "conftest", *(path.stem for path in HELPERS.parent.glob("*.py"))}
    imports = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            imports += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] in test_modules]
    assert not imports, f"package modules import test code: {imports}"
    defined = {node.name for node in ast.parse(HELPERS.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert {"random_physical_cm", "minimal_purification", "cmr_noise"} <= defined
    leaked = [f"{module.__name__}.{name}" for module in (gausscorr, *MODULES)
              for name in sorted(defined)
              if name in getattr(module, "__all__", ()) or hasattr(module, name)]
    assert not leaked, f"test helpers defined or exported by the package: {leaked}"
