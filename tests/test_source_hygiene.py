"""Static checks on the package source, read as syntax trees."""

import ast
import pathlib

import pytest

import stfrontier

PACKAGE = pathlib.Path(stfrontier.__file__).parent
# __init__ imports names to export them
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name a module-level import binds, with the line of its import."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, in code and in annotations alike: with
    postponed annotations a name there is still read, by typing.get_type_hints."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_the_package_has_modules_to_check():
    assert {"io.py", "power.py", "types.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_module_level_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported but never used: {unused}"


# calls that open a file as text unless their mode holds "b"; TextIOWrapper always does
_TEXT_OPENERS = {"open", "io.open", "os.fdopen", "TextIOWrapper", "io.TextIOWrapper"}


def _text_opens_without_encoding(tree: ast.AST) -> list[int]:
    """The line of each call that opens a file as text and passes no
    encoding=, which leaves the bytes to the locale."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or ast.unparse(node.func) not in _TEXT_OPENERS:
            continue
        modes = [k.value for k in node.keywords if k.arg == "mode"] + node.args[1:2]
        binary = "TextIOWrapper" not in ast.unparse(node.func) and any(
            isinstance(mode, ast.Constant) and "b" in str(mode.value) for mode in modes
        )
        if not binary and not any(k.arg == "encoding" for k in node.keywords):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize(
    "source, flagged",
    [
        ('os.fdopen(fd, "w", newline="")', True),
        ("open(path)", True),
        ("open(path, mode)", True),
        ("io.TextIOWrapper(raw)", True),
        ('open(path, "rb", buffering=0)', False),
        ('open(path, mode="wb")', False),
        ('open(path, encoding="utf-8")', False),
        ('TextIOWrapper(raw, encoding="utf-8")', False),
        ("os.open(path, flags, 0o666)", False),
    ],
)
def test_text_opens_are_found(source, flagged):
    assert bool(_text_opens_without_encoding(ast.parse(source))) == flagged


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_text_open_names_its_encoding(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = _text_opens_without_encoding(tree)
    assert not lines, f"{path.name}: text opened in the locale's encoding on lines {lines}"
