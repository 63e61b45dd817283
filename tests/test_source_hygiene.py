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


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each private name a module binds at its top level, by def, class or
    assignment, with its line; dunder names belong to Python, not to it."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            bound = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [n.id for t in bound for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def _read_names(tree: ast.AST) -> set[str]:
    """Every name the tree reads: a bare name, or an attribute such as
    module._name; importing a name is not reading it."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


@pytest.mark.parametrize(
    "source, unread",
    [
        ("_held = object()", {"_held"}),
        ("def _f(): pass\nclass _C: pass", {"_f", "_C"}),
        ("_a, _b = 1, 2\nprint(_a)", {"_b"}),
        ("_x: int = 1\nx = _x", set()),
        ("def _f(): pass\ng = [_f]", set()),
        ("_n = 1\nm.y = self._n", set()),
        ("__all__ = []\nPUBLIC = 1", set()),
    ],
)
def test_unread_private_names_are_found(source, unread):
    tree = ast.parse(source)
    assert set(_private_definitions(tree)) - _read_names(tree) == unread


def test_every_private_name_is_read_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*map(_read_names, trees.values()))
    unread = {f"{name}:{line} {private}"
              for name, tree in trees.items()
              for private, line in _private_definitions(tree).items() if private not in read}
    assert not unread, f"private names defined but read nowhere in the package: {sorted(unread)}"
