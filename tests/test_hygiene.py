"""Source hygiene of the asrel package, checked with the standard ast module:
no module imports a name it never uses, no module-level private name is
defined and never referenced, every public name, method and property is
read outside the tests, every parameter is read by its function, the
engine reads corpora only as arcs, the engine and the heuristics name hop
labels only as label codes, and only errors.py words the message of a file
that cannot be read."""

import ast
from pathlib import Path

import pytest

import asrel

PACKAGE = Path(asrel.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def annotations(tree: ast.AST):
    """Every annotation in the module: of arguments, returns and targets."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def string_annotation_names(tree: ast.AST) -> set[str]:
    """The names inside the module's string annotations."""
    names = set()
    for annotation in filter(None, annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.parse(node.value, mode="eval")
                names.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return names


def names_used(tree: ast.AST) -> set[str]:
    """Every name the module reads, the bases of attribute chains and the
    names inside string annotations included."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return used | string_annotation_names(tree)


def imported_names(tree: ast.Module) -> list[tuple[str, int]]:
    """The names the module's import statements bind, with their lines."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.append((alias.asname or alias.name.split(".")[0], node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.append((alias.asname or alias.name, node.lineno))
    return bound


def definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """The module-level names, but dunder names, that the module defines by
    assignment, def or class."""
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [
                n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)
            ]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        defined.extend((name, node.lineno) for name in targets if not name.startswith("__"))
    return defined


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_imports(path):
    tree = parse(path)
    used = names_used(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports and never uses: {', '.join(unused)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unreferenced_private_names(path):
    tree = parse(path)
    # A private name counts as referenced when the module reads it, or when
    # another module of the package reads it as an attribute or imports it.
    referenced = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for other in MODULES:
        if other != path:
            for node in ast.walk(parse(other)):
                if isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    referenced.update(alias.name for alias in node.names)
    dead = [
        f"{name} (line {line})"
        for name, line in definitions(tree)
        if name.startswith("_") and name not in referenced
    ]
    assert not dead, f"{path.name} defines and never references: {', '.join(dead)}"


def names_read(tree: ast.AST) -> set[str]:
    """Every name the module loads, as a name, an attribute or inside a
    string annotation."""
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    read.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    return read | string_annotation_names(tree)


def readers() -> list[Path]:
    """The modules of the package, the demos and the benchmark scripts,
    without the re-exports of __init__.py and without the tests."""
    root = Path(__file__).resolve().parent.parent
    return [
        path
        for folder in (PACKAGE, root / "demos", root / "perfbench")
        for path in sorted(folder.glob("*.py"))
        if path.name != "__init__.py"
    ]


def test_every_public_name_is_read():
    # A public definition counts as read when a reader reads it.
    read = set().union(*(names_read(parse(path)) for path in readers()))
    dead = [
        f"{path.name}: {name} (line {line})"
        for path in MODULES
        for name, line in definitions(parse(path))
        if not name.startswith("_") and name not in read
    ]
    assert not dead, f"defined and never read: {', '.join(dead)}"


def methods(tree: ast.Module) -> list[tuple[str, str, int]]:
    """(class, name, line) of every public method or property a class of
    the module defines. Dataclass fields are not methods."""
    return [
        (node.name, item.name, item.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("_")
    ]


def test_every_public_method_is_read():
    # A method or property counts as read when a reader reads an attribute
    # of that name, of any object.
    read = {
        node.attr
        for path in readers()
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Attribute)
    }
    dead = [
        f"{path.name}: {cls}.{name} (line {line})"
        for path in MODULES
        for cls, name, line in methods(parse(path))
        if name not in read
    ]
    assert not dead, f"defined and never read: {', '.join(dead)}"


def test_engine_reads_corpora_as_arcs():
    # The engine walks compiled arc ids: it reads no hop tuple, no AsPath
    # list and no adjacency.
    tree = parse(PACKAGE / "engine.py")
    read = [
        f"{node.attr} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("hops", "paths", "neighbors")
    ]
    assert not read, f"engine.py reads {', '.join(read)}"


def test_engine_and_heuristics_name_only_label_codes():
    # A hop's label is its edge's label code read along the arc (FLIPPED):
    # no RelType and no second, arc-only vocabulary.
    named = []
    for module in ("engine.py", "heuristics.py"):
        for node in ast.walk(parse(PACKAGE / module)):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            else:
                continue
            named += [
                f"{name} ({module}, line {node.lineno})"
                for name in names
                if name == "RelType" or name.startswith("ARC_")
            ]
    assert not named, f"names outside the label codes: {', '.join(named)}"


def test_only_errors_words_an_unreadable_file():
    # ParseError(reason, source) writes "cannot read source: reason"; a
    # reader that spells the words itself would leave .source empty.
    spelled = [
        f"{path.name} (line {node.lineno})"
        for path in MODULES
        if path.name != "errors.py"
        for raise_ in ast.walk(parse(path))
        if isinstance(raise_, ast.Raise)
        for node in ast.walk(raise_)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and "cannot read" in node.value
    ]
    assert not spelled, f"'cannot read' raised outside errors.py: {', '.join(spelled)}"


# Parameters a caller passes and the function does not read, as (module,
# function, parameter). The benchmark replay passes phase1 its config;
# ROADMAP item 4 deletes the parameter once the replay no longer does.
UNREAD_PARAMETERS = {("engine.py", "phase1", "config")}


def unread_parameters(path: Path) -> set[tuple[str, str, str]]:
    """(module, function, parameter) of every parameter but self that its
    function, nested functions included, never loads."""
    unread = set()
    for node in ast.walk(parse(path)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
            params += filter(None, (args.vararg, args.kwarg))
            loaded = {
                name.id
                for statement in node.body
                for name in ast.walk(statement)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
            }
            unread.update(
                (path.name, node.name, param.arg)
                for param in params
                if param.arg != "self" and param.arg not in loaded
            )
    return unread


def test_every_parameter_is_read():
    # An allowed parameter that is read or gone fails too, so the list
    # cannot outlive the parameters it names.
    unread = set().union(*map(unread_parameters, MODULES))
    assert unread == UNREAD_PARAMETERS
