"""The package reads TSVs without `csv` and opens files for writing in one
place: the atomic-replace routine that every output goes through."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "omivae"
WRITER = ("container.py", "_replace_file")


def modules():
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), str(path))


def may_write(call: ast.Call) -> bool:
    """Whether an open()/fdopen() call's mode can write; a mode that is not a
    literal counts as writing."""
    modes = [k.value for k in call.keywords if k.arg == "mode"] + call.args[1:2]
    if not modes:
        return False
    mode = modes[0]
    return not isinstance(mode, ast.Constant) or any(c in str(mode.value) for c in "wax+")


def write_opens(tree):
    """(enclosing function, line) of every write-mode open() or fdopen()."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ("open", "fdopen") and may_write(child):
                    found.append((function, child.lineno))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else function)

    visit(tree, None)
    return found


def test_no_module_imports_csv():
    for name, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert all(a.name != "csv" for a in node.names), f"{name}:{node.lineno}"
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "csv", f"{name}:{node.lineno}"


def test_files_are_opened_for_writing_only_by_the_atomic_writer():
    found = [(name, *site) for name, tree in modules() for site in write_opens(tree)]
    assert [(name, function) for name, function, _ in found] == [WRITER], found
