"""The package reads TSVs without `csv` and parses numeric TSV cells in
`data` alone, opens files for writing in one place, the atomic-replace
routine that every output goes through, and opens text for reading in one:
the raw-line reader of every TSV and of the config file. The modules a
training step runs make no masked copies. Layers allocate their tensors
only through the arena, which sets them once, with no rebinding. The
package root is a docstring: every caller imports a submodule."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "omivae"
WRITER = ("container.py", "_replace_file")
TEXT_READERS = [("data.py", "_raw_lines")]
STEP_MODULES = ("layers.py", "losses.py", "model.py", "optim.py")
# the names that read numeric TSV cells: numpy's reader, the C-reader path
# and the cell parser of the per-cell loop
CELL_PARSERS = ("loadtxt", "tsv_numeric_body", "_parse_cell")
# numpy's allocators, which `layers` calls only where the arena allocates
ALLOCATORS = {f"{name}{like}" for name in ("zeros", "ones", "empty", "full")
              for like in ("", "_like")}
ARENA = ("layers.py", "ParameterArena.__init__")
# second paths that no input needs, defined as a function or class or
# assigned at module level: rebinding a layer's own arrays to arena views,
# and a stand-in random stream for a model whose tensors are then
# overwritten, both made unneeded by declared tensors; PCA through the
# model's embedding pass, whose work `pca_transform` and `dataset_matrix`
# do; separators that numpy's reader strips as the per-cell loop does; the
# gradient checker, a test tool that `tests/standalone.py` holds; an
# alias of `np.ndarray` and a finite check that had one caller left; the
# model's per-batch input check, which `cli` makes once where a loaded
# checkpoint meets a cache; the view of the classifier's gradients that
# phase 1 zeroed, since backward hands each gradient to the optimizer and
# no region holds them; and the arena's lookup of a parameter by the
# address of its whole view, since a sink finds a slab's offset in the
# values from its address
REMOVED_DEFINITIONS = ("bind", "_NoDraw", "_centred_scores", "_features", "STRIP_ONLY",
                       "gradient_check", "GradCheckResult", "Matrix", "check_finite",
                       "_validate_inputs", "_classifier_grads", "parameter", "_by_address",
                       "_address")


def modules():
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), str(path))


def mode_of(call: ast.Call) -> str | None:
    """The mode of an open()/fdopen() call: "r" without one, None where it
    is not a literal."""
    modes = [k.value for k in call.keywords if k.arg == "mode"] + call.args[1:2]
    if not modes:
        return "r"
    return str(modes[0].value) if isinstance(modes[0], ast.Constant) else None


def may_write(call: ast.Call) -> bool:
    """Whether the mode can write; a mode that is not a literal counts as writing."""
    mode = mode_of(call)
    return mode is None or any(c in mode for c in "wax+")


def may_be_text(call: ast.Call) -> bool:
    """Whether the mode is text; a mode that is not a literal counts as text."""
    mode = mode_of(call)
    return mode is None or "b" not in mode


def call_name(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def calls(tree, which):
    """(enclosing scope, line) of every call that `which` picks. The scope
    is the dotted path of the enclosing classes and functions, None at
    module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and which(child):
                found.append((scope, child.lineno))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
            else:
                visit(child, scope)

    visit(tree, None)
    return found


def opens(tree, which):
    """(enclosing scope, line) of every open() or fdopen() that `which` picks."""
    return calls(tree, lambda call: call_name(call) in ("open", "fdopen") and which(call))


def test_no_module_imports_csv():
    for name, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert all(a.name != "csv" for a in node.names), f"{name}:{node.lineno}"
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "csv", f"{name}:{node.lineno}"


def test_only_data_parses_numeric_tsv_cells():
    """Both numeric readers go through `data.read_numeric_body`, so no other
    module names numpy's text reader or a cell parser."""
    found = [
        (name, node.lineno)
        for name, tree in modules()
        if name != "data.py"
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id in CELL_PARSERS)
        or (isinstance(node, ast.Attribute) and node.attr in CELL_PARSERS)
        or (isinstance(node, ast.alias) and node.name in CELL_PARSERS)
    ]
    assert found == []
    uses = {name for name, tree in modules() for node in ast.walk(tree)
            if isinstance(node, ast.alias) and node.name == "read_numeric_body"}
    assert uses == {"evaluation.py"}


def sites(which):
    """(module, enclosing function) of each open() or fdopen() `which` picks,
    and the list with line numbers to show on a failure."""
    found = [(name, *site) for name, tree in modules() for site in opens(tree, which)]
    return [(name, function) for name, function, _ in found], found


def test_files_are_opened_for_writing_only_by_the_atomic_writer():
    functions, found = sites(may_write)
    assert functions == [WRITER], found


def test_text_is_read_only_by_the_raw_line_reader_and_the_config_loader():
    functions, found = sites(may_be_text)
    assert functions == TEXT_READERS, found


def is_masked_copy(call: ast.Call) -> bool:
    """`np.copyto(..., where=...)`, `np.putmask`, `np.place` or a
    three-argument `np.where`: each walks a mask element by element, many
    times slower than an unmasked ufunc on the same array."""
    name = call_name(call)
    if name == "copyto":
        return any(k.arg == "where" for k in call.keywords) or len(call.args) > 3
    if name == "where":
        return len(call.args) + len(call.keywords) == 3
    return name in ("putmask", "place")


def test_training_step_modules_make_no_masked_copies():
    found = [
        (name, node.lineno)
        for name, tree in modules()
        if name in STEP_MODULES
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and is_masked_copy(node)
    ]
    assert found == []


def test_layers_allocate_only_in_the_arena():
    """A layer declares its tensors and the arena allocates them, each once:
    no other code of `layers` calls numpy's allocators."""
    (tree,) = [tree for name, tree in modules() if name == ARENA[0]]
    found = calls(tree, lambda call: call_name(call) in ALLOCATORS)
    assert found and {scope for scope, _ in found} == {ARENA[1]}, found


def test_no_module_defines_a_rebinding_or_a_stand_in_stream():
    """Nor any other name of `REMOVED_DEFINITIONS`, as a function, a class,
    a module-level name or an attribute anywhere."""
    found = [
        (name, node.name, node.lineno)
        for name, tree in modules()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in REMOVED_DEFINITIONS
    ]
    found += [
        (name, target.id, node.lineno)
        for name, tree in modules()
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        for target in ast.walk(node)
        if isinstance(target, ast.Name) and isinstance(target.ctx, ast.Store)
        and target.id in REMOVED_DEFINITIONS
    ]
    found += [
        (name, node.attr, node.lineno)
        for name, tree in modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and node.attr in REMOVED_DEFINITIONS
    ]
    assert found == []


def test_the_package_root_is_one_docstring():
    """The command line is the package's surface, and every import names a
    submodule, so the root re-exports nothing."""
    (tree,) = [tree for name, tree in modules() if name == "__init__.py"]
    assert len(tree.body) == 1 and ast.get_docstring(tree) is not None, ast.dump(tree)
