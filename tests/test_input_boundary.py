"""Outside text is split into lines in one place: errors.py.

The loaders reach their text only through the errors.py decoders, so no
module but errors.py calls decode_text or splits a text on "\\n" itself.
CSV data cells become numbers in one place, errors.decode_table: no module
but errors.py calls np.loadtxt.
Files are opened in one module, cli.py, and written by one function in
it, _emit, which only main calls: a command returns its outputs and
writes none. Reports are encoded by one function, cli._encode_json: no
module calls json.dumps or json.dump. An SVG element is written one way,
from one of svgplot's module-level %-templates: render_surface_svg holds
no f-string and calls no str.format.
"""

import ast

from hpscale import cli
from test_dead_code import TREES


def _where(predicate):
    """module:line of every call in src/hpscale outside errors.py that
    predicate accepts."""
    return [
        f"{module}:{node.lineno}"
        for module, tree in sorted(TREES.items())
        if module != "errors.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and predicate(node)
    ]


def _name(func):
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def test_only_errors_decodes_text():
    assert _where(lambda call: _name(call.func) == "decode_text") == []


def test_only_errors_reads_csv_tables():
    assert _where(lambda call: _name(call.func) == "loadtxt") == []


def _calls_by_function(tree):
    """(name of the innermost enclosing function or None, call) for every
    call in tree."""

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                yield owner, child
            yield from visit(child, owner)

    yield from visit(tree, None)


def _opens_for_writing(call):
    """os.open always counts; another open writes unless its mode is a
    constant with none of w, a, x and +."""
    func = call.func
    if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os":
        return True
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args[1:2]
    mode = modes[0] if modes else ast.Constant("r")
    return not (
        isinstance(mode, ast.Constant)
        and isinstance(mode.value, str)
        and not set(mode.value) & set("wax+")
    )


def test_only_cli_opens_files_and_only_emit_writes():
    opens = [
        (module, owner, _opens_for_writing(call), f"{module}:{call.lineno}")
        for module, tree in sorted(TREES.items())
        for owner, call in _calls_by_function(tree)
        if _name(call.func) == "open"
    ]
    assert [where for module, _, _, where in opens if module != "cli.py"] == []
    assert [where for _, owner, writes, where in opens if writes and owner != "_emit"] == []
    assert [owner for _, owner, writes, _ in opens if writes] == ["_emit"]
    # and only main calls _emit; no command names it
    tree = TREES["cli.py"]
    emits = [owner for owner, call in _calls_by_function(tree) if _name(call.func) == "_emit"]
    assert emits == ["main"]
    commands = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name[:4] == "cmd_"]
    assert sorted(f.name for f in commands) == sorted(f"cmd_{name}" for name in cli._parsers()[1])
    names = [(f.name, getattr(node, "id", None)) for f in commands for node in ast.walk(f)]
    assert [command for command, name in names if name == "_emit"] == []


def test_only_errors_splits_text_into_lines():
    def splits_lines(call):
        return (
            _name(call.func) == "split"
            and len(call.args) == 1
            and isinstance(call.args[0], ast.Constant)
            and call.args[0].value == "\n"
        )

    assert _where(splits_lines) == []


def test_no_module_calls_json_dumps():
    calls = [
        f"{module}:{node.lineno}"
        for module, tree in sorted(TREES.items())
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _name(node.func) in ("dumps", "dump")
    ]
    assert calls == []


def test_render_surface_svg_writes_elements_only_from_templates():
    (render,) = [
        node
        for node in TREES["svgplot.py"].body
        if isinstance(node, ast.FunctionDef) and node.name == "render_surface_svg"
    ]
    nodes = list(ast.walk(render))
    assert [node.lineno for node in nodes if isinstance(node, ast.JoinedStr)] == []
    calls = [node for node in nodes if isinstance(node, ast.Call)]
    assert [call.lineno for call in calls if _name(call.func) == "format"] == []
