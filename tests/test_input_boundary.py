"""Outside text is split into lines in one place: errors.py.

The loaders reach their text only through the errors.py decoders, so no
module but errors.py calls decode_text or splits a text on "\\n" itself.
Files are opened in one module, cli.py, and written by one function in
it, _emit. Reports are encoded by one function, cli._encode_json: no
module calls json.dumps or json.dump.
"""

import ast

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
