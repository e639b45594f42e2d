"""Outside text is split into lines in one place: errors.py.

The loaders reach their text only through the errors.py decoders, so no
module but errors.py calls decode_text or splits a text on "\\n" itself.
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


def test_only_errors_splits_text_into_lines():
    def splits_lines(call):
        return (
            _name(call.func) == "split"
            and len(call.args) == 1
            and isinstance(call.args[0], ast.Constant)
            and call.args[0].value == "\n"
        )

    assert _where(splits_lines) == []
