"""Checks on the package's source: no exception handler in ``src/feastube``
catches every error.  A handler that catches ``Exception``,
``BaseException`` or everything turns a defect into a fallback that no
output shows."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "feastube"


def _broad(handler: ast.ExceptHandler) -> list[str]:
    """The names of the catch-all types ``handler`` catches."""
    if handler.type is None:
        return ["everything"]
    caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    names = [ast.unparse(t) for t in caught]
    return [n for n in names if n.split(".")[-1] in ("Exception", "BaseException")]


def test_no_handler_catches_every_error():
    handlers, broad = 0, []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ExceptHandler):
                handlers += 1
                broad += [f"{path.name}:{node.lineno} catches {n}" for n in _broad(node)]
    assert handlers, "no handler found: the walk read no source"
    assert not broad, broad


def test_catch_all_handlers_are_found():
    samples = {"try:\n    pass\nexcept:\n    pass\n": ["everything"],
               "try:\n    pass\nexcept Exception:\n    pass\n": ["Exception"],
               "try:\n    pass\nexcept (ValueError, builtins.BaseException):\n    pass\n":
                   ["builtins.BaseException"],
               "try:\n    pass\nexcept (ValueError, FeastubeError):\n    pass\n": []}
    for code, want in samples.items():
        handler = next(n for n in ast.walk(ast.parse(code)) if isinstance(n, ast.ExceptHandler))
        assert _broad(handler) == want, code
