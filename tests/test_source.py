"""Checks on the package's source.

No exception handler in ``src/feastube`` catches every error: a handler
that catches ``Exception``, ``BaseException`` or everything turns a defect
into a fallback that no output shows.  No module-level function, no
method of a module-level class, and no function nested in one of these
keeps a defaulted parameter that no call sets: such a parameter is a
setting that nothing exercises."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "feastube"


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


# Defaulted parameters kept although no call sets them, each with its reason.
_UNSET_KEPT = {
    "trajectory.integrate(level)": "every construction takes a control level",
    "value.relaxed_velocity_set(level)": "every construction takes a control level",
    "cli._SubcommandParser.parse_known_args(args)": "overrides argparse's signature; "
                                                    "argparse sets it",
    "cli._SubcommandParser.parse_known_args(namespace)": "overrides argparse's signature; "
                                                         "argparse sets it",
}


def _defaulted(fn: ast.FunctionDef) -> list[str]:
    a = fn.args
    pos = a.posonlyargs + a.args
    names = [x.arg for x in pos[len(pos) - len(a.defaults):]] if a.defaults else []
    return names + [k.arg for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]


def _calls(node: ast.AST, fn=None):
    """``(call, fn)`` for every call under ``node``, ``fn`` the innermost
    function definition the call is in (``None`` outside any)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield child, fn
        inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        yield from _calls(child, child if inner else fn)


def _nested(node: ast.AST):
    """The functions defined under ``node``, not inside one of them."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            yield child
        elif not isinstance(child, (ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            yield from _nested(child)


def _functions(modules: dict[str, ast.Module]):
    """``(key, fn, names, skip)`` for every module-level function, every
    method of a module-level class and every function nested in one of
    these: ``key`` is ``(module, qualified name)``, a call by one of
    ``names`` matches it, and the call's positional arguments start at its
    ``skip``-th parameter."""
    def with_nested(m, name, fn, names, skip):
        yield (m, name), fn, names, skip
        for inner in _nested(fn):
            yield from with_nested(m, f"{name}.{inner.name}", inner, [inner.name], 0)

    for m, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                yield from with_nested(m, node.name, node, [node.name], 0)
            elif isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if not isinstance(fn, ast.FunctionDef):
                        continue
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in fn.decorator_list)
                    names = [fn.name, node.name] if fn.name == "__init__" else [fn.name]
                    yield from with_nested(m, f"{node.name}.{fn.name}", fn, names,
                                           0 if static else 1)


def _unset_parameters(modules: dict[str, ast.Module], callers: list[ast.Module]) -> list[str]:
    """``module.function(parameter)`` (``module.Class.method(parameter)``,
    ``module.function.nested(parameter)``) for every defaulted parameter of
    a function that ``_functions`` yields from ``modules`` that no call in
    ``modules`` or ``callers`` sets.

    A call matches a function by its name or its attribute name (a method by
    its attribute name, ``__init__`` also by its class's name) and sets a
    parameter by keyword, by position, or by ``*``/``**`` unpacking.  It sets
    nothing when it passes on, by name, an unset defaulted parameter of the
    function or method it is in, or the ``*args``/``**kwargs`` of the
    function it is in (a wrapper's callers set what reaches the function).
    """
    funcs, skips, owner = {}, {}, {}
    by_name: dict[str, list] = {}
    for key, fn, names, skip in _functions(modules):
        funcs[key], skips[key], owner[id(fn)] = fn, skip, key
        for name in names:
            by_name.setdefault(name, []).append(key)
    sites = [(call, fn) for tree in callers for call, fn in _calls(tree)]
    sites += [(call, fn) for tree in modules.values() for call, fn in _calls(tree)]
    sets = []   # (callee, parameter, the name passed on, the function it is in)
    for call, fn in sites:
        f = call.func
        callees = by_name.get(f.id if isinstance(f, ast.Name) else getattr(f, "attr", None), [])
        args = getattr(fn, "args", None)
        passed = {v.arg for v in (getattr(args, "vararg", None), getattr(args, "kwarg", None))
                  if v}
        caller = owner.get(id(fn))
        for key in callees:
            pos = [x.arg for x in funcs[key].args.posonlyargs + funcs[key].args.args]
            pos = pos[skips[key]:]
            given = []
            for i, arg in enumerate(call.args):
                if isinstance(arg, ast.Starred):
                    if getattr(arg.value, "id", None) not in passed:
                        given += [(p, None) for p in pos[i:]]
                    break
                if i < len(pos):
                    given.append((pos[i], getattr(arg, "id", None)))
            for k in call.keywords:
                if k.arg:
                    given.append((k.arg, getattr(k.value, "id", None)))
                elif getattr(k.value, "id", None) not in passed:
                    given += [(p, None) for p in _defaulted(funcs[key])]
            sets += [(key, param, via, caller) for param, via in given]
    is_set: set = set()
    while True:
        grown = {(key, param) for key, param, via, caller in sets
                 if caller is None or via not in _defaulted(funcs[caller])
                 or (caller, via) in is_set}
        if grown == is_set:
            break
        is_set = grown
    return sorted(f"{m}.{name}({param})" for (m, name), fn in funcs.items()
                  for param in _defaulted(fn) if ((m, name), param) not in is_set)


def test_no_defaulted_parameter_goes_unset():
    modules = {path.stem: ast.parse(path.read_text(), str(path))
               for path in sorted(SRC.rglob("*.py"))}
    callers = [ast.parse(path.read_text(), str(path))
               for d in ("tests", "bench", "demos") for path in sorted((ROOT / d).rglob("*.py"))]
    assert len(modules) > 5 and len(callers) > 5, "the walk read no source"
    unset = _unset_parameters(modules, callers)
    never_set = [u for u in unset if u not in _UNSET_KEPT]
    assert not never_set, f"{len(never_set)} defaulted parameters no call sets: {never_set}"
    stale = sorted(set(_UNSET_KEPT) - set(unset))
    assert not stale, f"kept as unset, but now set or gone: {stale}"


def test_unset_parameters_are_found():
    lib = ast.parse(
        "def f(a, b=1, c=2, *, d=3):\n    pass\n"
        "def g(x, b=1):\n    return f(x, b)\n"
        "def h(x, b=1):\n    return f(x, c=b)\n"
    )
    cases = {"pass": ["f(b)", "f(c)", "f(d)", "g(b)", "h(b)"],
             "g(0, b=2)": ["f(c)", "f(d)", "h(b)"],       # g passes on a set b
             "h(0, 5)": ["f(b)", "f(d)", "g(b)"],
             "f(0, 1, 2, d=4)": ["g(b)", "h(b)"],
             "f(*args); h(0, 1)": ["f(d)", "g(b)"],
             "f(0, **kw); h(0, 1)": ["g(b)"],
             "def w(*a, **k):\n    return f(*a, **k)\n": ["f(b)", "f(c)", "f(d)", "g(b)", "h(b)"],
             "def w(*a):\n    return f(*args(), **kw)\n": ["g(b)", "h(b)"]}
    for code, want in cases.items():
        got = _unset_parameters({"lib": lib}, [ast.parse(code)])
        assert got == [f"lib.{w}" for w in want], code
    # a function nested in another, as verify_data_assumptions' first_max
    # is, and one nested in that: calls inside pass on the outer defaults
    nested = ast.parse(
        "def k(x, b=1):\n"
        "    def inner(y, c=2, d=3):\n"
        "        def deepest(z, e=4):\n            return z\n"
        "        return deepest(y, e=c)\n"
        "    return inner(x, d=b)\n"
    )
    cases = {"pass": ["k(b)", "k.inner(c)", "k.inner(d)", "k.inner.deepest(e)"],
             "k(0, 5)": ["k.inner(c)", "k.inner.deepest(e)"],
             "inner(0, 1)": ["k(b)", "k.inner(d)"]}
    for code, want in cases.items():
        got = _unset_parameters({"lib": nested}, [ast.parse(code)])
        assert got == [f"lib.{w}" for w in want], code


def test_unset_method_parameters_are_found():
    lib = ast.parse(
        "class E(Exception):\n"
        "    def __init__(self, msg, row=None):\n        self.row = row\n"
        "class C:\n"
        "    def at(self, t, level=0):\n        return self.scale(t, level)\n"
        "    def scale(self, t, level=0, k=1):\n        pass\n"
        "    @staticmethod\n"
        "    def make(n, m=2):\n        pass\n"
    )
    base = ["C.at(level)", "C.make(m)", "C.scale(k)", "C.scale(level)", "E.__init__(row)"]
    cases = {"pass": base,
             "E('no row', 3)": [w for w in base if w != "E.__init__(row)"],
             "raise errors.E('m', row=1)": [w for w in base if w != "E.__init__(row)"],
             "c.at(0.0, 1)": ["C.make(m)", "C.scale(k)", "E.__init__(row)"],
             "c.scale(0.0, 1)": ["C.at(level)", "C.make(m)", "C.scale(k)", "E.__init__(row)"],
             "C.make(1, 3)": [w for w in base if w != "C.make(m)"],
             "C.make(1)": base}
    for code, want in cases.items():
        got = _unset_parameters({"lib": lib}, [ast.parse(code)])
        assert got == [f"lib.{w}" for w in want], code
