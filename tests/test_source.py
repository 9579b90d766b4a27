"""Checks on the package's source.

No exception handler in ``src/feastube`` catches every error: a handler
that catches ``Exception``, ``BaseException`` or everything turns a defect
into a fallback that no output shows.  No module-level function, no
method of a module-level class, no function nested in one of these and no
dataclass field keeps a default that no call sets: such a parameter is a
setting that nothing exercises.  Every name the package exports is used by
the package itself, the benchmark, the demos or README's examples, or is
kept for a stated reason.  The one gather in the package is
``value._apply_stencil``'s, so that the value sweep has one apply.  The
one text table is ``track run``'s ``tracking.csv``: every other numeric
series is a ``.npy`` of ``analysis.write_series``.  The one solve of a
margin game is in ``ipc._games``, the kernel that builds every payoff
matrix, and no ``_game`` remains beside it.  A
problem's model data (``f``, ``running_cost``, ``anchor``, its sampler and
its constraints' ``h`` and ``grad``) are read only by the
``ProblemDefinition`` and ``ControlSamples`` methods that check their
shapes and take arrays of times.  Every raise of a toolkit error formats
a value into its message."""

import ast
import re
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


def _dataclass_init(cls: ast.ClassDef) -> ast.FunctionDef | None:
    """The ``__init__`` that ``@dataclass`` writes for ``cls``: one
    parameter per field it takes (not ``ClassVar``, not ``init=False``),
    defaulted where the field has a default.  None when ``cls`` is no
    dataclass or defines its own ``__init__``."""
    if not any(ast.unparse(d).split("(")[0].split(".")[-1] == "dataclass"
               for d in cls.decorator_list):
        return None
    params = []
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and node.name == "__init__":
            return None
        if not isinstance(node, ast.AnnAssign) or "ClassVar" in ast.unparse(node.annotation):
            continue
        value = node.value
        kw = ({k.arg: k.value for k in value.keywords} if isinstance(value, ast.Call)
              and ast.unparse(value.func).split(".")[-1] == "field" else None)
        if kw is not None and getattr(kw.get("init"), "value", True) is False:
            continue
        default = value is not None and (kw is None or "default" in kw or "default_factory" in kw)
        params.append(node.target.id + ("=0" if default else ""))
    return ast.parse(f"def __init__(self, {', '.join(params)}):\n    pass\n").body[0]


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
                init = _dataclass_init(node)
                for fn in node.body + ([init] if init else []):
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

    # a dataclass's fields are its __init__'s parameters: d takes none
    # (init=False), nor does e; Own's own __init__ counts instead
    lib = ast.parse(
        "@dataclasses.dataclass(frozen=True)\n"
        "class D:\n"
        "    a: int\n    b: int = 1\n    c: list = field(default_factory=list)\n"
        "    d: list | None = dataclasses.field(default=None, init=False)\n"
        "    e: ClassVar[int] = 3\n"
        "@dataclass\n"
        "class Own:\n    b: int = 1\n    def __init__(self, k=2):\n        pass\n"
        "class Plain:\n    b: int = 1\n"
    )
    base = ["D.__init__(b)", "D.__init__(c)", "Own.__init__(k)"]
    cases = {"pass": base,
             "D(0, 2)": ["D.__init__(c)", "Own.__init__(k)"],
             "lib.D(0, c=[])": ["D.__init__(b)", "Own.__init__(k)"],
             "D(*xs); Own(3)": []}
    for code, want in cases.items():
        got = _unset_parameters({"lib": lib}, [ast.parse(code)])
        assert got == [f"lib.{w}" for w in want], code


# Exported names that nothing in src, bench, demos or README's code uses,
# each with its reason.
_EXPORTS_KEPT: dict[str, str] = {}


def _references(tree: ast.AST) -> set[str]:
    """The names, attribute names, imported names and imported modules'
    names used under ``tree``."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        elif isinstance(node, ast.ImportFrom) and node.module:
            out.update(node.module.split("."))
    return out


def _unreferenced_exports(init: ast.Module, modules: list[ast.Module],
                          callers: list[ast.Module], readme: str) -> list[str]:
    """The names that ``init`` imports and that nothing refers to: no
    module-level statement of ``modules`` but the name's own definition,
    nothing in ``callers``, and no word of a fenced code block of
    ``readme``."""
    exported = {a.asname or a.name for node in init.body if isinstance(node, ast.ImportFrom)
                for a in node.names}
    used = set(re.findall(r"\w+", "\n".join(re.findall(r"```[^\n]*\n(.*?)```", readme, re.S))))
    for tree in callers:
        used |= _references(tree)
    for tree in modules:
        for node in tree.body:
            used |= _references(node) - {getattr(node, "name", None)}
    return sorted(exported - used)


def test_every_export_is_used_or_kept():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    init = trees.pop("__init__.py")
    callers = [ast.parse(path.read_text(), str(path))
               for d in ("bench", "demos") for path in sorted((ROOT / d).rglob("*.py"))]
    assert len(trees) > 5 and len(callers) > 5, "the walk read no source"
    unused = _unreferenced_exports(init, list(trees.values()), callers,
                                   (ROOT / "README.md").read_text())
    unkept = [u for u in unused if u not in _EXPORTS_KEPT]
    assert not unkept, f"exported, and used by nothing: {unkept}"
    stale = sorted(set(_EXPORTS_KEPT) - set(unused))
    assert not stale, f"kept as unused, but now used or gone: {stale}"


def test_unreferenced_exports_are_found():
    init = ast.parse("from .lib import Result, by_bench, in_docs, own_only, used\n")
    lib = ast.parse(
        "class Result:\n    def again(self):\n        return Result()\n"
        "def own_only(n):\n    '''in_docs, used'''\n    return own_only(n - 1) or Result()\n"
        "def used():\n    return 1\n"
        "def other():\n    return used()\n"
        "def in_docs():\n    pass\n"
        "def by_bench():\n    pass\n"
    )
    # own_only uses Result, and other uses used; a docstring uses nothing,
    # and README's words outside a code block use nothing
    cases = {("pass", ""): ["by_bench", "in_docs", "own_only"],
             ("lib.by_bench()", ""): ["in_docs", "own_only"],
             ("from feastube import by_bench", "Call in_docs to ..."): ["in_docs", "own_only"],
             ("pass", "Text\n```python\nx = in_docs()\n```\nown_only\n"): ["by_bench", "own_only"]}
    for (code, readme), want in cases.items():
        assert _unreferenced_exports(init, [lib], [ast.parse(code)], readme) == want, code


def _gathers(node: ast.AST, fn=None):
    """The innermost function around each gather under ``node``, an
    attribute named ``take`` (``a.take(i)``, ``np.take(a, i)``), in source
    order; ``<module>`` outside any function."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Attribute) and child.attr == "take":
            yield "<module>" if fn is None else getattr(fn, "name", "<lambda>")
        inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        yield from _gathers(child, child if inner else fn)


def test_the_only_gather_is_the_stencil_apply():
    found = [f"{path.stem}.{name}" for path in sorted(SRC.rglob("*.py"))
             for name in _gathers(ast.parse(path.read_text(), str(path)))]
    assert found == ["value._apply_stencil"]


def test_gathers_are_found():
    code = ("import numpy as np\n"
            "first = np.arange(3).take(0)\n"
            "def apply(a, i):\n    return a.take(i)\n"
            "def outer(a, i):\n    def inner():\n        return np.take(a, i)\n    return inner\n"
            "grab = lambda a: a.take([0])\n"
            "def keep(a, take):\n    return a.taken, a[[0]], take(a), np.take_along_axis\n")
    assert list(_gathers(ast.parse(code))) == ["<module>", "apply", "inner", "<lambda>"]


def _csv_writes(tree: ast.AST):
    """``(where, path)`` for each reference under ``tree`` to a name
    ``write_csv`` (``ana.write_csv``, ``write_csv``), in source order:
    ``where`` is the innermost function around it (``<module>`` outside any),
    and ``path`` the source of the first argument when the reference is
    called with one, else None."""
    args = {id(call.func): call.args for call, _ in _calls(tree)}

    def walk(node, fn):
        for child in ast.iter_child_nodes(node):
            if getattr(child, "attr", getattr(child, "id", None)) == "write_csv":
                first = args.get(id(child))
                yield ("<module>" if fn is None else getattr(fn, "name", "<lambda>"),
                       ast.unparse(first[0]) if first else None)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            yield from walk(child, child if inner else fn)

    yield from walk(tree, None)


def test_the_only_csv_is_tracking_csv():
    found = [(f"{path.stem}.{where}", arg) for path in sorted(SRC.rglob("*.py"))
             for where, arg in _csv_writes(ast.parse(path.read_text(), str(path)))]
    assert found == [("cli._cmd_track", "outdir / 'tracking.csv'")]


def test_csv_writes_are_found():
    code = ("from feastube import analysis as ana\n"
            "from feastube.analysis import write_csv\n"
            "def track(outdir, cols):\n    ana.write_csv(outdir / 'tracking.csv', cols)\n"
            "def report(path, cols):\n    write_csv(path, cols)\n"
            "dump = lambda p, c: ana.write_csv(p, c)\n"
            "writer = ana.write_csv\n"
            "def keep(a, write_csvs):\n"
            "    return a.write_series(a), write_csvs(a), a.write_csv_rows\n")
    assert list(_csv_writes(ast.parse(code))) == [
        ("track", "outdir / 'tracking.csv'"), ("report", "path"), ("<lambda>", "p"),
        ("<module>", None)]


def _solver_calls(tree: ast.AST):
    """The innermost function around each call under ``tree`` of a name
    ``solve_matrix_game`` (``solve_matrix_game(Q)``,
    ``simplex.solve_matrix_game(Q)``), in source order, ``<module>``
    outside any; and ``_game`` for each use of that name, as a function,
    a variable, an attribute or an import."""
    for call, fn in _calls(tree):
        f = call.func
        if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "solve_matrix_game":
            yield "<module>" if fn is None else getattr(fn, "name", "<lambda>")
    for node in ast.walk(tree):
        if "_game" in [getattr(node, a, None) for a in ("id", "attr", "name", "asname")]:
            yield "_game"


def test_the_only_game_solve_is_the_payoff_kernel():
    found = [f"{path.stem}.{name}" for path in sorted(SRC.rglob("*.py"))
             for name in _solver_calls(ast.parse(path.read_text(), str(path)))]
    assert found == ["ipc._games"]


def test_game_solves_are_found():
    code = ("from feastube import simplex\n"
            "from feastube.ipc import _game\n"
            "value = simplex.solve_matrix_game([[1.0]])\n"
            "class Rule:\n    def step(self, Q):\n        return solve_matrix_game(Q)\n"
            "solve = lambda Q: simplex.solve_matrix_game(Q)\n"
            "def _game(Q):\n    return Q\n"
            "def keep(ipc, solve_matrix_game, _games):\n"
            "    return ipc._game, solve_matrix_game, _games(1), ipc.solve_matrix_games(1)\n")
    assert list(_solver_calls(ast.parse(code))) == [
        "<module>", "step", "<lambda>", "_game", "_game", "_game"]


# The model data a problem holds, read only by the ``ProblemDefinition`` and
# ``ControlSamples`` methods that check their shapes.
_DATA = ("anchor", "f", "grad", "h", "running_cost", "sampler")


def _data_reads(node: ast.AST, where: tuple = ()):
    """``(attribute, where)`` for each read of an attribute named in
    ``_DATA`` under ``node`` (``p.anchor(t)``, ``fn = c.grad``), in source
    order; ``where`` names the classes and functions around it, outermost
    first, joined by dots (``<lambda>`` for a lambda, empty at module
    level)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Attribute) and child.attr in _DATA:
            yield child.attr, ".".join(where)
        scope = isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda))
        yield from _data_reads(child, where + (getattr(child, "name", "<lambda>"),)
                               if scope else where)


def test_anchor_and_grad_are_read_only_by_their_batched_methods():
    found = [(attr, f"{path.stem}.{where}") for path in sorted(SRC.rglob("*.py"))
             for attr, where in _data_reads(ast.parse(path.read_text(), str(path)))]
    assert found == [("sampler", "problem.ControlSamples._draw"),
                     ("f", "problem.ProblemDefinition.velocities"),
                     ("f", "problem.ProblemDefinition.velocity_rows"),
                     ("running_cost", "problem.ProblemDefinition.costs"),
                     ("h", "problem.ProblemDefinition.constraint_values"),
                     ("anchor", "problem.ProblemDefinition.anchors"),
                     ("grad", "problem.ProblemDefinition.gradients")]


def test_data_reads_are_found():
    code = ("a = p.anchor(0.0)\n"
            "class Rule:\n    def step(self, c):\n        return c.grad(0.0, self.x)\n"
            "def outer(p):\n    def inner():\n        return p.anchor\n    return inner\n"
            "near = lambda c, x: c.grad(1.0, x)\n"
            "def keep(c, grad, anchor):\n"
            "    return c.grad_bound, c.anchors(0.0), grad(0.0, 1.0), anchor, c.gradients\n"
            "def stage(p, t, x, u):\n    return p.f(t, x, u) + p.running_cost(t, x, u)\n"
            "worst = lambda c, t, x: c.h(t, x)\n"
            "def draw(p, f, h):\n    return p.controls.sampler(0.0, 1), f(h), p.fine, c.hv\n")
    assert list(_data_reads(ast.parse(code))) == [
        ("anchor", ""), ("grad", "Rule.step"), ("anchor", "outer.inner"), ("grad", "<lambda>"),
        ("f", "stage"), ("running_cost", "stage"), ("h", "<lambda>"), ("sampler", "draw")]


def _unformatted_raises(tree: ast.AST, errors: set[str]) -> list[int]:
    """The lines, in order, of each ``raise`` under ``tree`` of a class
    named in ``errors`` whose arguments format no value: no f-string field,
    ``%`` or ``.format`` call."""
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
            continue
        func = node.exc.func
        if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) not in errors:
            continue
        args = node.exc.args + [k.value for k in node.exc.keywords]
        if not any(isinstance(n, ast.FormattedValue)
                   or (isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mod))
                   or (isinstance(n, ast.Attribute) and n.attr == "format")
                   for arg in args for n in ast.walk(arg)):
            lines.append(node.lineno)
    return sorted(lines)


def test_every_toolkit_error_names_a_value():
    errors = {node.name for node in ast.parse((SRC / "errors.py").read_text()).body
              if isinstance(node, ast.ClassDef)}
    raised, found = 0, []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        raised += sum(isinstance(n, ast.Raise) for n in ast.walk(tree))
        found += [f"{path.name}:{line}" for line in _unformatted_raises(tree, errors)]
    assert len(errors) > 10 and raised > 50, "the walk read no source"
    assert not found, f"toolkit errors that name no value: {found}"


def test_unformatted_raises_are_found():
    code = ('raise Failed("no value")\n'
            'raise errors.Failed("plain " "joined")\n'
            'raise Failed(f"at t={t}")\n'
            'raise Failed("x=%s" % x)\n'
            'raise Failed("x={}".format(x))\n'
            'raise Failed(f"fixed")\n'
            'raise ValueError("not a toolkit error")\n'
            'raise Failed(msg)\n'
            'raise exc\n'
            'def inner():\n    if bad:\n        raise Failed("nested")\n')
    assert _unformatted_raises(ast.parse(code), {"Failed"}) == [1, 2, 6, 8, 12]
