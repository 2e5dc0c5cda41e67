"""Every public library definition is reached by something other than
its own unit tests.

The eight library modules are parsed with ``ast``.  A public top-level
``def`` or ``class`` passes when its name is referenced (an ``ast.Name``
or a ``from ... import`` alias; attribute access does not count) by
another module of the package, by its own module outside its
definition, by ``isomin.__all__``, or by the acceptance or golden tests.
A public method or property of a library class passes when its name is
read as an attribute (``x.name``) by a module of the package or by the
acceptance or golden tests.  Record fields (of a dataclass or a
``NamedTuple``) are not checked: ``repr`` and unpacking show them.  No
definition is exempt.

A parameter with a default, of a public library function or of a
public method of a public library class, passes when some call in the
package or in the acceptance or golden tests binds it, by keyword or
by position.  Calls are matched by the name they call, as above; a
parameter no such call ever sets is a constant in disguise.
"""

import ast
from pathlib import Path

import isomin

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "isomin"
LIBRARY = ("catalog", "expr", "geometry", "minkowski", "quadrature",
           "reconstruct", "singularities", "weierstrass")
USERS = ("test_acceptance.py", "test_golden.py")


def _names(node) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _package() -> dict[str, ast.Module]:
    return {p.stem: _parse(p) for p in sorted(PACKAGE.glob("*.py"))}


def unreached() -> list[str]:
    trees = _package()
    names = {stem: _names(tree) for stem, tree in trees.items()}
    outside = set(isomin.__all__).union(
        *(_names(_parse(ROOT / "tests" / user)) for user in USERS))
    found = []
    for mod in LIBRARY:
        reached = outside.union(
            *(used for stem, used in names.items() if stem != mod))
        body = trees[mod].body
        per_stmt = [_names(stmt) for stmt in body]
        for k, stmt in enumerate(body):
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) \
                    or stmt.name.startswith("_"):
                continue
            if stmt.name not in reached and not any(
                    stmt.name in used
                    for i, used in enumerate(per_stmt) if i != k):
                found.append(f"{mod}.{stmt.name}")
    return found


def _attributes_read(node) -> set[str]:
    return {sub.attr for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}


def unreached_members() -> list[str]:
    trees = _package()
    read = set().union(
        *map(_attributes_read, trees.values()),
        *(_attributes_read(_parse(ROOT / "tests" / user)) for user in USERS))
    found = []
    for mod in LIBRARY:
        for cls in trees[mod].body:
            if not isinstance(cls, ast.ClassDef):
                continue
            found += [f"{mod}.{cls.name}.{stmt.name}" for stmt in cls.body
                      if isinstance(stmt, ast.FunctionDef)
                      and not stmt.name.startswith("_")
                      and stmt.name not in read]
    return found


def test_every_public_definition_is_reached():
    assert unreached() == []


def test_every_public_member_is_reached():
    assert unreached_members() == []


def _calls_by_name(trees) -> dict[str, list[ast.Call]]:
    """Every call in the trees, under the name it calls: f for f(...),
    attr for x.attr(...)."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees:
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Call):
                func = sub.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(sub)
    return calls


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether the call binds the parameter: by keyword, by a ** or by
    position (a * at or before it counts)."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    args = call.args
    return position is not None and (
        len(args) > position or any(isinstance(a, ast.Starred) for a in args))


def _defaulted(fn: ast.FunctionDef, method: bool):
    """(name, position) of each parameter of fn with a default; position
    counts from the first argument a call writes, None for keyword-only."""
    positional = fn.args.posonlyargs + fn.args.args
    static = any(getattr(d, "id", None) == "staticmethod"
                 for d in fn.decorator_list)
    skip = 1 if method and not static else 0
    first = len(positional) - len(fn.args.defaults)
    out = [(a.arg, k - skip) for k, a in enumerate(positional) if k >= first]
    out += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs,
                                          fn.args.kw_defaults) if d is not None]
    return out


def single_value_defaults() -> list[str]:
    """Parameters with a default, of public library functions and of the
    public methods of public library classes, that no call in the
    package or in the acceptance or golden tests passes."""
    trees = _package()
    calls = _calls_by_name([*trees.values(),
                            *(_parse(ROOT / "tests" / user) for user in USERS)])
    found = []
    for mod in LIBRARY:
        for stmt in trees[mod].body:
            if isinstance(stmt, ast.FunctionDef):
                fns = [(stmt, stmt.name, False)]
            elif isinstance(stmt, ast.ClassDef):
                fns = [(m, f"{stmt.name}.{m.name}", True) for m in stmt.body
                       if isinstance(m, ast.FunctionDef)]
            else:
                continue
            for fn, qual, method in fns:
                if any(part.startswith("_") for part in qual.split(".")):
                    continue
                found += [f"{mod}.{qual}.{name}"
                          for name, pos in _defaulted(fn, method)
                          if not any(_passes(c, name, pos)
                                     for c in calls.get(fn.name, ()))]
    return found


def test_every_default_is_passed_somewhere():
    assert single_value_defaults() == []
