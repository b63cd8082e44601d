"""The library is what the program runs: every definition in `src/periflow`
is reached from the CLI, and instruments no scenario runs live in
`tests/oracles.py`.  Reach follows name and attribute references from
`cli.main`, `parse_config`, `run_scenario` and every module-level statement
but imports; an attribute reaches every method of its name, and a reached
class reaches its dunder methods.

Every option has a caller too: each parameter with a default, and each field
with a default of a frozen dataclass, is passed by some call in `src` by
position, by keyword or through `**`.  A call matches a definition by name,
as above; a class call passes the fields of a dataclass or the parameters of
`__init__`."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "periflow"
# no scenario calls it, but perfbench/spans.py traces it by name, so it
# leaves with the next change to the benchmark
ALLOWED = {"metric.laplace_beltrami_matrix"}


def names(nodes) -> set[str]:
    return {getattr(sub, "id", None) or getattr(sub, "attr", None)
            for node in nodes for sub in ast.walk(node)} - {None}


def test_every_definition_is_reached():
    defs, roots = {}, []  # name -> [(qualified name, node)]; module-level statements

    def define(qualname, node):
        defs.setdefault(node.name, []).append((qualname, node))

    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                define(f"{path.stem}.{node.name}", node)
                for member in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(member, ast.FunctionDef):
                        define(f"{path.stem}.{node.name}.{member.name}", member)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots.append(node)
    todo, seen, reached = {"main", "parse_config", "run_scenario"} | names(roots), set(), set()
    while todo:
        seen.add(name := todo.pop())
        for qualname, node in defs.get(name, ()):
            parts = [node]
            if isinstance(node, ast.ClassDef):  # methods other than dunders go by name
                parts = [*node.decorator_list, *node.bases, *(
                    s for s in node.body
                    if not isinstance(s, ast.FunctionDef) or s.name.startswith("__"))]
                reached |= {f"{qualname}.{s.name}" for s in parts if isinstance(s, ast.FunctionDef)}
            reached.add(qualname)
            todo |= names(parts) - seen
    unreached = {qualname for found in defs.values() for qualname, _ in found} - reached
    assert not unreached - ALLOWED, f"reached by no scenario: {sorted(unreached - ALLOWED)}"
    assert ALLOWED <= unreached, "an allowed exception is reached now; drop it"


# parameter -> why no call in src passes it
UNSET_ALLOWED = {
    "cli.main.argv": "the tests pass argv; the console script passes none",
    "periodic.fixed_point_solve.start": "acceptance criterion 6 starts the iteration from noise",
    **{f"surfaces.{family}.{name}": "set from [surface] keys by "
       "FAMILIES[family](period=..., **params), a call through a subscript"
       for family, names in (("breathing_circle", ("amplitude", "period", "r0")),
                             ("rotating_ellipse", ("a", "b", "period")),
                             ("bean", ("period", "dent", "pulse", "skew")))
       for name in names},
}


def frozen_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               and any(k.arg == "frozen" and getattr(k.value, "value", False) for k in d.keywords)
               for d in node.decorator_list)


def with_defaults(args: ast.arguments) -> list[tuple[str, int | None]]:
    """(name, position) of each parameter with a default; None for keyword-only."""
    positional = [*args.posonlyargs, *args.args]
    first = len(positional) - len(args.defaults)
    return [(a.arg, i) for i, a in enumerate(positional) if i >= first] + [
        (a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def test_every_default_is_set_by_the_program():
    options, calls = [], []  # (qualified name, callee, parameter, position); calls
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {id(m): c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for m in c.body if isinstance(m, ast.FunctionDef)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and frozen_dataclass(node):
                annotated = [s for s in node.body if isinstance(s, ast.AnnAssign)]
                options += [(f"{path.stem}.{node.name}.{s.target.id}", node.name, s.target.id, i)
                            for i, s in enumerate(annotated) if s.value is not None]
            elif isinstance(node, ast.FunctionDef):
                owner, callee, qualname, shift = methods.get(id(node)), node.name, node.name, 0
                if owner is not None:  # the instance or class fills the first parameter
                    qualname, shift = f"{owner.name}.{node.name}", 1
                    callee = owner.name if node.name == "__init__" else node.name
                options += [(f"{path.stem}.{qualname}.{name}", callee, name,
                             None if i is None else i - shift)
                            for name, i in with_defaults(node.args)]
            elif isinstance(node, ast.Call):
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                calls.append((getattr(node.func, "id", None) or getattr(node.func, "attr", None),
                              len(node.args), starred, {k.arg for k in node.keywords}))

    def passed(callee, name, position):
        return any(called == callee and (None in keywords or starred or name in keywords
                                         or (position is not None and n_args > position))
                   for called, n_args, starred, keywords in calls)

    unset = {qualname for qualname, *option in options if not passed(*option)}
    missing = unset - UNSET_ALLOWED.keys()
    assert not missing, f"set by no call in src: {sorted(missing)}"
    assert UNSET_ALLOWED.keys() <= unset, "an allowed default is set now; drop it"
