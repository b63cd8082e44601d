"""The library is what the program runs, and the program uses all of it.

Seven scans of the package sources, each a function of the source directory,
so that `test_scans_report_their_plants` can run them on a planted package:

* `unreached`: every definition in `src/periflow` is reached from the CLI;
  instruments no scenario runs live in `tests/oracles.py`.  Reach follows
  name and attribute references from `main`, `parse_config`, `run_scenario`
  and every module-level statement but imports; an attribute reaches every
  method of its name, and a reached class reaches its dunder methods.
* `unset_defaults` and `overridden_defaults`: every option has two values in
  use.  Each parameter with a default, and each field with a default of a
  frozen dataclass, is passed by some call in `src` (by position, by keyword
  or through `*` or `**`) and left unset by another.  A call matches a
  definition by name, as above; a class call passes the fields of a
  dataclass or the parameters of `__init__`.
* `unread_fields`: every field of a dataclass, every property and every
  `self.<name>` assigned in an `__init__` is loaded as an attribute somewhere
  in `src`, matched by name as above.
* `unread_constants`: every module-level name is loaded, by name or as an
  attribute, somewhere in `src`, so a constant left behind by removed code
  shows.
* `random_draws`: the functions that call `np.random`, so that a result
  depends on no random draw its caller does not control.
* `shape_error_sites`: the functions that build a `GridMismatchError`,
  so that every shape error comes from `fields._require_shape` in its one
  message form.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "periflow"
# no scenario calls it, but perfbench/spans.py traces it by name, so it
# leaves with the next change to the benchmark
ALLOWED = {"metric.laplace_beltrami_matrix"}
_FAMILY_PARAMETERS = {
    f"surfaces.{family}.{name}"
    for family, names in (("circle", ("period", "radius")),
                          ("breathing_circle", ("amplitude", "period", "r0")),
                          ("rotating_ellipse", ("a", "b", "period")),
                          ("bean", ("period", "dent", "pulse", "skew")))
    for name in names
}
# parameter -> why no call in src passes it
UNSET_ALLOWED = {
    "cli.main.argv": "the tests pass argv; the console script passes none",
    "periodic.fixed_point_solve.start": "acceptance criterion 6 starts the iteration from noise",
    **{name: "set from [surface] keys by FAMILIES[family](period=..., **params), a call "
       "through a subscript" for name in _FAMILY_PARAMETERS - {"surfaces.circle.radius",
                                                               "surfaces.circle.period"}},
}
# instance attribute -> why nothing in src reads it.  NonuniquenessError.spectral_gap
# is the same kind of payload; the name match counts SolvabilityReport.spectral_gap's
# reads for it
_PAYLOAD = ("the fault record for a caller that catches the error, kept as safety code; "
            "main prints the message, which names it already")
UNREAD_ALLOWED = {"errors.StepError.level": _PAYLOAD, "errors.ProjectionError.location": _PAYLOAD}
# function -> why its np.random call leaves the result to the caller
RANDOM_ALLOWED = {
    "periodic.default_probes": "draws the noise probes from the caller's seed",
    "periodic._eigenvalue_nearest_one": "a fixed ARPACK start vector, so reruns agree",
}
# parameter -> why every call in src passes it
OVERRIDDEN_ALLOWED = {
    name: "the [surface] schema: parse_config reads the keys and defaults of a family "
    "from its signature" for name in _FAMILY_PARAMETERS
}


def modules(src: Path) -> list[tuple[str, ast.Module]]:
    """(module name, syntax tree) of each module of the package at `src`."""
    return [(path.stem, ast.parse(path.read_text())) for path in sorted(src.glob("*.py"))]


def names(nodes) -> set[str]:
    return {getattr(sub, "id", None) or getattr(sub, "attr", None)
            for node in nodes for sub in ast.walk(node)} - {None}


def unreached(src: Path) -> set[str]:
    """Qualified names of the definitions no reference chain from the roots reaches."""
    defs, roots = {}, []  # name -> [(qualified name, node)]; module-level statements

    def define(qualname, node):
        defs.setdefault(node.name, []).append((qualname, node))

    for stem, tree in modules(src):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                define(f"{stem}.{node.name}", node)
                for member in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(member, ast.FunctionDef):
                        define(f"{stem}.{node.name}.{member.name}", member)
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
    return {qualname for found in defs.values() for qualname, _ in found} - reached


def decorated(node, name: str) -> bool:
    """Whether `node` carries the decorator `name`, called or not."""
    return any(getattr(getattr(d, "func", d), "id", None) == name for d in node.decorator_list)


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


def options_and_calls(src: Path):
    """Every default as (qualified name, callee, parameter, position) and every
    call as (callee, positional count, starred, keywords), where a `**`
    argument puts None among the keywords."""
    options, calls = [], []
    for stem, tree in modules(src):
        methods = {id(m): c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for m in c.body if isinstance(m, ast.FunctionDef)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and frozen_dataclass(node):
                annotated = [s for s in node.body if isinstance(s, ast.AnnAssign)]
                options += [(f"{stem}.{node.name}.{s.target.id}", node.name, s.target.id, i)
                            for i, s in enumerate(annotated) if s.value is not None]
            elif isinstance(node, ast.FunctionDef):
                owner, callee, qualname, shift = methods.get(id(node)), node.name, node.name, 0
                if owner is not None:  # the instance or class fills the first parameter
                    qualname, shift = f"{owner.name}.{node.name}", 1
                    callee = owner.name if node.name == "__init__" else node.name
                options += [(f"{stem}.{qualname}.{name}", callee, name,
                             None if i is None else i - shift)
                            for name, i in with_defaults(node.args)]
            elif isinstance(node, ast.Call):
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                calls.append((getattr(node.func, "id", None) or getattr(node.func, "attr", None),
                              len(node.args), starred, {k.arg for k in node.keywords}))
    return options, calls


def sets(call, name: str, position: int | None) -> bool:
    """Whether `call` passes the parameter `name` at `position`."""
    _, n_args, starred, keywords = call
    return starred or None in keywords or name in keywords or (
        position is not None and n_args > position)


def unset_defaults(src: Path) -> set[str]:
    """Defaults that no call of their callee passes."""
    options, calls = options_and_calls(src)
    return {qualname for qualname, callee, name, position in options
            if not any(sets(c, name, position) for c in calls if c[0] == callee)}


def overridden_defaults(src: Path) -> set[str]:
    """Defaults that every call of their callee passes, so no call uses the value."""
    options, calls = options_and_calls(src)
    return {qualname for qualname, callee, name, position in options
            if all(sets(c, name, position) for c in calls if c[0] == callee)}


def instance_attributes(node: ast.ClassDef) -> set[str]:
    """Names of the `self.<name>` assignment targets in the class's `__init__`."""
    return {sub.attr for s in node.body if isinstance(s, ast.FunctionDef) and s.name == "__init__"
            for sub in ast.walk(s) if isinstance(sub, ast.Attribute)
            and isinstance(sub.ctx, ast.Store) and getattr(sub.value, "id", None) == "self"}


def unread_fields(src: Path) -> set[str]:
    """Dataclass fields, properties and instance attributes whose name no
    attribute load reads."""
    members, loaded = set(), set()
    for stem, tree in modules(src):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                prefix = f"{stem}.{node.name}"
                if decorated(node, "dataclass"):
                    members |= {(f"{prefix}.{s.target.id}", s.target.id)
                                for s in node.body if isinstance(s, ast.AnnAssign)}
                members |= {(f"{prefix}.{s.name}", s.name) for s in node.body
                            if isinstance(s, ast.FunctionDef) and decorated(s, "property")}
                members |= {(f"{prefix}.{name}", name) for name in instance_attributes(node)}
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return {qualname for qualname, name in members if name not in loaded}


def unread_constants(src: Path) -> set[str]:
    """Qualified names of the module-level assignment targets whose name no
    name or attribute load in `src` reads."""
    defined, loaded = set(), set()
    for stem, tree in modules(src):
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {(f"{stem}.{sub.id}", sub.id) for target in targets
                            for sub in ast.walk(target) if isinstance(sub, ast.Name)}
        loaded |= {getattr(sub, "id", None) or sub.attr for sub in ast.walk(tree)
                   if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load)}
    return {qualname for qualname, name in defined if name not in loaded}


def scopes(src: Path) -> list[tuple[str, ast.AST]]:
    """(qualified name, node) of each function and method, and of each
    module-level statement under its module's name."""
    found = []
    for stem, tree in modules(src):
        found += [(f"{stem}.{node.name}", node) for node in tree.body
                  if isinstance(node, ast.FunctionDef)]
        found += [(f"{stem}.{node.name}.{member.name}", member) for node in tree.body
                  if isinstance(node, ast.ClassDef) for member in node.body
                  if isinstance(member, ast.FunctionDef)]
        found += [(stem, node) for node in tree.body
                  if not isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    return found


def random_draws(src: Path) -> set[str]:
    """Qualified names of the scopes holding a call `np.random.<name>(...)`."""
    return {qualname for qualname, scope in scopes(src) for sub in ast.walk(scope)
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
            and isinstance(module := sub.func.value, ast.Attribute)
            and module.attr == "random" and getattr(module.value, "id", None) in ("np", "numpy")}


def shape_error_sites(src: Path) -> set[str]:
    """Qualified names of the scopes holding a call `GridMismatchError(...)`."""
    return {qualname for qualname, scope in scopes(src) for sub in ast.walk(scope)
            if isinstance(sub, ast.Call)
            and "GridMismatchError" in (getattr(sub.func, "id", None),
                                        getattr(sub.func, "attr", None))}


def test_every_definition_is_reached():
    found = unreached(SRC)
    assert not found - ALLOWED, f"reached by no scenario: {sorted(found - ALLOWED)}"
    assert ALLOWED <= found, "an allowed exception is reached now; drop it"


def test_every_default_is_set_by_the_program():
    unset = unset_defaults(SRC)
    missing = unset - UNSET_ALLOWED.keys()
    assert not missing, f"set by no call in src: {sorted(missing)}"
    assert UNSET_ALLOWED.keys() <= unset, "an allowed default is set now; drop it"


def test_every_default_is_relied_on_by_the_program():
    overridden = overridden_defaults(SRC)
    missing = overridden - OVERRIDDEN_ALLOWED.keys()
    assert not missing, f"passed by every call in src: {sorted(missing)}"
    assert OVERRIDDEN_ALLOWED.keys() <= overridden, "an allowed default is relied on now; drop it"


def test_every_field_is_read_by_the_program():
    unread = unread_fields(SRC)
    missing = unread - UNREAD_ALLOWED.keys()
    assert not missing, f"read by nothing in src: {sorted(missing)}"
    assert UNREAD_ALLOWED.keys() <= unread, "an allowed field is read now; drop it"


def test_every_constant_is_read_by_the_program():
    unread = unread_constants(SRC)
    assert not unread, f"module-level names read by nothing in src: {sorted(unread)}"


PLANTED = '''
from dataclasses import dataclass

import numpy as np

from . import errors

_OFFSET = 1.0
_STARTS = 8


@dataclass(frozen=True)
class Report:
    value: float
    unread: float

    @property
    def doubled(self) -> float:
        return 2.0 * self.value


def scale(x, factor=2.0, offset=0.0):
    return factor * x + offset


def orphan():
    return np.random.default_rng().random()


class Tally:
    def __init__(self, start):
        if np.ndim(start):
            raise errors.GridMismatchError(f"start of shape {np.shape(start)} is not a scalar")
        self.total, self.first = start, start


def main():
    doubled = scale(1.0, offset=_OFFSET)  # a variable of the property's name, not a read of it
    return Report(doubled, 0.0).value + Tally(doubled).total
'''


def test_random_draws_are_left_to_the_caller():
    drawn = random_draws(SRC)
    missing = drawn - RANDOM_ALLOWED.keys()
    assert not missing, f"np.random called in: {sorted(missing)}"
    assert RANDOM_ALLOWED.keys() <= drawn, "an allowed function draws no more; drop it"


def test_shape_errors_are_built_in_one_place():
    # one message form, "<quantity> of shape <got> does not match <expected>"
    assert shape_error_sites(SRC) == {"fields._require_shape"}


def test_scans_report_their_plants(tmp_path):
    # one violation of each kind, so that a scan which stopped matching fails here
    (tmp_path / "tool.py").write_text(PLANTED)
    assert unreached(tmp_path) == {"tool.orphan"}
    assert unset_defaults(tmp_path) == {"tool.scale.factor"}
    assert overridden_defaults(tmp_path) == {"tool.scale.offset"}
    assert unread_fields(tmp_path) == {"tool.Report.unread", "tool.Report.doubled",
                                       "tool.Tally.first"}
    assert unread_constants(tmp_path) == {"tool._STARTS"}
    assert random_draws(tmp_path) == {"tool.orphan"}
    assert shape_error_sites(tmp_path) == {"tool.Tally.__init__"}
