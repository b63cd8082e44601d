"""The library is what the program runs: every definition in `src/periflow`
is reached from the CLI, and instruments no scenario runs live in
`tests/oracles.py`.  Reach follows name and attribute references from
`cli.main`, `parse_config`, `run_scenario` and every module-level statement
but imports; an attribute reaches every method of its name, and a reached
class reaches its dunder methods."""

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
