"""The README's library and family sketches run, and its config example
parses, against the current API."""

import re
from pathlib import Path

from periflow.cli import parse_config

README = Path(__file__).resolve().parent.parent / "README.md"


def fenced_block(language: str, after: str = "") -> str:
    """The first ```language block of the README after the heading `after`."""
    section = README.read_text().split(after, 1)[1]
    match = re.search(rf"```{language}\n(.*?)```", section, re.DOTALL)
    assert match, f"no {language} block after {after!r}"
    return match.group(1)


def test_library_sketch_runs(capsys):
    exec(compile(fenced_block("python", "## Library sketch"), str(README), "exec"), {})
    assert capsys.readouterr().out


def test_family_sketch_runs(capsys):
    exec(compile(fenced_block("python", "## Defining a family"), str(README), "exec"), {})
    assert capsys.readouterr().out


def test_config_example_parses(tmp_path):
    path = tmp_path / "example.cfg"
    path.write_text(fenced_block("ini", "## CLI"))
    cfg = parse_config(path)
    assert (cfg.scenario, cfg.surface_family) == ("periodic-monodromy", "breathing")
