"""Every annotation of the public API resolves to a type."""

import inspect
import typing

import pytest

import periflow

EXPORTS = sorted(
    name for name, obj in vars(periflow).items()
    if not name.startswith("_") and (inspect.isclass(obj) or inspect.isfunction(obj))
)


def annotated(obj):
    """`obj` and, for a class, the functions and properties it defines."""
    yield obj
    if inspect.isclass(obj):
        for member in vars(obj).values():
            if isinstance(member, property):
                member = member.fget
            if inspect.isfunction(member):
                yield member


@pytest.mark.parametrize("name", EXPORTS)
def test_type_hints_resolve(name):
    for target in annotated(getattr(periflow, name)):
        typing.get_type_hints(target)
