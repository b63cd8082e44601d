"""Every annotation of the public API resolves to a type: the package's
exports and the band API, which `periflow.narrowband` defines and the
package does not re-export."""

import inspect
import typing

import pytest

import periflow
from periflow import narrowband

PUBLIC = {
    name: obj for module in (periflow, narrowband) for name, obj in vars(module).items()
    if not name.startswith("_") and (inspect.isclass(obj) or inspect.isfunction(obj))
    and (module is periflow or obj.__module__ == narrowband.__name__)
}


def annotated(obj):
    """`obj` and, for a class, the functions and properties it defines."""
    yield obj
    if inspect.isclass(obj):
        for member in vars(obj).values():
            if isinstance(member, property):
                member = member.fget
            if inspect.isfunction(member):
                yield member


def test_band_api_is_scanned():
    assert {"build_band", "lift_field", "DistanceField", "NarrowBandGrid"} <= PUBLIC.keys()


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_type_hints_resolve(name):
    for target in annotated(PUBLIC[name]):
        typing.get_type_hints(target)
