"""Each library module's `__all__` lists exactly its public top-level
functions and classes: nothing defined is left out, nothing deleted stays."""

import importlib
import inspect

import pytest

MODULES = (
    "frame_algebra",
    "chart_geometry",
    "tensor_calculus",
    "stability_analysis",
    "flow_engine",
    "holder_interpolation",
)


@pytest.mark.parametrize("name", MODULES)
def test_all_matches_public_definitions(name):
    mod = importlib.import_module(f"chflow.{name}")
    public = {
        attr
        for attr, obj in vars(mod).items()
        if not attr.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == mod.__name__
    }
    assert set(mod.__all__) == public
    assert len(mod.__all__) == len(set(mod.__all__))
