import inspect

import pytest

import cfkit
from cfkit import contfrac, correspondence, errors, exact, invariants, literals, paths


def test_all_names_resolve_without_duplicates():
    assert len(set(cfkit.__all__)) == len(cfkit.__all__)
    for name in cfkit.__all__:
        assert hasattr(cfkit, name), name


@pytest.mark.parametrize("module", [exact, contfrac, paths, invariants, correspondence, literals, errors],
                         ids=lambda module: module.__name__)
def test_public_functions_and_classes_are_exported(module):
    public = [name for name, value in vars(module).items()
              if not name.startswith("_") and (inspect.isfunction(value) or inspect.isclass(value))
              and value.__module__ == module.__name__]
    assert public and set(public) <= set(cfkit.__all__), set(public) - set(cfkit.__all__)
