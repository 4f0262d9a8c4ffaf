import importlib

import pytest

MODULES = ["nhosc", "nhosc.canonical", "nhosc.linalg", "nhosc.spectra", "nhosc.wavefun",
           "nhosc.weyl"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    """Every exported name exists: tools that wrap a module's public functions
    look each one up."""
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_weyl_exports_no_ladder_names():
    from nhosc import weyl

    ladder = {"LadderPoly", "to_ladder", "to_weyl", "fock_bands", "fock_matrix"}
    assert ladder.isdisjoint(weyl.__all__)
