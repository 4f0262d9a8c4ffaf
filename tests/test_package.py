import ast
import importlib
import pathlib

import pytest

import nhosc

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


def oracle_uses(tree):
    """Names of the test-only oracles (numpy.linalg, scipy, mpmath) that a
    module's syntax tree imports or reads as np.linalg / numpy.linalg."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif (isinstance(node, ast.Attribute) and node.attr == "linalg"
              and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            names = ["numpy.linalg"]
        else:
            continue
        for name in names:
            if name.split(".")[0] in ("scipy", "mpmath") or name.startswith("numpy.linalg"):
                found.add(name)
    return found


def test_package_uses_no_oracle():
    """numpy.linalg, scipy and mpmath serve only as test oracles: the package
    solves with its own eigensolver."""
    sources = sorted(pathlib.Path(nhosc.__file__).parent.glob("*.py"))
    assert len(sources) >= 6
    assert {path.name: oracle_uses(ast.parse(path.read_text())) for path in sources} == {
        path.name: set() for path in sources}


def test_oracle_guard_sees_each_form():
    forms = ["import numpy.linalg", "from numpy import linalg", "from numpy.linalg import eig",
             "import scipy.linalg", "from mpmath import mp", "np.linalg.eigvals(a)"]
    assert all(oracle_uses(ast.parse(form)) for form in forms)
    assert not oracle_uses(ast.parse("import numpy as np\nnp.sort(a)\nfrom . import linalg"))
