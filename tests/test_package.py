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


def hand_written_inits(tree):
    """Names of the dataclasses in a syntax tree that set init=False or define
    __init__."""
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for decorator in node.decorator_list:
            call = decorator if isinstance(decorator, ast.Call) else None
            target = call.func if call else decorator
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
            if name != "dataclass":
                continue
            no_init = call is not None and any(
                keyword.arg == "init" and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is False for keyword in call.keywords)
            if no_init or any(isinstance(item, ast.FunctionDef) and item.name == "__init__"
                              for item in node.body):
                found.add(node.name)
    return found


def test_dataclasses_keep_the_generated_init():
    """Every validated record lists its fields once and checks them in
    __post_init__."""
    sources = sorted(pathlib.Path(nhosc.__file__).parent.glob("*.py"))
    assert {path.name: hand_written_inits(ast.parse(path.read_text())) for path in sources} == {
        path.name: set() for path in sources}


def test_init_guard_sees_each_form():
    forms = ["@dataclass(frozen=True, init=False)\nclass A:\n    x: int",
             "@dataclasses.dataclass(init=False)\nclass A:\n    x: int",
             "@dataclass\nclass A:\n    def __init__(self):\n        pass",
             "@dataclass(frozen=True)\nclass A:\n    def __init__(self, x):\n        pass"]
    assert all(hand_written_inits(ast.parse(form)) == {"A"} for form in forms)
    assert not hand_written_inits(ast.parse(
        "@dataclass(frozen=True)\nclass A:\n    x: int\n    def __post_init__(self):\n"
        "        pass\nclass B:\n    def __init__(self):\n        pass"))
