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


BLAS_CALLS = {"dot", "matmul", "vdot", "inner", "tensordot"}


def blas_products(tree):
    """Line numbers of a module's syntax tree that form a BLAS product: `@`, or a
    call of dot, matmul, vdot, inner or tensordot, as np.name, a method or a
    bare name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.add(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in BLAS_CALLS:
                found.add(node.lineno)
    return found


def test_package_forms_no_blas_product():
    """Every product in the package is a sum in a fixed order, so stdout does
    not depend on the BLAS library or its thread count."""
    sources = sorted(pathlib.Path(nhosc.__file__).parent.glob("*.py"))
    assert len(sources) >= 6
    assert {path.name: blas_products(ast.parse(path.read_text())) for path in sources} == {
        path.name: set() for path in sources}


def test_blas_guard_sees_each_form():
    forms = ["a @ b", "a @= b", "np.dot(a, b)", "a.dot(b)", "numpy.matmul(a, b)", "np.vdot(a, b)",
             "np.inner(a, b)", "np.tensordot(a, b, 1)", "from numpy import dot\ndot(a, b)"]
    assert all(blas_products(ast.parse(form)) for form in forms)
    assert not blas_products(ast.parse(
        "np.einsum('im,in->mn', a, b)\n(a * b).sum(axis=0)\ninner = ', '\ninner.join(c)"))


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
