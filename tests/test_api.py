"""The package's public names, and the scipy and numpy.linalg functions it calls."""
import ast
import importlib
import inspect
from pathlib import Path

import pytest

import rosenblatt


def test_exports_are_pinned():
    # a change to the exports is an API change: update this list and declare it
    assert sorted(rosenblatt.__all__) == [
        "ArbitrageReport", "ArbitrageTrade", "DomainError", "Histogram",
        "HurstParams", "InconclusiveError", "MarketConfig", "MarketPath", "MomentReport",
        "NoiseKind", "ProcessTag", "WalkLaw", "affine_rate",
        "arbitrage_demo", "build_market", "build_markets", "c_const",
        "constant_rate", "covariance", "d_const", "discrete_moment",
        "divergence_scan", "grid_index", "histogram",
        "increment_variance", "kernel", "make_noise", "market", "no_arbitrage_check",
        "path_slabs", "paths", "qv_decay",
        "scale_to_grid", "simulate_ensemble",
        "skewness", "stats", "tabulated_rate",
    ]


# what no command runs lives in the suite's oracles module, not in the package
_ORACLES = ("fbm_kernel", "dK", "_phi_grid", "rosenblatt_kernel", "cell_weight", "_graded",
            "_DEPTH", "_RATIO", "_GNODES", "direct_rosenblatt_walk", "bs_limit", "_simpson")


@pytest.mark.parametrize("module", ["rosenblatt"] + [
    f"rosenblatt.{path.stem}" for path in sorted(Path(rosenblatt.__file__).parent.glob("*.py"))
    if path.stem != "__init__"])
def test_oracles_are_not_in_the_package(module):
    mod = importlib.import_module(module)
    assert [name for name in _ORACLES if hasattr(mod, name)] == []


@pytest.mark.parametrize("name", [n for n in rosenblatt.__all__
                                  if callable(getattr(rosenblatt, n))])
def test_export_has_docstring(name):
    # every class and function, memoised ones too; a dataclass without a
    # docstring is given its signature as one
    obj = getattr(rosenblatt, name)
    assert obj.__doc__ and not obj.__doc__.startswith(f"{obj.__name__}("), name


def test_scipy_surface_is_pinned():
    # every scipy function the package calls is named here, so a new one is a
    # reviewed change: a numpy-only runtime has to own each of them
    imports, used = [], set()
    for path in sorted(Path(rosenblatt.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imports += [(path.name, None, a.name, a.asname) for a in node.names
                            if a.name.split(".")[0] == "scipy"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
                imports += [(path.name, node.module, a.name, a.asname) for a in node.names]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "special"):
                used.add(node.attr)
    # (file, from-module, name, alias): only ``from scipy import special``
    assert imports == [("kernel.py", "scipy", "special", None)]
    assert used == {"beta", "betainc", "betaincc", "eval_jacobi"}


def test_no_polynomial_fit_or_linalg_call():
    # both fitted exponents are statistics.linear_regression's closed-form
    # line, so no reported number rests on a LAPACK solve: the package names
    # no polyfit, imports nothing from numpy.linalg, and calls of it only
    # np.linalg.eigvalsh (_roots_jacobi's nodes)
    names, imported, linalg = set(), set(), set()
    for path in sorted(Path(rosenblatt.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                imported.update(node.name.split("."))
            elif isinstance(node, ast.ImportFrom):
                imported.update((node.module or "").split("."))
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
                if isinstance(node.value, ast.Attribute) and node.value.attr == "linalg":
                    linalg.add(node.attr)
    assert "polyfit" not in names | imported
    assert "linalg" not in imported
    assert linalg == {"eigvalsh"}


def test_no_branch_on_a_process_tag():
    # what a process is lives in its record, ProcessTag.form: no comparison in
    # the package has a ProcessTag member (or its value) as an operand
    found = []
    for path in sorted(Path(rosenblatt.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare) and any(
                    isinstance(a, ast.Attribute) and isinstance(a.value, ast.Name)
                    and a.value.id == "ProcessTag"
                    for operand in [node.left, *node.comparators] for a in ast.walk(operand)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_cli_reads_only_public_names():
    # the CLI is a client of the library: it imports no _-prefixed name from
    # another package module and reads none off one (dunders are public)
    tree = ast.parse((Path(rosenblatt.__file__).parent / "cli.py").read_text())
    relative = [node for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1]
    modules = {a.asname or a.name for node in relative if node.module is None
               for a in node.names}
    names = [a.name for node in relative for a in node.names]
    names += [node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules]
    assert "st" in modules
    assert [x for x in names if x.startswith("_") and not x.endswith("__")] == []
