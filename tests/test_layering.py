"""The package's modules are layered: every import of one nctorus module
by another is at module level, and the import graph has no cycle.  The
cell rule has one home, ``lll``, which ``partition`` re-exports, and the
package namespace is its modules' ``__all__``."""

import ast
import importlib
from pathlib import Path

import nctorus
from nctorus import lll, partition

SRC = Path(lll.__file__).parent
MODULES = {path.stem for path in SRC.glob("*.py")}


def _sibling(name):
    """The module of ``nctorus.<name>``, or ``__init__`` for a name the
    package namespace holds."""
    return name if name in MODULES else "__init__"


def _package_imports(tree):
    """``(node, module)`` for every import of a module of the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "nctorus":
                    yield node, _sibling(alias.name.partition(".")[2] or "__init__")
        elif isinstance(node, ast.ImportFrom):
            absolute = node.level == 0 and (node.module or "").split(".")[0] == "nctorus"
            if not (node.level == 1 or absolute):
                continue
            module = (node.module or "").removeprefix("nctorus").lstrip(".")
            if module:
                yield node, _sibling(module.split(".")[0])
            else:
                for alias in node.names:
                    yield node, _sibling(alias.name)


def _import_graph():
    graph = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=path.name)
        graph[path.stem] = set()
        for node, module in _package_imports(tree):
            assert node in tree.body, "%s:%d imports %s inside a block" % (
                path.name, node.lineno, module)
            graph[path.stem].add(module)
    return graph


def test_package_imports_are_module_level_and_acyclic():
    graph = _import_graph()
    assert graph["partition"] >= {"lll", "theta"} and "partition" not in graph["lll"]
    done, path = set(), []

    def visit(module):
        assert module not in path, "import cycle: " + " -> ".join(path + [module])
        if module in done:
            return
        path.append(module)
        for target in sorted(graph[module]):
            visit(target)
        path.pop()
        done.add(module)

    for module in sorted(graph):
        visit(module)


def test_the_cell_rule_lives_in_lll():
    # partition calls the cell rule of lll and neither declares nor exports it
    for name in ("QuadratureSpec", "cell_node_counts", "quadrature_nodes", "state_norm"):
        assert name in lll.__all__ and name not in partition.__all__, name
    assert not hasattr(partition, "QuadratureSpec") and not hasattr(partition, "cell_node_counts")
    assert partition.quadrature_nodes is lll.quadrature_nodes
    # the cell rule's sums and the states' norms are defined in lll alone
    theta = importlib.import_module("nctorus.theta")
    for name in ("_grid_classes", "_grid_overlaps", "_grid_exponent_norms", "_scale_power",
                 "_scaled_exp", "state_norm"):
        assert getattr(lll, name).__module__ == "nctorus.lll", name
        assert not hasattr(theta, name), name
    assert partition.state_norm is lll.state_norm


def test_private_names_cross_modules_only_where_listed():
    crossing = set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text(), filename=path.name).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                crossing |= {(path.stem, node.module, alias.name) for alias in node.names
                             if alias.name.startswith("_")}
    assert crossing == {("lll", "theta", "_grid_exponent"),
                        ("partition", "theta", "_theta_residue_norms")}


def test_the_law_rows_live_in_lll():
    # the lemma, the centre and the bimodule check compare the module with
    # its laws in lll alone; matrices re-exports the bimodule check and
    # reads no measured state
    matrices = importlib.import_module("nctorus.matrices")
    assert lll.bimodule_consistency.__module__ == "nctorus.lll"
    assert matrices.bimodule_consistency is lll.bimodule_consistency
    assert not hasattr(matrices, "bimodule_residual") and not hasattr(matrices, "LLLBasis")
    for path in SRC.glob("*.py"):
        if path.stem != "lll":
            text = path.read_text()
            for name in ("_predicted_translations", "_law_deviation", "_law_residual"):
                assert name not in text, (path.name, name)


def test_the_package_exports_each_modules_all():
    # the command line is no part of the library namespace
    for stem in sorted(MODULES - {"__init__", "cli"}):
        module = importlib.import_module("nctorus." + stem)
        for name in module.__all__:
            assert getattr(nctorus, name) is getattr(module, name), (stem, name)
    # and __init__ names none of them itself
    tree = ast.parse((SRC / "__init__.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert [alias.name for alias in node.names] == ["*"], node.lineno
