"""The package's modules are layered: every import of one nctorus module
by another is at module level, and the import graph has no cycle.  The
cell rule has one home, ``lll``, which ``partition`` re-exports."""

import ast
from pathlib import Path

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
    for name in ("QuadratureSpec", "cell_node_counts", "quadrature_nodes"):
        assert getattr(partition, name) is getattr(lll, name), name
        assert name in partition.__all__, name
