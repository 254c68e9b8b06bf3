"""Every name a module of the package imports at module level is used in that
module: read, or listed in its ``__all__``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pivotboot"

# simulation.py calls none of these; it binds them only because the
# benchmark's traced mode (perfbench/layers.instrument) patches them by these
# names in that module.  ROADMAP item 1 empties this list.
UNUSED_FOR_BENCHMARK = {
    "simulation.py": {
        "ci_ecdf", "ci_finite_pop_mean", "ci_population_mean", "ci_sample_mean",
        "ci_superpop_mean", "draw_replicates", "refined_contains", "empirical_pivot", "g_star",
        "starred_variant", "student_t", "t_star", "WeightVector", "center",
    },
}


def imported_names(tree: ast.Module) -> set[str]:
    """Names bound by the module-level imports, ``__future__`` excepted."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, and the strings of its ``__all__``."""
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            used.update(item.value for item in ast.walk(node.value)
                        if isinstance(item, ast.Constant) and isinstance(item.value, str))
    return used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = imported_names(tree) - used_names(tree)
    assert unused == UNUSED_FOR_BENCHMARK.get(path.name, set())
