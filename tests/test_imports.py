"""Every name a module of the package imports at module level is used in that
module: read, or listed in its ``__all__``; every private module-level
definition is read somewhere in the package; no module reaches BLAS or
LAPACK; no module but ``weights`` draws count rows; and no public callable
takes the weights twice."""

import ast
import importlib
import inspect
import typing
from pathlib import Path

import pytest

from pivotboot.weights import CenteredWeights, WeightVector

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


def private_definitions(tree: ast.Module) -> set[str]:
    """Module-level functions, classes and constants whose names start with
    one underscore."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(target.id for target in targets if isinstance(target, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def read_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, as a name or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


def test_every_private_definition_is_read():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    read = set().union(*map(read_names, trees.values()))
    unread = {f"{name}: {private}" for name, tree in trees.items()
              for private in private_definitions(tree) - read}
    assert unread == set()


# numpy's products and modules that call BLAS or LAPACK, whose summation order
# depends on the CPU kernel the library picks when it loads.  Every inner
# product goes through weights.dot (np.einsum) instead, so no report does.
BLAS_NAMES = {"vecdot", "dot", "matmul", "inner", "linalg", "polynomial"}
BLAS_MODULES = ("numpy.linalg", "numpy.polynomial")


def blas_uses(tree: ast.Module) -> list[int]:
    """Lines that use ``@``, a numpy name in ``BLAS_NAMES`` or a module in
    ``BLAS_MODULES``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            found = isinstance(node.op, ast.MatMult)
        elif isinstance(node, ast.Attribute):
            found = (isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
                     and node.attr in BLAS_NAMES)
        elif isinstance(node, ast.Import):
            found = any(alias.name.startswith(BLAS_MODULES) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found = (node.module or "").startswith(BLAS_MODULES) or (
                node.module == "numpy" and any(alias.name in BLAS_NAMES for alias in node.names))
        else:
            found = False
        if found:
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_blas_or_lapack(path):
    assert blas_uses(ast.parse(path.read_text(), filename=str(path))) == []


# The generator methods that draw resample indices or count rows.  Only
# weights.draw_multinomial_batch calls them, so the choice between index
# counting and numpy's multinomial sampler is made in one place.
COUNT_SAMPLERS = {"multinomial", "integers"}


def sampler_calls(tree: ast.Module) -> list[int]:
    """Lines that call a method named in ``COUNT_SAMPLERS``."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in COUNT_SAMPLERS)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_only_weights_draws_count_rows(path):
    calls = sampler_calls(ast.parse(path.read_text(), filename=str(path)))
    assert (calls != []) == (path.name == "weights.py"), calls


def public_callables():
    """(qualified name, object) of every public callable that a module of the
    package defines, exception types (builtin signatures) aside."""
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(
            "pivotboot" if path.stem == "__init__" else f"pivotboot.{path.stem}")
        for attr, obj in vars(module).items():
            if (callable(obj) and not attr.startswith("_")
                    and getattr(obj, "__module__", None) == module.__name__
                    and not (isinstance(obj, type) and issubclass(obj, Exception))):
                yield f"{module.__name__}.{attr}", obj


def test_no_public_callable_takes_weights_and_their_centred_values():
    # Centred weights carry their weight vector, so a parameter of each type
    # could only be a second, possibly mismatched, copy of the same weights.
    both = []
    for name, obj in public_callables():
        parameters = inspect.signature(obj, eval_str=True).parameters.values()
        types = [t for p in parameters for t in (p.annotation, *typing.get_args(p.annotation))]
        if WeightVector in types and CenteredWeights in types:
            both.append(name)
    assert both == []
