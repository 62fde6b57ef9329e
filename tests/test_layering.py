"""The package's import layers: the direct Cauchy kernel (`logderiv`) knows
nothing of the far route, the route (`farfield`) builds on the kernel
alone, and the solver (`critical`) is the route's only caller.  The
kernel's block rule is also the one place that starts threads, and
growth's grid DFT the one place that uses numpy's FFT."""

import ast
import pathlib

import critpoint

SRC = pathlib.Path(critpoint.__file__).parent


def _package_imports(path: pathlib.Path) -> set:
    """The package modules that a module's source imports, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("critpoint."))
        elif isinstance(node, ast.ImportFrom):
            if node.level == 1:
                module = node.module
            elif node.module and node.module.split(".")[0] == "critpoint":
                module = node.module.partition(".")[2]
            else:
                continue
            found.update([module.split(".")[0]] if module else [a.name for a in node.names])
    return found


def _absolute_imports(path: pathlib.Path) -> set:
    """The top-level names of the absolute imports of a module's source, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def _fft_users(path: pathlib.Path) -> set:
    """The innermost functions of a module's source that name an FFT
    (`np.fft`, an import of a module or name `fft`), '' at module level."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Attribute) and node.attr == "fft"
                or isinstance(node, ast.alias) and "fft" in node.name.split(".")
                or isinstance(node, ast.ImportFrom) and "fft" in (node.module or "").split(".")):
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(path.read_text()), "")
    return found


def test_only_the_kernel_imports_threads_or_processes():
    """`logderiv._blocked` is the one place that starts threads: no second
    pool runs beside it."""
    concurrency = {"threading", "_thread", "concurrent", "multiprocessing"}
    users = {p.stem for p in SRC.glob("*.py") if _absolute_imports(p) & concurrency}
    assert users == {"logderiv"}


def test_only_the_solver_imports_the_far_route():
    imports = {p.stem: _package_imports(p) for p in SRC.glob("*.py")}
    assert imports["logderiv"] == {"errors"}
    assert imports["farfield"] == {"logderiv"}
    assert {name for name, deps in imports.items() if "farfield" in deps} == {"critical"}


def test_only_the_grid_dft_uses_the_fft():
    """One DFT path, `logderiv._grid_dft`, which loads numpy.fft on its
    first call and not at import."""
    users = {f"{p.stem}.{name}" for p in SRC.glob("*.py") for name in _fft_users(p)}
    assert users == {"logderiv._grid_dft"}
