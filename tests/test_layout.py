"""Source layout: every FFT of the package goes through one transform path.

``spectral.padded_samples`` synthesises samples and ``spectral.band_coeffs``
takes them back; no other function calls a numpy FFT. The benchmark tracer
(perfbench/spans.py) wraps ``np.fft.fft`` and ``np.fft.ifft`` on the numpy
module, so a module that imports from ``numpy.fft`` by name would escape it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "torus4nls"
MODULES = sorted(SRC.glob("*.py"))
TRANSFORM_PATH = {("spectral", "padded_samples"), ("spectral", "band_coeffs")}


def _dotted(node):
    """``a.b.c`` for a chain of attribute lookups on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def _fft_calls(tree):
    """(enclosing function, callee) of every np.fft call but ``fftfreq``."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            if name and name.startswith(("np.fft.", "numpy.fft.")) \
                    and not name.endswith(".fftfreq"):
                found.append((func, name))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_sources_found():
    assert {p.stem for p in MODULES} >= {"spectral", "dynamics", "functionals"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_fft_only_in_transform_path(path):
    calls = _fft_calls(ast.parse(path.read_text(), filename=str(path)))
    stray = [(f, name) for f, name in calls if (path.stem, f) not in TRANSFORM_PATH]
    assert not stray, f"{path.name}: FFT outside the transform path: {stray}"
    assert {name for _, name in calls} <= {"np.fft.fft", "np.fft.ifft"}


def test_transform_path_holds_both_transforms():
    calls = _fft_calls(ast.parse((SRC / "spectral.py").read_text()))
    assert sorted(calls) == [("band_coeffs", "np.fft.fft"),
                             ("padded_samples", "np.fft.ifft")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_fft_imported_by_name(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = {alias.name for alias in node.names}
            assert not module.startswith("numpy.fft"), f"{path.name}: from {module}"
            assert not (module == "numpy" and "fft" in names), \
                f"{path.name}: from numpy import fft"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                assert not alias.name.startswith("numpy.fft"), \
                    f"{path.name}: import {alias.name}"
