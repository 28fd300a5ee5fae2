"""Source layout: every FFT of the package goes through one transform path,
and no study tolerance or stepper setting is an argument.

``spectral.padded_samples`` synthesises samples and ``spectral.band_coeffs``
takes them back; no other function calls a numpy FFT. The benchmark tracer
(perfbench/spans.py) wraps ``np.fft.fft`` and ``np.fft.ifft`` on the numpy
module, so a module that imports from ``numpy.fft`` by name would escape it.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

from torus4nls import dynamics, experiments, functionals

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


STEPPERS = ("_picard_step", "duhamel_step", "integrate", "integrate_many",
            "reference_integrate")
STUDIES = ("conservation_study", "bona_smith_rate_study", "eps_convergence_study",
           "riccati_study", "continuity_study", "inequality_sweeps")


def test_no_tolerance_is_an_argument():
    """Each study's thresholds are one ``*_THRESHOLDS`` constant: no study
    and not ``certify_cm`` takes a parameter named after a threshold, nor
    one of the certificate search's fixed settings. Likewise the Picard
    tolerance, the Picard budget and the blow-up factor are ``dynamics``
    constants: no stepper takes them, and ``SolverConfig`` holds only the
    step, ε and m."""
    constants = {name: value for name, value in vars(experiments).items()
                 if name.endswith("_THRESHOLDS")}
    banned = {"safety", "resolutions", "certificate", "gn_cases"}
    for value in constants.values():
        banned |= set(value)
    functions = [getattr(experiments, name) for name in STUDIES]
    for fn in functions + [functionals.certify_cm]:
        knobs = banned & set(inspect.signature(fn).parameters)
        assert not knobs, f"{fn.__name__} takes {sorted(knobs)}"
    assert len(constants) == len(STUDIES), sorted(constants)
    for name in STEPPERS:
        params = set(inspect.signature(getattr(dynamics, name)).parameters)
        knobs = {"picard_tol", "picard_max_iters", "blowup_factor"} & params
        assert not knobs, f"{name} takes {sorted(knobs)}"
    assert "cfg" not in inspect.signature(dynamics._picard_step).parameters
    fields = tuple(f.name for f in dataclasses.fields(dynamics.SolverConfig))
    assert fields == ("dt", "epsilon", "sobolev_index_m")


def _identifiers(tree):
    """Every name, attribute and imported name a module's code uses."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def test_norm_layout_stays_in_spectral():
    """The stepper measures its H^m gaps and norms through
    ``spectral.sobolev_norm_sq_rows``: it never handles the norm weights or
    the order the kernels sum in."""
    used = _identifiers(ast.parse((SRC / "dynamics.py").read_text()))
    layout = {"mode_order", "sobolev_weights", "_sobolev_weights",
              "weighted_norm_sq", "weighted_diff_norm_sq"}
    assert not used & layout, sorted(used & layout)


def test_picard_step_has_one_call_site():
    """``integrate_many`` is the one caller of ``_picard_step``, and no
    ``try`` surrounds the call: the step raises its errors complete."""
    sites = []

    def visit(node, in_try):
        if isinstance(node, ast.Call) and _dotted(node.func) in (
                "_picard_step", "dynamics._picard_step"):
            sites.append(in_try)
        for child in ast.iter_child_nodes(node):
            visit(child, in_try or isinstance(node, ast.Try))

    for path in MODULES:
        visit(ast.parse(path.read_text(), filename=str(path)), False)
    assert sites == [False]


def _call_sites(names):
    """(module, enclosing function) of every call in ``src/`` whose callee is
    spelled as one of ``names``, or, if ``names`` is a function, of every
    call node for which it is true."""
    matches = names if callable(names) else lambda call: _dotted(call.func) in names
    sites = []

    def visit(node, module, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call) and matches(node):
            sites.append((module, func))
        for child in ast.iter_child_nodes(node):
            visit(child, module, func)

    for path in MODULES:
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem, None)
    return sites


def test_one_fork_for_one_study():
    """``experiments.in_worker`` is the package's one ``os.fork``, and
    ``riccati_study`` its one caller: no other run leaves the process."""
    assert _call_sites({"os.fork", "fork"}) == [("experiments", "in_worker")]
    assert _call_sites({"in_worker", "experiments.in_worker"}) == [
        ("experiments", "riccati_study")]


def test_ensembles_hand_one_observer_the_block():
    """``integrate_many`` calls one observer with each step's (B, N) block:
    it takes no per-member observer lists. ``EnergyRecorder``, an observer
    of one run, takes nothing but (m, coeffs): its c_m and its switch for
    the invariants had no caller that set them."""
    params = list(inspect.signature(dynamics.integrate_many).parameters)
    assert params == ["psi0s", "t_end", "cfgs", "coeffs", "observer"]
    params = list(inspect.signature(functionals.EnergyRecorder).parameters)
    assert params == ["m", "coeffs"]


def test_every_stepper_takes_one_observer():
    """The three steppers share one observer contract, ``observer(time,
    rows, members)``: each takes exactly one ``observer`` and no list of
    them, no per-sample record type is left for an observer to receive,
    and ``EnergyRecorder`` is called as such an observer."""
    for name in ("integrate_many", "integrate", "reference_integrate"):
        params = inspect.signature(getattr(dynamics, name)).parameters
        assert [p for p in params if p.startswith("observer")] == ["observer"], name
        assert params["observer"].default is None, name
    assert not hasattr(dynamics, "TrajectorySample")
    params = list(inspect.signature(functionals.EnergyRecorder.__call__).parameters)
    assert params == ["self", "time", "rows", "members"]


def _writes_a_file(call):
    """Whether a call makes a directory or opens a file for writing: a
    ``mkdir``, ``makedirs``, ``write_text``, ``write_bytes`` or ``touch``,
    or an ``open`` whose mode writes, appends, creates or updates (a mode
    that is not a literal counts as one that does)."""
    callee = _dotted(call.func)  # None for a method of a call's result
    name = getattr(call.func, "attr", getattr(call.func, "id", None))
    if name in {"mkdir", "makedirs", "write_text", "write_bytes", "touch"}:
        return True
    if name not in {"open", "fdopen"}:
        return False
    file_first = callee in {"open", "io.open", "os.fdopen"}  # else Path.open
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"]
    modes += call.args[1:2] if file_first else call.args[:1]
    if not modes:
        return False  # "r"
    mode = modes[0]
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def test_one_writer_for_every_output_file():
    """``experiments._output_file`` is the one function of the package that
    makes a directory or opens a file to write: every CSV table and JSON
    manifest goes through its ``.part``-and-rename path. The one other
    write is ``in_worker``'s end of its result pipe, which is no file."""
    assert sorted(_call_sites(_writes_a_file)) == [
        ("experiments", "_output_file"), ("experiments", "_output_file"),
        ("experiments", "in_worker")]
