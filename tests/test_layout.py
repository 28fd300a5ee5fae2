"""Source layout: every FFT of the package goes through one transform path,
no study tolerance or stepper setting is an argument, and every function,
method and constant of ``src/`` is reached by a command, a criterion oracle
or the benchmark.

``spectral.padded_samples`` synthesises samples and ``spectral.band_coeffs``
takes them back; no other function calls a numpy FFT. The benchmark tracer
(perfbench/spans.py) wraps ``np.fft.fft`` and ``np.fft.ifft`` on the numpy
module, so a module that imports from ``numpy.fft`` by name would escape it.
"""

import ast
import dataclasses
import inspect
import re
from pathlib import Path

import pytest

from torus4nls import dynamics, experiments, functionals, kernels

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "torus4nls"
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


STEPPERS = ("_picard_step", "_rk4_step", "duhamel_step", "integrate", "integrate_many",
            "reference_integrate")
STUDIES = ("conservation_study", "bona_smith_rate_study", "eps_convergence_study",
           "riccati_study", "continuity_study", "inequality_sweeps")


def test_no_tolerance_is_an_argument():
    """Each study's thresholds are one ``*_THRESHOLDS`` constant: no study
    and not ``certify_cm`` takes a parameter named after a threshold, nor
    one of the certificate search's fixed settings. Likewise the Picard
    tolerance, the Picard budget and the blow-up factor are ``dynamics``
    constants: no stepper takes them, and ``SolverConfig`` holds only the
    step and m (ε is an input of each run)."""
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
    for step in (dynamics._picard_step, dynamics._rk4_step):
        assert "cfg" not in inspect.signature(step).parameters
    fields = tuple(f.name for f in dataclasses.fields(dynamics.SolverConfig))
    assert fields == ("dt", "sobolev_index_m")


def test_flags_only_in_cli():
    """Only ``cli.py`` spells a flag. The library names its own parameters,
    as the ``param`` of a ``spectral.InputError``, and the CLI prints the
    flag that sets each one, so no other module of ``src/`` has a ``--name``
    in its code, messages or docs, and no ``InputError`` anywhere is raised
    for a parameter spelled as a flag."""
    spelled = [f"{path.name}:{number}: {line.strip()}"
               for path in MODULES if path.name != "cli.py"
               for number, line in enumerate(path.read_text().splitlines(), 1)
               if re.search(r"--[a-z]", line)]
    assert not spelled, spelled
    as_flags = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and _dotted(node.func) == "InputError":
                param = node.args[0]
                if isinstance(param, ast.JoinedStr):  # an f-string: its first part
                    param = param.values[0]
                if isinstance(param, ast.Constant) and param.value.startswith("-"):
                    as_flags.append(f"{path.name}:{node.lineno}")
    assert not as_flags, as_flags


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


STEP_FUNCTIONS = {"_picard_step", "_rk4_step", "dynamics._picard_step",
                  "dynamics._rk4_step"}


def test_picard_step_has_one_call_site():
    """The one stepping loop ``_stepping`` is the one caller of a scheme's
    step function, and no ``try`` surrounds the call: the step raises its
    errors complete. ``_picard_step`` and ``_rk4_step`` are named nowhere
    but in the public stepper that hands each to the loop."""
    sites = []

    def visit(node, func, in_try):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call) and _dotted(node.func) in (
                {"step"} | STEP_FUNCTIONS):
            sites.append((func, _dotted(node.func), in_try))
        for child in ast.iter_child_nodes(node):
            visit(child, func, in_try or isinstance(node, ast.Try))

    for path in MODULES:
        visit(ast.parse(path.read_text(), filename=str(path)), None, False)
    assert sites == [("_stepping", "step", False)]
    named = _sites(lambda node: _dotted(node) in STEP_FUNCTIONS)
    assert sorted(named) == [("dynamics", "integrate_many"),
                             ("dynamics", "reference_integrate")]


def _sites(matches):
    """(module, enclosing function) of every node in ``src/`` for which
    ``matches`` is true."""
    sites = []

    def visit(node, module, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if matches(node):
            sites.append((module, func))
        for child in ast.iter_child_nodes(node):
            visit(child, module, func)

    for path in MODULES:
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem, None)
    return sites


def _call_sites(names):
    """(module, enclosing function) of every call in ``src/`` whose callee is
    spelled as one of ``names``, or, if ``names`` is a function, of every
    call node for which it is true."""
    matches = names if callable(names) else lambda call: _dotted(call.func) in names
    return _sites(lambda node: isinstance(node, ast.Call) and matches(node))


def test_one_step_clock():
    """``dynamics._steps`` is the one source of step lengths, called by the
    one stepping loop of both schemes; no list of step times is left."""
    assert _call_sites({"_steps", "dynamics._steps"}) == [("dynamics", "_stepping")]
    for path in MODULES:
        assert "_step_times" not in path.read_text(), path.name


def test_one_factor_builder():
    """``dynamics._factors`` is the one builder of W_ε: the one stepping
    loop calls it for both schemes, and the one-field ``semigroup_apply``
    is its one other caller. No stepper goes through ``semigroup_apply`` or
    ``eval_nonlinearity``, not even from a nested helper (which
    ``_call_sites`` would name instead): only ``exact``'s closed forms call
    them."""
    assert _call_sites({"kernels.semigroup_factors", "semigroup_factors"}) == [
        ("dynamics", "_factors")]
    assert sorted(_call_sites({"_factors", "dynamics._factors"})) == [
        ("dynamics", "_stepping"), ("dynamics", "semigroup_apply")]
    one_field = {"semigroup_apply", "eval_nonlinearity", "dynamics.semigroup_apply",
                 "dynamics.eval_nonlinearity"}
    assert sorted(_call_sites(one_field)) == [
        ("exact", "linear_solution"), ("exact", "pde_residual")]


def test_one_sampler_and_one_blocking_helper():
    """``sampling.random_rows`` makes every Gaussian draw of the package;
    ``random_field``, ``certificate_rows`` and the sweep's ``_gn_rows`` draw
    through it. ``spectral.row_blocks`` is the one blocking helper, which
    both verify studies use. ``sampling`` is the one module that names
    ``np.random``: ``rng_for`` through ``default_rng``, and the block form
    ``rngs_from`` through ``PCG64``, ``Generator`` and the ``bit_generator``
    interface it registers its states with; only the two verify studies
    call it, with the states of ``rng_states``. No module imports
    ``numpy.random``, which loads on a command's first draw."""
    assert _sites(lambda node: isinstance(node, ast.ImportFrom)
                  and (node.module or "").startswith("numpy.random")
                  or isinstance(node, ast.Import)
                  and any(a.name.startswith("numpy.random") for a in node.names)) == []

    def names_random(node):
        return isinstance(node, ast.Attribute) \
            and _dotted(node.value) in ("np.random", "numpy.random")

    assert sorted(_sites(names_random)) == [("sampling", "rng_for")] * 2 + [
        ("sampling", "rngs_from")] * 3
    assert sorted(node.attr for path in MODULES
                  for node in ast.walk(ast.parse(path.read_text()))
                  if names_random(node)) == [
        "Generator", "PCG64", "bit_generator", "default_rng", "default_rng"]
    assert sorted(_call_sites({"rng_states", "rngs_from"})) == [
        ("experiments", "inequality_sweeps"), ("experiments", "inequality_sweeps"),
        ("experiments", "inequality_sweeps"), ("experiments", "inequality_sweeps"),
        ("functionals", "certify_cm"), ("functionals", "certify_cm")]
    normals = _call_sites(lambda call: isinstance(call.func, ast.Attribute)
                          and call.func.attr == "standard_normal")
    assert normals == [("sampling", "random_rows")]
    assert sorted(_call_sites({"random_rows"})) == [
        ("experiments", "_gn_rows"), ("functionals", "certificate_rows"),
        ("sampling", "random_field")]
    assert sorted(_call_sites({"row_blocks"})) == [
        ("experiments", "inequality_sweeps"), ("experiments", "inequality_sweeps"),
        ("functionals", "per_sample")]


def test_one_fork_for_two_callers():
    """``experiments.in_worker`` is the package's one ``os.fork``, and it
    has two callers: ``riccati_study`` (the dt/8 order run) and
    ``streamed_table`` (simulate's trajectory writer). No other work
    leaves the process."""
    assert _call_sites({"os.fork", "fork"}) == [("experiments", "in_worker")]
    assert sorted(_call_sites({"in_worker", "experiments.in_worker"})) == [
        ("experiments", "riccati_study"), ("experiments", "streamed_table")]


def test_ensembles_hand_one_observer_the_block():
    """``integrate_many`` calls one observer with each step's (B, N) block:
    it takes no per-member observer lists, and one config for every member.
    ε, which members may differ in, is the run's keyword-only input
    (``epsilons``, and ``eps`` for one run), not a config field.
    ``EnergyRecorder``, an observer
    of one run, takes nothing but (m, coeffs): its c_m and its switch for
    the invariants had no caller that set them."""
    params = list(inspect.signature(dynamics.integrate_many).parameters)
    assert params == ["psi0s", "t_end", "cfg", "coeffs", "observer", "epsilons"]
    for name, eps in (("integrate_many", "epsilons"), ("integrate", "eps"),
                      ("reference_integrate", "eps")):
        param = inspect.signature(getattr(dynamics, name)).parameters[eps]
        assert param.kind is inspect.Parameter.KEYWORD_ONLY, name
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
    manifest goes through its ``.part``-and-rename path. The two other
    writes are pipe ends, which are no files: ``in_worker``'s result pipe
    and ``streamed_table``'s row pipe. ``cli`` opens no pipe of its own."""
    assert sorted(_call_sites(_writes_a_file)) == [
        ("experiments", "_output_file"), ("experiments", "_output_file"),
        ("experiments", "in_worker"), ("experiments", "streamed_table")]
    assert sorted(_call_sites({"os.pipe", "pipe"})) == [
        ("experiments", "in_worker"), ("experiments", "streamed_table")]


def _memo_dicts(tree):
    """Names the module binds at its top level that a function of the
    module fills as a memo: item assignment, or ``setdefault``, ``update``
    or ``__setitem__`` on the name."""
    top = {target.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
           for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
           if isinstance(target, ast.Name)}
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for node in ast.walk(func):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.value.id for t in targets
                         if isinstance(t, ast.Subscript) and isinstance(t.value, ast.Name)]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in {"setdefault", "update", "__setitem__"} \
                    and isinstance(node.func.value, ast.Name):
                names = [node.func.value.id]
            else:
                continue
            found.update(name for name in names if name in top)
    return found


def test_every_cache_is_measured():
    """The package's memo caches are the four ``spectral`` ones and
    ``dynamics._workspace``, whose hits and cost of a miss were measured on
    the benchmark's workloads (see ROADMAP aim 2): a new cache comes with
    its measurement. No module-level dict is filled as a memo behind the
    decorators' back. ``GridSpec``'s ``cached_property``s are per-instance
    fields, not counted here."""
    sites, memos = [], []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        memos += [(path.stem, name) for name in sorted(_memo_dicts(tree))]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for dec in node.decorator_list:
                    name = _dotted(dec.func if isinstance(dec, ast.Call) else dec)
                    if name in {"lru_cache", "cache", "functools.lru_cache",
                                "functools.cache"}:
                        sites.append((path.stem, node.name))
    assert sorted(sites) == [
        ("dynamics", "_workspace"),
        ("spectral", "_grid"),
        ("spectral", "_padded_multiplier"), ("spectral", "_seminorm_weights"),
        ("spectral", "_sobolev_weights")]
    assert memos == []


def test_sample_layouts_have_three_builders():
    """A ``spectral.sample_layout`` is built by ``padded_samples`` for a
    call that brings none, and kept by the two callers that reuse a sample
    stack: the stepper's ``dynamics._workspace`` and
    ``functionals.EnergyRecorder``. ``padded_samples`` takes no other form
    of ``out``, and ``band_coeffs`` reads its band through no layout."""
    assert sorted(_call_sites({"sample_layout", "spectral.sample_layout"})) == [
        ("dynamics", "_workspace"), ("functionals", "_evaluate"),
        ("spectral", "padded_samples")]


def test_the_combine_takes_its_prepared_work_alone():
    """``kernels.nonlinear_combine`` reads its samples through the work
    ``kernels.combine_work`` prepares, and takes nothing else but the λs:
    the stepper's ``dynamics._workspace`` prepares the one work and
    ``dynamics._nonlinearity`` is the one caller."""
    assert list(inspect.signature(kernels.nonlinear_combine).parameters) == ["work", "lam"]
    assert _call_sites({"nonlinear_combine", "kernels.nonlinear_combine"}) == [
        ("dynamics", "_nonlinearity")]
    assert _call_sites({"combine_work", "kernels.combine_work"}) == [
        ("dynamics", "_workspace")]


def test_memo_dicts_are_found():
    """The memo-dict scan of ``test_every_cache_is_measured`` sees each way
    of filling one, and not a local dict or a module-level constant."""
    tree = ast.parse("""
A = {}
B = {}
C = dict()
D = {"k": 1}
E = {}

def fill(key):
    A[key] = 1
    B.setdefault(key, 2)
    C.update(k=3)
    local = {}
    local[key] = 4
    return D["k"] + E.get(key, 0)
""")
    assert _memo_dicts(tree) == {"A", "B", "C"}


def test_one_refusal_path():
    """``spectral.refusing`` is the package's one refusal of a value that
    overflows: the only handler of ``OverflowError`` and, beside the two
    schemes' step functions, the only ``np.errstate``, so no module grows a
    check of its own again."""
    assert sorted(_call_sites({"np.errstate", "numpy.errstate"})) == [
        ("dynamics", "_picard_step"), ("dynamics", "_rk4_step"),
        ("spectral", "refusing")]
    assert _sites(lambda node: isinstance(node, ast.ExceptHandler)
                  and "OverflowError" in ast.unparse(node.type or ast.Tuple([]))) == [
        ("spectral", "refusing")]


# The criterion oracles: reference solutions the acceptance tests compare
# the steppers and studies with, which no command calls.
ORACLES = ("reference_integrate", "linear_solution", "standing_wave")
# Methods Python calls without naming them, and the one a numpy PCG64 calls
# on its seed sequence (``sampling._SeedState``).
IMPLICIT = ("__post_init__", "__init__", "__call__", "__str__", "generate_state")
# The benchmark files that name package code: the tracer wraps functions by
# name and the pass runner reads a constant.
BENCHMARK_FILES = (ROOT / "perfbench" / "spans.py", ROOT / "perfbench" / "passrun.py")


def _uses(nodes, local=False):
    """The names and attributes ``nodes`` read; with ``local``, as one
    function body, whose own arguments and assigned names are no use of a
    module-level definition."""
    reads, bound = set(), set()
    for node in (sub for top in nodes for sub in ast.walk(top)):
        if isinstance(node, ast.Attribute):
            reads.add(node.attr)
        elif isinstance(node, ast.Name):
            (bound if isinstance(node.ctx, ast.Store) else reads).add(node.id)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
    return reads - bound if local else reads


def _definitions():
    """The top-level functions and methods of ``src/`` as ``{"module.name"
    or "module.Class.name": (name, names its body uses)}``, and the names
    that module-level code (constants, decorators, class-level assignments)
    uses. An import uses nothing."""
    defs, module_level = {}, set()

    def define(key, fn):
        defs[key] = (fn.name, _uses([fn.args, *fn.body], local=True))
        module_level.update(_uses(fn.decorator_list))

    for path in MODULES:
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                define(f"{path.stem}.{stmt.name}", stmt)
            elif isinstance(stmt, ast.ClassDef):
                module_level |= _uses(stmt.bases + stmt.keywords + stmt.decorator_list)
                for item in stmt.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        define(f"{path.stem}.{stmt.name}.{item.name}", item)
                    else:
                        module_level |= _uses([item])
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                module_level |= _uses([stmt])
    return defs, module_level


def _traced_names():
    """The attribute names ``perfbench/spans.py`` passes to its
    ``function(...)`` and ``method(...)`` calls, as a literal or as the
    variable of a ``for`` loop over a literal tuple."""
    names = set()

    def visit(node, loops):
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name) \
                and isinstance(node.iter, ast.Tuple):
            loops = {**loops, node.target.id: [e.value for e in node.iter.elts]}
        if isinstance(node, ast.Call) and _dotted(node.func) in ("function", "method"):
            attr = node.args[1]
            if isinstance(attr, ast.Constant):
                names.add(attr.value)
            elif isinstance(attr, ast.Name):
                names.update(loops.get(attr.id, ()))
        for child in ast.iter_child_nodes(node):
            visit(child, loops)

    visit(ast.parse(BENCHMARK_FILES[0].read_text()), {})
    return names


def test_every_function_is_reached():
    """Every top-level function and method of ``src/`` is reached from a
    command handler (``cmd_*`` and ``main``), a criterion oracle, a name
    the benchmark tracer wraps, or a method Python or numpy calls
    implicitly, along the names and attributes each reached body uses;
    module-level code counts as reached. Names are matched by spelling, so a reach is an
    upper bound: what this names, nothing can call. Every module-level
    UPPER_CASE constant is named by other code of ``src/`` or of the
    benchmark files."""
    defs, reached = _definitions()
    reached |= {name for name, _ in defs.values()
                if name.startswith("cmd_") or name == "main"}
    reached |= {*ORACLES, *IMPLICIT, *_traced_names()}
    grown = True
    while grown:
        grown = False
        for name, uses in defs.values():
            if name in reached and not uses <= reached:
                reached |= uses
                grown = True
    unreached = sorted(key for key, (name, _) in defs.items() if name not in reached)
    assert not unreached, f"reached by no command, oracle or benchmark: {unreached}"

    named = set()
    for path in [*MODULES, *BENCHMARK_FILES]:
        named |= _uses([ast.parse(path.read_text(), filename=str(path))])
    constants = sorted(
        f"{path.stem}.{target.id}"
        for path in MODULES
        for stmt in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(stmt, (ast.Assign, ast.AnnAssign))
        for target in (stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target])
        if isinstance(target, ast.Name) and target.id.isupper()
        and target.id not in named)
    assert not constants, f"constants nothing names: {constants}"
