"""Layer tracing for one benchmark pass, installed from outside the package.

Every traced call opens a span on a stack; when it returns, its duration
minus the time its child spans covered is added to its layer's self time.
The wrappers are installed by rebinding module attributes, class methods
and the by-name imports that other ``torus4nls`` modules hold, so no
source file of the package is edited. Nothing here is imported by an
untraced pass.
"""

import functools
import math
import sys
import time
from collections import Counter

import numpy as np

_clock = time.perf_counter_ns


class Tracer:
    """Aggregated spans: self time and call count per layer, plus counters."""

    def __init__(self):
        self.self_ns = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self._stack = [[0, 0]]

    def wrap(self, layer, fn, count=None):
        """Return ``fn`` timed as ``layer``; ``count(counts, args, result)``
        adds work counters after each call."""
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [_clock(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = _clock() - frame[0]
                stack.pop()
                self_ns[layer] += duration - frame[1]
                stack[-1][1] += duration
                calls[layer] += 1
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def covered_ns(self):
        """Time covered by outermost spans."""
        return self._stack[0][1]


def _count_fft(counts, args, result):
    n = result.shape[-1]
    counts["fft.points"] += result.size
    counts["fft.flops_computed"] += 5.0 * result.size * math.log2(n)
    counts[f"fft.calls_n{n}"] += 1


def _count_points(counts, args, result):
    counts["kernels.nonlinear_combine.points"] += result.size


def _count_picard(counts, args, result):
    counts["dynamics.picard_iters"] += result[1]


def _rebind(modules, original, wrapped):
    for module in modules:
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, wrapped)


def install():
    """Wrap every traced layer of the imported package; returns the Tracer."""
    from torus4nls import (
        cli, dynamics, experiments, functionals, kernels, mollifier, sampling, spectral,
    )

    tracer = Tracer()
    modules = [m for name, m in sys.modules.items()
               if name == "torus4nls" or name.startswith("torus4nls.")]

    def function(module, attr, layer, count=None):
        original = getattr(module, attr)
        _rebind(modules, original, tracer.wrap(layer, original, count))

    def method(cls, attr, layer):
        setattr(cls, attr, tracer.wrap(layer, getattr(cls, attr)))

    np.fft.fft = tracer.wrap("fft", np.fft.fft, _count_fft)
    np.fft.ifft = tracer.wrap("fft", np.fft.ifft, _count_fft)

    function(kernels, "nonlinear_combine", "kernels.nonlinear_combine", _count_points)
    function(kernels, "weighted_norm_sq", "kernels.norm")
    function(kernels, "weighted_diff_norm_sq", "kernels.norm")
    function(kernels, "semigroup_factors", "kernels.semigroup_factors")
    function(kernels, "apply_multiplier", "kernels.apply_multiplier")

    function(dynamics, "eval_nonlinearity", "dynamics.eval_nonlinearity")
    function(dynamics, "duhamel_step", "dynamics.duhamel_step", _count_picard)
    function(dynamics, "integrate", "dynamics.integrate")
    function(dynamics, "semigroup_apply", "dynamics.semigroup_apply")

    method(spectral.SpectralField, "__post_init__", "spectral.field_init")
    method(spectral.GridSpec, "__post_init__", "spectral.grid_init")
    for attr in ("sobolev_norm", "sobolev_norm_sq", "sobolev_distance",
                 "seminorm_sq", "l2_norm", "lp_norm"):
        function(spectral, attr, "spectral.norm")
    function(spectral, "gn_ratio", "spectral.gn_ratio")

    method(functionals.EnergyRecorder, "__call__", "functionals.recorder")
    function(functionals, "conserved_quantities", "functionals.invariants")
    for attr in ("modified_energy", "difference_energy", "certify_cm"):
        function(functionals, attr, f"functionals.{attr}")

    function(sampling, "random_field", "sampling.random_field")
    function(mollifier, "mollify", "mollifier.mollify")

    for attr in ("bona_smith_rate_study", "conservation_study", "continuity_study",
                 "eps_convergence_study", "inequality_sweeps", "riccati_study"):
        function(experiments, attr, "experiments.study")
    function(experiments, "write_study", "experiments.write_study")
    function(cli, "write_manifest", "cli.write_manifest")
    for attr in dir(cli):
        if attr.startswith("cmd_"):
            function(cli, attr, "cli.command")
    return tracer


def layer_metrics(tracer, wall_s):
    """Per-layer self times (s), call counts and work counters of one pass
    whose traced calls took ``wall_s``; also returns FFT calls by size."""
    calls = tracer.calls
    counts = tracer.counts
    s = {layer: ns / 1e9 for layer, ns in tracer.self_ns.items()}
    steps = calls["dynamics.duhamel_step"]
    applies = calls["dynamics.semigroup_apply"]
    misses = calls["kernels.semigroup_factors"]
    out = {
        "fft.self_s": s.get("fft", 0.0),
        "fft.calls": calls["fft"],
        "fft.points": counts["fft.points"],
        "fft.flops_computed": counts["fft.flops_computed"],
        "kernels.nonlinear_combine.self_s": s.get("kernels.nonlinear_combine", 0.0),
        "kernels.nonlinear_combine.calls": calls["kernels.nonlinear_combine"],
        "kernels.nonlinear_combine.points": counts["kernels.nonlinear_combine.points"],
        "kernels.norm.self_s": s.get("kernels.norm", 0.0),
        "kernels.norm.calls": calls["kernels.norm"],
        "kernels.semigroup_factors.calls": misses,
        "kernels.apply_multiplier.self_s": s.get("kernels.apply_multiplier", 0.0),
        "dynamics.steps": steps,
        "dynamics.picard_iters": counts["dynamics.picard_iters"],
        "dynamics.picard_iters_per_step":
            counts["dynamics.picard_iters"] / steps if steps else 0.0,
        "dynamics.nonlinearity_evals": calls["dynamics.eval_nonlinearity"],
        "dynamics.eval_nonlinearity.self_s": s.get("dynamics.eval_nonlinearity", 0.0),
        "dynamics.duhamel_step.self_s": s.get("dynamics.duhamel_step", 0.0),
        "dynamics.integrate.self_s": s.get("dynamics.integrate", 0.0),
        "dynamics.semigroup_cache_hit_ratio":
            (applies - misses) / applies if applies else 0.0,
        "spectral.fields_built": calls["spectral.field_init"],
        "spectral.field_init.self_s": s.get("spectral.field_init", 0.0),
        "spectral.grids_built": calls["spectral.grid_init"],
        "spectral.norm.self_s": s.get("spectral.norm", 0.0),
        "spectral.gn_ratio.self_s": s.get("spectral.gn_ratio", 0.0),
        "spectral.gn_ratio.calls": calls["spectral.gn_ratio"],
        "functionals.recorder.self_s": s.get("functionals.recorder", 0.0),
        "functionals.recorder.rows": calls["functionals.recorder"],
        "functionals.invariants.self_s": s.get("functionals.invariants", 0.0),
        "functionals.invariants.calls": calls["functionals.invariants"],
    }
    for name in ("modified_energy", "difference_energy", "certify_cm"):
        out[f"functionals.{name}.self_s"] = s.get(f"functionals.{name}", 0.0)
        out[f"functionals.{name}.calls"] = calls[f"functionals.{name}"]
    for layer in ("sampling.random_field", "mollifier.mollify"):
        out[f"{layer}.self_s"] = s.get(layer, 0.0)
        out[f"{layer}.calls"] = calls[layer]
    for layer in ("experiments.study", "experiments.write_study",
                  "cli.command", "cli.write_manifest"):
        out[f"{layer}.self_s"] = s.get(layer, 0.0)
    out["untraced.self_s"] = wall_s - tracer.covered_ns() / 1e9
    fft_sizes = {k[len("fft.calls_n"):]: v for k, v in counts.items()
                 if k.startswith("fft.calls_n")}
    return out, dict(sorted(fft_sizes.items(), key=lambda kv: int(kv[0])))
