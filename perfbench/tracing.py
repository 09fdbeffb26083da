"""Outside-in tracing: timing wrappers installed on the program's module attributes.

Nothing in ``src/`` is edited.  Each wrapper replaces one module-level name
(``radial_ode.solve_ivp``, ``bubble_family.evaluate_bubble``, ...) so calls
that look the name up at call time, from the CLI, between modules or into
scipy, open a span.  A span is (name, start, end, parent span, call id);
spans stay in memory and are written once, when the process ends.

A layer's self time is its spans' durations minus the time their child
spans cover.  Counts come from arguments and return values: points are
rows of the point array, ``nfev`` is read from the solver's result.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
from collections import Counter
from time import perf_counter


def _rows(a) -> int:
    shape = getattr(a, "shape", None)
    if shape is None:
        return len(a)
    return 1 if len(shape) <= 1 else int(shape[0])


class Tracer:
    """Span recorder for one process."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.call_id: int | None = None
        self.shoot_tol: float | None = None

    def wrap(self, module, attr: str, name: str, count=None, enter=None) -> None:
        """Replace ``module.attr`` with a wrapper recording spans named ``name``.

        ``enter(tracer, bound_args)`` runs before the call and
        ``count(tracer, bound_args, result)`` after a normal return.
        """
        fn = getattr(module, attr)
        signature = inspect.signature(fn) if (count or enter) else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if enter is not None:
                    enter(tracer, bound.arguments)
            tracer.counts[name + ".calls"] += 1
            parent = tracer.stack[-1] if tracer.stack else None
            sid = len(tracer.spans)
            tracer.spans.append(None)
            tracer.stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.spans[sid] = (name, start, end, parent, tracer.call_id)
            if count is not None:
                count(tracer, bound.arguments, result)
            return result

        setattr(module, attr, wrapper)

    def dump(self, path: str) -> None:
        """Write spans and counts once, as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def _points(arg: str, metric: str):
    def count(tracer, args, result):
        tracer.counts[metric] += _rows(args[arg])
    return count


def _file_bytes(tracer, args, result):
    path = args.get("path")
    if path is not None and os.path.exists(path):
        tracer.counts["reporting.bytes_written"] += os.path.getsize(path)


def _shoot_enter(tracer, args):
    tracer.shoot_tol = float(args["tol"])


def _least_squares_count(tracer, args, result):
    tracer.counts["scipy.least_squares.nfev"] += int(result.nfev)
    tracer.counts["radial_ode.shoot_robin.starts"] += 1
    worst = max(abs(float(v)) for v in result.fun)
    if tracer.shoot_tol is not None and worst <= tracer.shoot_tol:
        tracer.counts["radial_ode.shoot_robin.useful_starts"] += 1


def _solve_ivp_count(tracer, args, result):
    tracer.counts["scipy.solve_ivp.nfev"] += int(result.nfev)


def install() -> Tracer:
    """Import the program and wrap the public functions of every library module."""
    from halfspace_bubbles import (
        bubble_family,
        cli,
        conformal_ball,
        fd_verifier,
        kelvin_inversion,
        radial_ode,
        reporting,
        sampling,
    )

    t = Tracer()
    w = t.wrap
    w(cli, "main", "cli.main")
    # exponent_system is reached only through the names cli imported from it
    w(cli, "load_spec", "exponent_system.load_spec")
    w(cli, "validate_spec", "exponent_system.validate_spec")

    w(bubble_family, "solve_betas", "bubble_family.solve_betas")
    w(radial_ode, "solve_betas", "bubble_family.solve_betas")
    evaluate_points = _points("y", "bubble_family.evaluate_bubble.points")
    w(bubble_family, "evaluate_bubble", "bubble_family.evaluate_bubble", count=evaluate_points)
    w(kelvin_inversion, "evaluate_bubble", "bubble_family.evaluate_bubble", count=evaluate_points)
    w(bubble_family, "interior_residual_relative", "bubble_family.residual_relative")
    w(bubble_family, "boundary_residual_relative", "bubble_family.residual_relative")

    w(fd_verifier, "residual_sweep", "fd_verifier.residual_sweep")
    w(fd_verifier, "convergence_order", "fd_verifier.convergence_order")

    w(kelvin_inversion, "sweep_moving_spheres", "kelvin_inversion.sweep_moving_spheres")
    w(kelvin_inversion, "difference_w", "kelvin_inversion.difference_w",
      count=_points("y", "kelvin_inversion.difference_w.points"))
    w(kelvin_inversion, "verify_symmetry_identity", "kelvin_inversion.verify_symmetry_identity")

    w(conformal_ball, "verify_T_properties", "conformal_ball.verify_T_properties")
    w(conformal_ball, "transform_v", "conformal_ball.transform_v",
      count=_points("z", "conformal_ball.transform_v.points"))
    w(conformal_ball, "verify_radial", "conformal_ball.verify_radial")
    w(conformal_ball, "ball_system_residual", "conformal_ball.ball_system_residual")

    w(radial_ode, "integrate_radial", "radial_ode.integrate_radial")
    w(radial_ode, "shoot_robin", "radial_ode.shoot_robin", enter=_shoot_enter)
    w(radial_ode, "halfline_breakdown", "radial_ode.halfline_breakdown")
    w(radial_ode, "solve_ivp", "scipy.solve_ivp", count=_solve_ivp_count)
    w(radial_ode, "least_squares", "scipy.least_squares", count=_least_squares_count)

    for name in sampling.__all__:
        w(sampling, name, "sampling")
    for name in ("ball_points", "unit_directions"):
        w(conformal_ball, name, "sampling")

    w(reporting, "write_report", "reporting.write_report", count=_file_bytes)
    for name in ("write_sweep_csv", "write_trajectory_csv", "write_trace_csv"):
        w(reporting, name, "reporting.write_csv", count=_file_bytes)
    return t


def self_times(spans: list) -> Counter:
    """Per-name self time: span duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out: Counter = Counter()
    for sid, (name, start, end, _, _) in enumerate(spans):
        out[name] += (end - start) - child[sid]
    return out


# Per-layer metric -> (source, key).  Sources: "self" (seconds), "count".
LAYER_METRICS = {
    "cli.main.calls": ("count", "cli.main.calls"),
    "cli.main.self_s": ("self", "cli.main"),
    "exponent_system.load_spec.self_s": ("self", "exponent_system.load_spec"),
    "exponent_system.validate_spec.self_s": ("self", "exponent_system.validate_spec"),
    "bubble_family.solve_betas.calls": ("count", "bubble_family.solve_betas.calls"),
    "bubble_family.solve_betas.self_s": ("self", "bubble_family.solve_betas"),
    "bubble_family.evaluate_bubble.points": ("count", "bubble_family.evaluate_bubble.points"),
    "bubble_family.evaluate_bubble.self_s": ("self", "bubble_family.evaluate_bubble"),
    "bubble_family.residual_relative.self_s": ("self", "bubble_family.residual_relative"),
    "fd_verifier.residual_sweep.calls": ("count", "fd_verifier.residual_sweep.calls"),
    "fd_verifier.residual_sweep.self_s": ("self", "fd_verifier.residual_sweep"),
    "fd_verifier.convergence_order.self_s": ("self", "fd_verifier.convergence_order"),
    "kelvin_inversion.sweep_moving_spheres.self_s": ("self", "kelvin_inversion.sweep_moving_spheres"),
    "kelvin_inversion.difference_w.calls": ("count", "kelvin_inversion.difference_w.calls"),
    "kelvin_inversion.difference_w.points": ("count", "kelvin_inversion.difference_w.points"),
    "kelvin_inversion.verify_symmetry_identity.self_s":
        ("self", "kelvin_inversion.verify_symmetry_identity"),
    "conformal_ball.verify_T_properties.self_s": ("self", "conformal_ball.verify_T_properties"),
    "conformal_ball.transform_v.points": ("count", "conformal_ball.transform_v.points"),
    "conformal_ball.verify_radial.self_s": ("self", "conformal_ball.verify_radial"),
    "conformal_ball.ball_system_residual.self_s": ("self", "conformal_ball.ball_system_residual"),
    "radial_ode.integrate_radial.calls": ("count", "radial_ode.integrate_radial.calls"),
    "radial_ode.integrate_radial.self_s": ("self", "radial_ode.integrate_radial"),
    "radial_ode.shoot_robin.self_s": ("self", "radial_ode.shoot_robin"),
    "radial_ode.shoot_robin.starts": ("count", "radial_ode.shoot_robin.starts"),
    "radial_ode.halfline_breakdown.self_s": ("self", "radial_ode.halfline_breakdown"),
    "scipy.solve_ivp.calls": ("count", "scipy.solve_ivp.calls"),
    "scipy.solve_ivp.nfev": ("count", "scipy.solve_ivp.nfev"),
    "scipy.solve_ivp.self_s": ("self", "scipy.solve_ivp"),
    "scipy.least_squares.nfev": ("count", "scipy.least_squares.nfev"),
    "sampling.self_s": ("self", "sampling"),
    "reporting.write_report.self_s": ("self", "reporting.write_report"),
    "reporting.write_csv.self_s": ("self", "reporting.write_csv"),
    "reporting.bytes_written": ("count", "reporting.bytes_written"),
}


def layer_metrics(dumps: list[dict]) -> dict[str, float]:
    """Per-layer metrics summed over the span dumps of one or more processes."""
    selfs: Counter = Counter()
    counts: Counter = Counter()
    for dump in dumps:
        selfs.update(self_times(dump["spans"]))
        counts.update(dump["counts"])
    out = {}
    for metric, (source, key) in LAYER_METRICS.items():
        out[metric] = float(selfs[key]) if source == "self" else int(counts[key])
    starts = counts["radial_ode.shoot_robin.starts"]
    out["radial_ode.shoot_robin.useful_ratio"] = (
        counts["radial_ode.shoot_robin.useful_starts"] / starts if starts else 0.0
    )
    return out
