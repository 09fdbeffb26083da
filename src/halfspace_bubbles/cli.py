"""Command-line interface: verification pipelines over spec and parameter files.

Subcommands map onto the library modules: ``validate`` and ``solve-params``
for the structural data and the parameter solve, ``verify`` for analytic
and finite-difference residual checks, ``moving-spheres`` for the critical
radius sweep, ``ball`` for the conformal transport, ``radial`` for the
profile integration and shooting, ``halfline`` for the one-dimensional
breakdown certificate.

Exit status 0 means every check passed, 1 means a check failed, 2 means
the inputs were unusable.  Error paths emit one JSON object with
``error_code`` and ``detail`` on standard error.  Reports are
deterministic: fixed key order, fixed seeds, no timestamps, so identical
inputs give byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import math
import operator
import sys
from pathlib import Path

import numpy as np

from . import bubble_family as bf
from . import conformal_ball as cb
from . import fd_verifier as fd
from . import kelvin_inversion as ki
from . import radial_ode as ro
from . import reporting, sampling
from .errors import (
    HalfspaceBubblesError,
    MalformedSpec,
    SingularPoint,
    StencilOutOfDomain,
)
from .exponent_system import TOL_ROW, load_spec, validate_spec

DEFAULT_SEED = 20240901

INPUT_ERRORS = (MalformedSpec, SingularPoint, StencilOutOfDomain)

# Every gate, one row each: check name -> (relation the value must bear to the threshold,
# threshold).  A check ``<name>_<i>`` reads the row of ``<name>``; README's gate table lists them.
GATES = {
    "analytic_interior_max_rel": (operator.le, 1e-12),
    "analytic_boundary_max_rel": (operator.le, 1e-12),
    "fd_slope_gap": (operator.le, 0.1),
    "critical_radius_found": (operator.ge, 1.0),
    "critical_radius_rel_gap": (operator.le, 1e-6),
    "min_w_below_critical": (operator.ge, 0.0),
    "min_w_above_critical": (operator.ge, 0.0),
    "symmetry_sup_rel": (operator.le, 1e-10),
    "involution_max_rel": (operator.le, 1e-13),
    "containment_strict": (operator.lt, 1.0),
    "boundary_sphere_max_rel": (operator.le, 1e-12),
    "plane_max_rel": (operator.le, 1e-12),
    "mirror_max_rel": (operator.le, 1e-12),
    "radial_variation_max": (operator.le, 1e-10),
    "alpha_condition_residual": (operator.le, 1e-10),
    "closed_form_match_rel": (operator.le, 1e-10),
    "ball_interior_slope_gap": (operator.le, 0.1),
    "ball_boundary_slope_gap": (operator.le, 0.1),
    "integration_match_rel": (operator.le, 1e-8),
    "shooting_mu_rel_gap": (operator.le, 1e-8),
    "shooting_alpha_rel_gap": (operator.le, 1e-8),
    "certificate_found": (operator.gt, 0.0),
    "slope_monotone_decrease": (operator.le, 1e-9),
    "value_at_crossing": (operator.le, 1e-10),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        reporting.write_error("usage", message)
        raise SystemExit(2)


def _finite_float(text: str) -> float:
    """One float field; an empty or non-numeric field, NaN or an infinity raises ValueError."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _positive_float(text: str) -> float:
    """Type of every float flag; argparse reports its ValueError as a usage error."""
    value = _finite_float(text)
    if not value > 0:
        raise ValueError(f"{text!r} is not positive")
    return value


def _int_at_least(minimum: int):
    """Type of an integer flag; argparse reports its ValueError as a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise ValueError(f"{text!r} is less than {minimum}")
        return value

    parse.__name__ = f"integer >= {minimum}"  # argparse names the type in its message
    return parse


def _parse_floats(text: str) -> np.ndarray:
    try:
        return np.array([_finite_float(v) for v in text.split(",")])
    except ValueError as exc:
        raise MalformedSpec(f"cannot parse float list {text!r}: {exc}") from exc


def _parse_boundary_point(text: str, N: int) -> np.ndarray:
    vals = _parse_floats(text)
    if vals.size == N - 1:
        vals = np.append(vals, 0.0)
    if vals.size != N:
        raise MalformedSpec(f"boundary point needs {N - 1} or {N} coordinates, got {vals.size}")
    if vals[-1] != 0.0:
        raise MalformedSpec("boundary point must have last coordinate 0")
    return vals


def _parse_box(text: str | None, N: int) -> np.ndarray:
    if text is None:
        box = np.tile([-2.0, 2.0], (N, 1))
        box[-1] = [0.0, 2.0]
        return box
    vals = _parse_floats(text)
    if vals.size != 2 * N:
        raise MalformedSpec(f"box needs {2 * N} values (lo,hi per axis), got {vals.size}")
    box = vals.reshape(N, 2)
    if np.any(box[:, 0] >= box[:, 1]) or box[-1, 0] < 0:
        raise MalformedSpec("box must have lo < hi per axis and lie in the half-space")
    return box


def _params_at_sigma(spec, sigma: float) -> bf.BubbleParams:
    """make_bubble_params at ``--sigma``, an out-of-range error naming the flag."""
    try:
        return bf.make_bubble_params(spec, sigma)
    except ValueError as exc:
        raise ValueError(f"--{exc}") from None


def _load_params(args, spec) -> bf.BubbleParams:
    if args.params is None:
        return _params_at_sigma(spec, args.sigma)
    params = bf.load_params(args.params)
    if params.y0.shape != (spec.N,) or params.betas.shape != (spec.m,):
        raise MalformedSpec(f"params of y0 shape {params.y0.shape} and betas shape "
                            f"{params.betas.shape} do not fit N = {spec.N}, m = {spec.m}")
    return params


def _validated_spec(args):
    spec = load_spec(args.spec)
    if not spec.admissible:
        raise MalformedSpec(
            "spec violates structural rules: "
            + "; ".join(v.rule for v in validate_spec(spec).violations)
        )
    return spec


def _check(name: str, value: float, scale: float = 1.0) -> dict:
    """Gate ``value`` by the row of ``name`` in GATES, its threshold times ``scale``; NaN fails."""
    relation, threshold = GATES[name.rstrip("_0123456789")]  # fd_slope_gap_0 reads fd_slope_gap
    threshold = threshold * scale
    return {"name": name, "value": value, "threshold": threshold,
            "passed": bool(relation(value, threshold))}


def _finish(report: dict, checks: list[dict], args) -> int:
    passed = all(c["passed"] for c in checks)
    report["checks"] = checks
    report["passed"] = passed
    reporting.write_report(report, args.out)
    return 0 if passed else 1


def _csv_path(args, stem: str) -> Path:
    if args.out is not None:
        return Path(args.out).with_suffix(".csv")
    return Path(f"{stem}.csv")


# ----------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    spec = load_spec(args.spec)
    report = validate_spec(spec)
    out = {"command": "validate", "spec": str(args.spec), "tol_row": TOL_ROW}
    out.update(reporting.jsonable(report))
    reporting.write_report(out, args.out)
    return 0 if report.passed else 1


def cmd_solve_params(args) -> int:
    spec = _validated_spec(args)
    params = _params_at_sigma(spec, args.sigma)
    solve = bf.solve_betas(spec, args.sigma)
    _, per_row, spread = bf.compute_y0N(spec, params.betas, args.sigma)
    report = {
        "command": "solve-params",
        "spec": str(args.spec),
        "sigma": args.sigma,
        "betas": params.betas,
        "y0": params.y0,
        "log_betas_particular": solve.log_betas_particular,
        "nullity": solve.nullity,
        "null_basis": solve.null_basis,
        "y0N_per_row": per_row,
        "y0N_spread": spread,
    }
    reporting.write_report(report, args.out)
    return 0


def cmd_verify(args) -> int:
    spec = _validated_spec(args)
    params = _load_params(args, spec)
    box = _parse_box(args.box, spec.N)
    n_random = args.n_random
    seed = args.seed

    interior_pts = sampling.halfspace_box_points(box, n_random, seed)
    boundary_pts = sampling.boundary_box_points(box, n_random, seed + 1)
    # per block of points, folded by their max
    rel_int, rel_bdy = (
        np.max([relative(spec, params, pts[block]).max(axis=0) for block in fd.point_blocks(len(pts))],
               axis=0)
        for relative, pts in ((bf.interior_residual_relative, interior_pts),
                              (bf.boundary_residual_relative, boundary_pts))
    )

    diameter = float(np.linalg.norm(box[:, 1] - box[:, 0]))
    h = args.h if args.h is not None else 1e-3 * diameter
    field = bf.bubble_field(params)
    conv = fd.convergence_order(spec, field, box, h, n_per_axis=args.grid)

    checks = [
        _check("analytic_interior_max_rel", float(rel_int.max())),
        _check("analytic_boundary_max_rel", float(rel_bdy.max())),
    ]
    checks += [_check(f"fd_slope_gap_{i}", abs(float(conv.slope[i]) - 2.0))
               for i in range(spec.m) if not conv.degenerate[i]]

    report = {
        "command": "verify",
        "spec": str(args.spec),
        "params": params.to_dict(),
        "box": box,
        "n_random": n_random,
        "seed": seed,
        "analytic": {
            "interior_max_rel": rel_int,
            "boundary_max_rel": rel_bdy,
        },
        "fd": conv.finest,
        "convergence": conv,
    }
    if args.csv:
        # central stencils need headroom above the boundary
        deep = interior_pts[interior_pts[:, -1] >= h]
        res_int, res_bdy = fd.residuals_at_points(spec, field, deep, boundary_pts, h)
        reporting.write_residual_csv(res_int, res_bdy, _csv_path(args, "verify"))
        kept = len(deep)
        report["csv_interior_points"] = {"written": kept, "dropped_below_h": n_random - kept}
    return _finish(report, checks, args)


def cmd_moving_spheres(args) -> int:
    spec = _validated_spec(args)
    params = _load_params(args, spec)
    x = _parse_boundary_point(args.x, spec.N) if args.x is not None else np.zeros(spec.N)
    u = bf.bubble_field(params)

    lam_exact = ki.critical_lambda_exact(params, x)
    lam_lo = args.lambda_lo if args.lambda_lo is not None else 0.3 * lam_exact
    lam_hi = args.lambda_hi if args.lambda_hi is not None else 3.0 * lam_exact
    shell = sampling.polar_shell(
        x,
        r_lo=lam_lo * (1 + 1e-9),
        r_hi=50.0 * lam_exact,
        n_radii=args.grid,
        n_dirs=4 * args.grid,
        seed=args.seed,
    )
    # distances and field values once; each radius evaluates only its inverted points
    samples = ki.center_samples(u, x, shell)
    sweep = ki.sweep_moving_spheres(u, samples, lam_lo, lam_hi, n_lambda=args.n_lambda)
    symmetry = ki.verify_symmetry_identity(params, samples)

    below = float(ki.min_w(u, samples, 0.9 * lam_exact)[0].min())
    above = float(ki.min_w(u, samples, 1.1 * lam_exact)[0].min())

    if sweep.lambda_critical_numeric is None:
        rel_gap = None
        checks = [_check("critical_radius_found", 0.0)]
    else:
        rel_gap = abs(sweep.lambda_critical_numeric - lam_exact) / lam_exact
        checks = [_check("critical_radius_rel_gap", rel_gap)]
    checks += [_check("min_w_below_critical", below), _check("min_w_above_critical", -above),
               _check("symmetry_sup_rel", float(symmetry.max()))]

    report = {
        "command": "moving-spheres",
        "spec": str(args.spec),
        "x": x,
        "lambda_exact": lam_exact,
        "lambda_numeric": sweep.lambda_critical_numeric,
        "rel_gap": rel_gap,
        "bracket": list(sweep.bracket) if sweep.bracket else None,
        "min_w_at_0.9": below,
        "min_w_at_1.1": above,
        "symmetry_sup_rel": symmetry,
        "n_samples": shell.shape[0],
        "seed": args.seed,
    }
    if args.csv:
        reporting.write_sweep_csv(sweep, _csv_path(args, "moving-spheres"))
    return _finish(report, checks, args)


def cmd_ball(args) -> int:
    spec = _validated_spec(args)
    params = _load_params(args, spec)
    d = params.d
    N = spec.N
    seed = args.seed

    n_samples = args.grid**2
    box = np.tile([-5.0 * d, 5.0 * d], (N, 1))
    box[-1] = [1e-6 * d, 5.0 * d]
    samples = sampling.halfspace_box_points(box, n_samples, seed)
    xs = [np.zeros(N)]
    for tang in ([1.0], [3.0, 4.0]):
        x = np.zeros(N)
        x[: len(tang)] = tang
        xs.append(x)
    tprops = cb.verify_T_properties(params, xs, samples, seed=seed)

    u = bf.bubble_field(params)
    v = cb.ball_field(params, u)
    radii = np.linspace(0.05, 0.95, 10) * 2 * d
    variation = cb.verify_radial(params, v, radii, seed=seed + 1)

    h = args.h if args.h is not None else 1e-3 * 4 * d
    interior = sampling.ball_points(params.Q, 2 * d, 400, seed + 2, margin=13 * h)
    boundary = sampling.sphere_points(params.Q, 2 * d, 200, seed + 3)
    study = cb.ball_system_residual(spec, params, v, interior, boundary, h)
    slopes = reporting.jsonable(study)  # a slope not fitted is null

    mu, alphas = cb.recover_mu_alpha(params)
    alpha_res = float(
        np.max(
            np.abs(
                np.log(alphas)
                - spec.A @ np.log(alphas)
                + np.log(mu**2 * N * (N - 2))
            )
        )
    )
    r_cmp = np.linspace(0.0, 2 * d * (1 - 1e-9), 100)
    dirs = sampling.unit_directions(N, 100, seed + 4)
    z_cmp = params.Q + r_cmp[:, None] * dirs
    psi_exact = ro.closed_form_psi(N, alphas, mu, r_cmp)
    psi_match = float(np.max(np.abs(cb.transform_v(params, u, z_cmp) - psi_exact) / psi_exact))

    checks = [
        _check("involution_max_rel", tprops.involution_max_rel),
        _check("containment_strict", tprops.containment_max_ratio),
        _check("boundary_sphere_max_rel", tprops.boundary_sphere_max_rel),
        _check("plane_max_rel", max(tprops.plane_max_rel.values())),
        _check("mirror_max_rel", max(tprops.mirror_max_rel.values())),
        _check("radial_variation_max", float(variation.max())),
        _check("alpha_condition_residual", alpha_res),
        _check("closed_form_match_rel", psi_match),
    ]
    checks += [_check(f"ball_{part}_slope_gap_{i}",
                      abs(float(getattr(study, f"slope_{part}")[i]) - 2.0))
               for i in range(spec.m) for part in ("interior", "boundary")
               if not getattr(study, f"degenerate_{part}")[i]]

    report = {
        "command": "ball",
        "spec": str(args.spec),
        "setup": {"xbar": params.xbar, "d": d},
        "t_properties": tprops,
        "radial_variation": {"radii": radii, "max_rel": variation},
        "residual_slopes": {key: slopes[key] for key in (
            "h_list", "sup_interior", "sup_boundary", "slope_interior", "slope_boundary")},
        "mu": mu,
        "alphas": alphas,
        "alpha_condition_residual": alpha_res,
        "closed_form_match_rel": psi_match,
        "seed": seed,
    }
    return _finish(report, checks, args)


def cmd_radial(args) -> int:
    spec = _validated_spec(args)
    params = _load_params(args, spec)
    d = params.d
    mu, alphas = cb.recover_mu_alpha(params)

    alphas_shoot, mu_shoot, shot, duality = ro.shoot_robin(spec, d, tol=1e-10)
    mu_gap = abs(mu_shoot - mu) / mu
    alpha_gap = float(np.max(np.abs(alphas_shoot - alphas) / alphas))
    # the shot profile, integrated once, against the closed form of the given params
    traj = shot.at(np.linspace(0.0, 2 * d, 200))
    exact = ro.closed_form_psi(spec.N, alphas, mu, traj.r)
    match_err = float(np.max(np.abs(traj.psi - exact) / exact))

    checks = [
        _check("integration_match_rel", match_err),
        _check("shooting_mu_rel_gap", mu_gap),
        _check("shooting_alpha_rel_gap", alpha_gap),
    ]
    report = {
        "command": "radial",
        "spec": str(args.spec),
        "d": d,
        "mu_recovered": mu,
        "alphas_recovered": alphas,
        "integration_match_rel": match_err,
        "mu_shoot": mu_shoot,
        "alphas_shoot": alphas_shoot,
        "shooting_mu_rel_gap": mu_gap,
        "shooting_alpha_rel_gap": alpha_gap,
        "kelvin_duality_residual": duality,
    }
    if args.csv:
        reporting.write_trajectory_csv(traj, _csv_path(args, "radial"))
    return _finish(report, checks, args)


def cmd_halfline(args) -> int:
    spec = _validated_spec(args)
    u0 = _parse_floats(args.u0) if args.u0 is not None else np.ones(1)
    if u0.size not in (1, spec.m):
        raise MalformedSpec(f"--u0 needs 1 or {spec.m} values, got {u0.size}")
    u0 = np.broadcast_to(u0, spec.m)
    cert = ro.halfline_breakdown(spec, u0)

    slopes = cert.trace[:, 1 + spec.m :]
    # relative to the largest slope, so the gate reads the same at every scale of u0
    monotone = float(np.max(np.diff(slopes, axis=0)) / np.max(np.abs(slopes)))
    checks = [
        _check("certificate_found", cert.t_star),
        _check("slope_monotone_decrease", monotone),
        _check("value_at_crossing", float(abs(cert.u_at_t_star[cert.failing_component])),
               float(np.max(u0))),
    ]
    report = {
        "command": "halfline",
        "spec": str(args.spec),
        "u0": u0,
    }
    report.update(reporting.jsonable(cert))
    report["n_trace"] = len(cert.trace)
    if args.csv:
        reporting.write_trace_csv(cert.trace, _csv_path(args, "halfline"), spec.m)
    return _finish(report, checks, args)


# ----------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; each ``parse_args`` returns a fresh namespace."""
    parser = _Parser(prog="halfspace-bubbles", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, params=False, csv=False, seed=False):
        """Subcommand parser with the shared flags it reads."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--spec", required=True, help="system JSON file (N, m, A, B, c)")
        if params:
            p.add_argument("--params", help="parameter JSON file (sigma, betas, y0)")
            p.add_argument("--sigma", type=_positive_float, default=1.0,
                           help="solve parameters at this scale instead")
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        if csv:
            p.add_argument("--csv", action="store_true", help="also write the CSV table")
        if seed:
            p.add_argument("--seed", type=_int_at_least(0), default=DEFAULT_SEED,
                           help="sample-set seed")
        return p

    command("validate", cmd_validate, "check the structural rules of a spec file")

    p = command("solve-params", cmd_solve_params, "solve the amplitude system and center height")
    p.add_argument("--sigma", type=_positive_float, default=1.0, help="length scale (default 1.0)")

    p = command("verify", cmd_verify, "analytic and finite-difference residual checks",
                params=True, csv=True, seed=True)
    p.add_argument("--box", help="2N comma floats lo,hi per axis")
    p.add_argument("--grid", type=_int_at_least(1), default=8, help="lattice points per axis")
    p.add_argument("--h", type=_positive_float, help="finite-difference step")
    p.add_argument("--n-random", type=_int_at_least(1), default=1000, help="random sample count")

    p = command("moving-spheres", cmd_moving_spheres,
                "critical-radius sweep about a boundary center", params=True, csv=True, seed=True)
    p.add_argument("--x", help="boundary center, comma floats")
    p.add_argument("--lambda-lo", type=_positive_float, help="sweep start radius")
    p.add_argument("--lambda-hi", type=_positive_float, help="sweep end radius")
    p.add_argument("--n-lambda", type=_int_at_least(2), default=33, help="radius grid size")
    p.add_argument("--grid", type=_int_at_least(1), default=24,
                   help="radial shells in the sample set")

    p = command("ball", cmd_ball, "conformal transport checks and parameter recovery",
                params=True, seed=True)
    p.add_argument("--grid", type=_int_at_least(100), default=100,
                   help="sqrt of the mapping sample count")
    p.add_argument("--h", type=_positive_float, help="finite-difference step")

    command("radial", cmd_radial, "Robin shooting, its profile against the closed form",
            params=True, csv=True)

    p = command("halfline", cmd_halfline, "one-dimensional positivity breakdown certificate",
                csv=True)
    p.add_argument("--u0", help="initial values, comma floats (default ones)")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except INPUT_ERRORS as exc:
        reporting.write_error(exc.code, str(exc))
        return 2
    except HalfspaceBubblesError as exc:
        # every other library error is a failed check
        reporting.write_error(exc.code, str(exc))
        return 1
    except (ValueError, KeyError, OSError, OverflowError) as exc:
        reporting.write_error("input_error", str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
