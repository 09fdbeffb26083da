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
    BadBracket,
    FitDiverged,
    HalfspaceBubblesError,
    HorizonExceeded,
    IncompatibleBoundaryCoefficients,
    MalformedSpec,
    NoBubbleParameters,
    NoRealRoot,
    PositivityLoss,
    ShootFailed,
    SingularPoint,
    StencilOutOfDomain,
    StepFailure,
)
from .exponent_system import load_spec, validate_spec

DEFAULT_SEED = 20240901

CHECK_FAILURE_ERRORS = (
    NoBubbleParameters,
    IncompatibleBoundaryCoefficients,
    FitDiverged,
    BadBracket,
    StepFailure,
    PositivityLoss,
    ShootFailed,
    HorizonExceeded,
    NoRealRoot,
)
INPUT_ERRORS = (MalformedSpec, SingularPoint, StencilOutOfDomain)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        reporting.write_error("usage", message)
        raise SystemExit(2)


def _parse_floats(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",") if v != ""])
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


def _parse_box(text: str | None, N: int, scale: float) -> np.ndarray:
    if text is None:
        box = np.tile([-2.0 * scale, 2.0 * scale], (N, 1))
        box[-1] = [0.0, 2.0 * scale]
        return box
    vals = _parse_floats(text)
    if vals.size != 2 * N:
        raise MalformedSpec(f"box needs {2 * N} values (lo,hi per axis), got {vals.size}")
    box = vals.reshape(N, 2)
    if np.any(box[:, 0] >= box[:, 1]) or box[-1, 0] < 0:
        raise MalformedSpec("box must have lo < hi per axis and lie in the half-space")
    return box


def _load_params(args, spec) -> bf.BubbleParams:
    if args.params is not None:
        return bf.load_params(args.params)
    sigma = args.sigma if args.sigma is not None else 1.0
    return bf.make_bubble_params(spec, sigma)


def _validated_spec(args):
    spec = load_spec(args.spec)
    report = validate_spec(spec)
    if not report.passed:
        raise MalformedSpec(
            "spec violates structural rules: "
            + "; ".join(v.rule for v in report.violations)
        )
    return spec


def _check(name: str, value: float, threshold: float, larger_ok: bool = False) -> dict:
    passed = value >= threshold if larger_ok else value <= threshold
    return {"name": name, "value": value, "threshold": threshold, "passed": bool(passed)}


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
    tol_row = args.tol if args.tol is not None else 1e-9
    report = validate_spec(spec, tol_row=tol_row)
    out = {"command": "validate", "spec": str(args.spec), "tol_row": tol_row}
    out.update(report.to_dict())
    reporting.write_report(out, args.out)
    return 0 if report.passed else 1


def cmd_solve_params(args) -> int:
    spec = _validated_spec(args)
    sigma = args.sigma if args.sigma is not None else 1.0
    tol = args.tol if args.tol is not None else 1e-9
    solve = bf.solve_betas(spec, sigma)
    betas = solve.betas()
    y0N, per_row, spread = bf.compute_y0N(spec, betas, sigma, tol_param=tol)
    y0 = np.zeros(spec.N)
    y0[-1] = y0N
    report = {
        "command": "solve-params",
        "spec": str(args.spec),
        "sigma": sigma,
        "betas": betas,
        "y0": y0,
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
    box = _parse_box(args.box, spec.N, scale=1.0)
    n_random = args.n_random
    seed = args.seed

    interior_pts = sampling.halfspace_box_points(box, n_random, seed)
    boundary_pts = sampling.boundary_box_points(box, n_random, seed + 1)
    rel_int = bf.interior_residual_relative(spec, params, interior_pts).max(axis=0)
    rel_bdy = bf.boundary_residual_relative(spec, params, boundary_pts).max(axis=0)

    diameter = float(np.linalg.norm(box[:, 1] - box[:, 0]))
    h = args.h if args.h is not None else 1e-3 * diameter
    h_list = np.array([4 * h, 2 * h, h])
    field = bf.bubble_field(params)
    conv = fd.convergence_order(spec, field, box, h_list, n_per_axis=args.grid)
    fd_report = fd.residual_sweep(spec, field, box, args.grid, h, interior_margin=float(h_list[0]))

    checks = [
        _check("analytic_interior_max_rel", float(rel_int.max()), 1e-12),
        _check("analytic_boundary_max_rel", float(rel_bdy.max()), 1e-12),
    ]
    for i in range(spec.m):
        if not conv.degenerate[i]:
            checks.append(_check(f"fd_slope_gap_{i}", abs(float(conv.slope[i]) - 2.0), 0.1))

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
        "fd": fd_report.to_dict(),
        "convergence": conv.to_dict(),
    }
    if args.csv:
        # central stencils need headroom above the boundary
        deep = interior_pts[interior_pts[:, -1] >= h]
        res_int, res_bdy = fd.residuals_at_points(spec, field, deep, boundary_pts, h)
        reporting.write_residual_csv(res_int, res_bdy, _csv_path(args, "verify"))
    return _finish(report, checks, args)


def cmd_moving_spheres(args) -> int:
    spec = _validated_spec(args)
    params = _load_params(args, spec)
    x = _parse_boundary_point(args.x, spec.N) if args.x else np.zeros(spec.N)
    u = bf.bubble_field(params)

    lam_exact = ki.critical_lambda_exact(params, x)
    lam_lo = args.lambda_lo if args.lambda_lo is not None else 0.3 * lam_exact
    lam_hi = args.lambda_hi if args.lambda_hi is not None else 3.0 * lam_exact
    samples = sampling.polar_shell(
        x,
        r_lo=lam_lo * (1 + 1e-9),
        r_hi=50.0 * lam_exact,
        n_radii=args.grid,
        n_dirs=4 * args.grid,
        seed=args.seed,
        upper=True,
    )
    sweep = ki.sweep_moving_spheres(
        spec, u, x, samples, lam_lo, lam_hi, n_lambda=args.n_lambda
    )
    symmetry = ki.verify_symmetry_identity(params, x, samples)

    dist = np.linalg.norm(samples - x, axis=1)
    below = float(ki.min_w(u, x, 0.9 * lam_exact, samples, dist)[0].min())
    above = float(ki.min_w(u, x, 1.1 * lam_exact, samples, dist)[0].min())

    checks = []
    if sweep.lambda_critical_numeric is None:
        checks.append({"name": "critical_radius_found", "value": 0.0, "threshold": 1.0,
                       "passed": False})
        rel_gap = None
    else:
        rel_gap = abs(sweep.lambda_critical_numeric - lam_exact) / lam_exact
        checks.append(_check("critical_radius_rel_gap", rel_gap, 1e-6))
    checks.append(_check("min_w_below_critical", below, 0.0, larger_ok=True))
    checks.append(_check("min_w_above_critical", -above, 0.0, larger_ok=True))
    checks.append(_check("symmetry_sup_rel", float(symmetry.max()), 1e-10))

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
        "n_samples": samples.shape[0],
        "seed": args.seed,
    }
    if args.csv:
        reporting.write_sweep_csv(sweep, _csv_path(args, "moving-spheres"))
    return _finish(report, checks, args)


def cmd_ball(args) -> int:
    spec = _validated_spec(args)
    params = _load_params(args, spec)
    setup = cb.setup_from_params(params)
    d = setup.d
    N = spec.N
    seed = args.seed

    n_samples = args.grid**2 if args.grid > 32 else 10000
    box = np.tile([-5.0 * d, 5.0 * d], (N, 1))
    box[-1] = [1e-6 * d, 5.0 * d]
    samples = sampling.halfspace_box_points(box, n_samples, seed)
    xs = [np.zeros(N)]
    for tang in ([1.0], [3.0, 4.0]):
        x = np.zeros(N)
        x[: len(tang)] = tang
        xs.append(x)
    tprops = cb.verify_T_properties(setup, xs, samples, seed=seed)

    u = bf.bubble_field(params)
    v = cb.ball_field(setup, u)
    radii = np.linspace(0.05, 0.95, 10) * 2 * d
    variation = cb.verify_radial(setup, v, radii, angular_samples=256, seed=seed + 1)

    h = args.h if args.h is not None else 1e-3 * 4 * d
    interior = sampling.ball_points(setup.Q, 2 * d, 400, seed + 2, margin=13 * h)
    boundary = sampling.sphere_points(setup.Q, 2 * d, 200, seed + 3)
    sups_i, sups_b = [], []
    h_list = [4 * h, 2 * h, h]
    for hh in h_list:
        rep = cb.ball_system_residual(spec, setup, v, interior, boundary, hh)
        sups_i.append(rep.sup_interior)
        sups_b.append(rep.sup_boundary)
    slope_i, degen_i = fd.convergence_from_sups(h_list, np.asarray(sups_i))
    slope_b, degen_b = fd.convergence_from_sups(h_list, np.asarray(sups_b))

    mu, alphas = cb.recover_mu_alpha(setup, params)
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
    z_cmp = setup.Q + r_cmp[:, None] * dirs
    psi_exact = ro.closed_form_psi(N, alphas, mu, r_cmp)
    psi_match = float(np.max(np.abs(cb.transform_v(setup, u, z_cmp) - psi_exact) / psi_exact))

    checks = [
        _check("involution_max_rel", tprops.involution_max_rel, 1e-13),
        {"name": "containment_strict", "value": tprops.containment_max_ratio,
         "threshold": 1.0, "passed": tprops.containment_strict},
        _check("boundary_sphere_max_rel", tprops.boundary_sphere_max_rel, 1e-12),
        _check("plane_max_rel", max(tprops.plane_max_rel.values()), 1e-12),
        _check("mirror_max_rel", max(tprops.mirror_max_rel.values()), 1e-12),
        _check("radial_variation_max", float(variation.max()), 1e-10),
        _check("alpha_condition_residual", alpha_res, 1e-10),
        _check("closed_form_match_rel", psi_match, 1e-10),
    ]
    for i in range(spec.m):
        if not degen_i[i]:
            checks.append(_check(f"ball_interior_slope_gap_{i}", abs(float(slope_i[i]) - 2.0), 0.1))
        if not degen_b[i]:
            checks.append(_check(f"ball_boundary_slope_gap_{i}", abs(float(slope_b[i]) - 2.0), 0.1))

    report = {
        "command": "ball",
        "spec": str(args.spec),
        "setup": {"xbar": setup.xbar, "d": d},
        "t_properties": tprops.to_dict(),
        "radial_variation": {"radii": radii, "max_rel": variation},
        "residual_slopes": {
            "h_list": h_list,
            "sup_interior": np.asarray(sups_i),
            "sup_boundary": np.asarray(sups_b),
            "slope_interior": slope_i,
            "slope_boundary": slope_b,
        },
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
    setup = cb.setup_from_params(params)
    d = setup.d
    mu, alphas = cb.recover_mu_alpha(setup, params)
    tol = args.tol if args.tol is not None else 1e-10

    psi0 = ro.psi_at_origin(spec.N, alphas, mu)
    r_eval = np.linspace(0.0, 2 * d, 200)
    traj = ro.integrate_radial(spec, psi0, 2 * d, tol, r_eval=r_eval)
    exact = ro.closed_form_psi(spec.N, alphas, mu, r_eval)
    match_err = float(np.max(np.abs(traj.psi - exact) / exact))

    alphas_shoot, mu_shoot = ro.shoot_robin(spec, d, tol=1e-10)
    mu_gap = abs(mu_shoot - mu) / mu
    alpha_gap = float(np.max(np.abs(alphas_shoot - alphas) / alphas))

    checks = [
        _check("integration_match_rel", match_err, 1e-8),
        _check("shooting_mu_rel_gap", mu_gap, 1e-8),
        _check("shooting_alpha_rel_gap", alpha_gap, 1e-8),
    ]
    report = {
        "command": "radial",
        "spec": str(args.spec),
        "d": d,
        "tol": tol,
        "mu_recovered": mu,
        "alphas_recovered": alphas,
        "integration_match_rel": match_err,
        "mu_shoot": mu_shoot,
        "alphas_shoot": alphas_shoot,
        "shooting_mu_rel_gap": mu_gap,
        "shooting_alpha_rel_gap": alpha_gap,
    }
    if args.csv:
        reporting.write_trajectory_csv(traj, _csv_path(args, "radial"))
    return _finish(report, checks, args)


def cmd_halfline(args) -> int:
    spec = _validated_spec(args)
    if args.u0:
        u0 = _parse_floats(args.u0)
        if u0.size == 1:
            u0 = np.full(spec.m, u0[0])
    else:
        u0 = np.ones(spec.m)
    tol = args.tol if args.tol is not None else 1e-12
    cert = ro.halfline_breakdown(spec, u0, tol=tol)

    slopes = cert.trace[:, 1 + spec.m :]
    monotone = float(np.max(np.diff(slopes, axis=0)))
    checks = [
        {"name": "certificate_found", "value": cert.t_star, "threshold": 0.0,
         "passed": bool(cert.t_star > 0)},
        _check("slope_monotone_decrease", monotone, 1e-9),
        _check("value_at_crossing", float(abs(cert.u_at_t_star[cert.failing_component])),
               1e-10 * float(np.max(u0))),
    ]
    report = {
        "command": "halfline",
        "spec": str(args.spec),
        "u0": u0,
        "tol": tol,
    }
    report.update(cert.to_dict())
    if args.csv:
        reporting.write_trace_csv(cert.trace, _csv_path(args, "halfline"), spec.m)
    return _finish(report, checks, args)


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="halfspace-bubbles", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, params=False):
        p.add_argument("--spec", required=True, help="system JSON file (N, m, A, B, c)")
        if params:
            p.add_argument("--params", help="parameter JSON file (sigma, betas, y0)")
            p.add_argument("--sigma", type=float, help="solve parameters at this scale instead")
        p.add_argument("--tol", type=float, help="tolerance override (command specific)")
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        p.add_argument("--csv", action="store_true", help="also write the CSV table")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="sample-set seed")

    p = sub.add_parser("validate", help="check the structural rules of a spec file")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve-params", help="solve the amplitude system and center height")
    common(p)
    p.add_argument("--sigma", type=float, help="length scale (default 1.0)")
    p.set_defaults(func=cmd_solve_params)

    p = sub.add_parser("verify", help="analytic and finite-difference residual checks")
    common(p, params=True)
    p.add_argument("--box", help="2N comma floats lo,hi per axis")
    p.add_argument("--grid", type=int, default=8, help="lattice points per axis")
    p.add_argument("--h", type=float, help="finite-difference step")
    p.add_argument("--n-random", type=int, default=1000, help="random sample count")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("moving-spheres", help="critical-radius sweep about a boundary center")
    common(p, params=True)
    p.add_argument("--x", help="boundary center, comma floats")
    p.add_argument("--lambda-lo", type=float, help="sweep start radius")
    p.add_argument("--lambda-hi", type=float, help="sweep end radius")
    p.add_argument("--n-lambda", type=int, default=33, help="radius grid size")
    p.add_argument("--grid", type=int, default=24, help="radial shells in the sample set")
    p.set_defaults(func=cmd_moving_spheres)

    p = sub.add_parser("ball", help="conformal transport checks and parameter recovery")
    common(p, params=True)
    p.add_argument("--grid", type=int, default=100, help="sqrt of sample count")
    p.add_argument("--h", type=float, help="finite-difference step")
    p.set_defaults(func=cmd_ball)

    p = sub.add_parser("radial", help="profile integration against the closed form, shooting")
    common(p, params=True)
    p.set_defaults(func=cmd_radial)

    p = sub.add_parser("halfline", help="one-dimensional positivity breakdown certificate")
    common(p)
    p.add_argument("--u0", help="initial values, comma floats (default ones)")
    p.set_defaults(func=cmd_halfline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CHECK_FAILURE_ERRORS as exc:
        reporting.write_error(exc.code, str(exc))
        return 1
    except INPUT_ERRORS as exc:
        reporting.write_error(exc.code, str(exc))
        return 2
    except HalfspaceBubblesError as exc:
        reporting.write_error(exc.code, str(exc))
        return 1
    except (ValueError, KeyError, OSError) as exc:
        reporting.write_error("input_error", str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
