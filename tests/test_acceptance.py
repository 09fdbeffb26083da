"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import json
import time

import numpy as np
import pytest
from scipy.integrate import quad

from halfspace_bubbles.bubble_family import (
    bubble_field,
    boundary_residual_relative,
    interior_residual_relative,
    make_bubble_params,
    solve_betas,
)
from halfspace_bubbles.cli import main as cli_main
from halfspace_bubbles.conformal_ball import (
    recover_mu_alpha,
    transform_v,
    verify_T_properties,
)
from halfspace_bubbles.exponent_system import EllipticSystemSpec
from halfspace_bubbles.fd_verifier import convergence_order
from halfspace_bubbles.kelvin_inversion import (
    center_samples,
    critical_lambda_exact,
    difference_w,
    sweep_moving_spheres,
    verify_symmetry_identity,
)
from halfspace_bubbles.radial_ode import (
    closed_form_psi,
    halfline_breakdown,
    integrate_radial,
    shoot_robin,
)
from halfspace_bubbles.sampling import halfspace_box_points, polar_shell, unit_directions

from conftest import random_boundary_points, random_halfspace_points, spec_m1, spec_m2_symmetric

FIXTURES = {
    "m1-free": spec_m1(0.0),
    "m1-pulled": spec_m1(-1.0),
    "m2-symmetric": spec_m2_symmetric(),
}


def all_fixture_pairs():
    return [(name, spec, make_bubble_params(spec, sigma=1.0)) for name, spec in FIXTURES.items()]


def announce(k: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {k}: {label}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {k} failed: {label} {detail}"


def boundary_center(N, *tangential):
    x = np.zeros(N)
    x[: len(tangential)] = tangential
    return x


def test_criterion_1_parameter_solver():
    spec = spec_m1(0.0)
    worst_rel = 0.0
    for sigma in (0.5, 1.0, 2.0):
        beta = solve_betas(spec, sigma).betas()[0]
        expected = (sigma**2 * 3.0) ** 0.25
        worst_rel = max(worst_rel, abs(beta - expected) / expected)
    solve_betas(spec, 1.0)  # warm-up before timing
    best = min(
        (lambda t0: (solve_betas(spec, 1.0), time.perf_counter() - t0)[1])(time.perf_counter())
        for _ in range(10)
    )
    ok = worst_rel <= 1e-12 and best < 1e-3
    announce(1, "amplitude solve matches the closed form", ok,
             f"max rel {worst_rel:.2e}, best runtime {best * 1e3:.3f} ms")


def test_criterion_2_constructed_solution_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    for name, spec, params in all_fixture_pairs():
        pts = random_halfspace_points(spec.N, 1000, seed=211)
        bpts = random_boundary_points(spec.N, 1000, seed=223)
        worst = max(
            worst,
            float(interior_residual_relative(spec, params, pts).max()),
            float(boundary_residual_relative(spec, params, bpts).max()),
        )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    announce(2, "analytic residuals vanish at 1000 random points per fixture", ok,
             f"max rel {worst:.2e}, {elapsed:.2f} s")


def test_criterion_3_fd_consistency():
    t0 = time.perf_counter()
    gaps = []
    for name, spec, params in all_fixture_pairs():
        box = np.tile([-2.0, 2.0], (spec.N, 1))
        box[-1] = [0.0, 2.0]
        n = 8 if spec.N == 3 else 6
        conv = convergence_order(spec, bubble_field(params), box, 1e-3, n_per_axis=n)
        assert not conv.degenerate.any()
        gaps.extend(np.abs(conv.slope - 2.0))
    elapsed = time.perf_counter() - t0
    ok = max(gaps) <= 0.1 and elapsed < 30.0
    announce(3, "discrete residual order 2.0 +- 0.1 on each fixture", ok,
             f"max slope gap {max(gaps):.3f}, {elapsed:.1f} s")


def test_criterion_4_moving_spheres():
    worst_gap = 0.0
    sign_ok = True
    for name, spec, params in all_fixture_pairs():
        u = bubble_field(params)
        for tang in ((), (1.0,), (3.0, 4.0)):
            x = boundary_center(spec.N, *tang)
            lam = critical_lambda_exact(params, x)
            samples = polar_shell(x, 0.3 * lam * (1 + 1e-9), 50.0 * lam, 24, 32, seed=307)
            centered = center_samples(u, x, samples)
            sweep = sweep_moving_spheres(u, centered, 0.3 * lam, 3.0 * lam, n_lambda=33)
            assert sweep.lambda_critical_numeric is not None
            worst_gap = max(worst_gap, abs(sweep.lambda_critical_numeric - lam) / lam)
            for factor, want_positive in ((0.9, True), (1.1, False)):
                mask = np.linalg.norm(samples - x, axis=1) >= factor * lam
                w_min = float(
                    difference_w(u, x, factor * lam, samples[mask]).min()
                )
                sign_ok = sign_ok and ((w_min > 0.0) == want_positive)
    ok = worst_gap <= 1e-6 and sign_ok
    announce(4, "numeric critical radius matches the exact formula", ok,
             f"max rel gap {worst_gap:.2e}, sign pattern {'ok' if sign_ok else 'broken'}")


def test_criterion_5_symmetry_identity():
    worst = 0.0
    for name, spec, params in all_fixture_pairs():
        sigma = params.sigma
        for tang in ((), (1.0,), (3.0, 4.0), (-5.0,), (10.0 * sigma,)):
            x = boundary_center(spec.N, *tang)
            lam = critical_lambda_exact(params, x)
            samples = center_samples(
                bubble_field(params), x, polar_shell(x, 0.05 * lam, 50.0 * lam, 24, 32, seed=401)
            )
            worst = max(worst, float(verify_symmetry_identity(params, samples).max()))
    ok = worst <= 1e-10
    announce(5, "field equals its critical inversion at five centers per fixture", ok,
             f"sup rel {worst:.2e}")


def test_criterion_6_conformal_map():
    worst = {"involution": 0.0, "sphere": 0.0, "plane": 0.0, "mirror": 0.0,
             "alpha": 0.0, "psi": 0.0}
    contained = True
    for name, spec, params in all_fixture_pairs():
        d = params.d
        box = np.tile([-5.0 * d, 5.0 * d], (spec.N, 1))
        box[-1] = [1e-6 * d, 5.0 * d]
        samples = halfspace_box_points(box, 10_000, seed=503)
        xs = [boundary_center(spec.N), boundary_center(spec.N, 1.0),
              boundary_center(spec.N, 3.0, 4.0)]
        rep = verify_T_properties(params, xs, samples, seed=20240901)
        worst["involution"] = max(worst["involution"], rep.involution_max_rel)
        worst["sphere"] = max(worst["sphere"], rep.boundary_sphere_max_rel)
        worst["plane"] = max(worst["plane"], max(rep.plane_max_rel.values()))
        worst["mirror"] = max(worst["mirror"], max(rep.mirror_max_rel.values()))
        contained = contained and rep.containment_strict

        mu, alphas = recover_mu_alpha(params)
        condition = np.log(alphas) - spec.A @ np.log(alphas) + np.log(
            mu**2 * spec.N * (spec.N - 2)
        )
        worst["alpha"] = max(worst["alpha"], float(np.max(np.abs(condition))))
        r = np.linspace(0.0, 2 * d * (1 - 1e-9), 100)
        dirs = unit_directions(spec.N, 100, seed=509)
        v = transform_v(params, bubble_field(params), params.Q + r[:, None] * dirs)
        psi = closed_form_psi(spec.N, alphas, mu, r)
        worst["psi"] = max(worst["psi"], float(np.max(np.abs(v - psi) / psi)))
    ok = (
        worst["involution"] <= 1e-13
        and contained
        and worst["sphere"] <= 1e-12
        and worst["plane"] <= 1e-12
        and worst["mirror"] <= 1e-12
        and worst["alpha"] <= 1e-10
        and worst["psi"] <= 1e-10
    )
    announce(6, "inversion properties and scale recovery on 10^4 samples", ok,
             ", ".join(f"{k} {v:.1e}" for k, v in worst.items()))


def test_criterion_7_radial_profile():
    worst_match = 0.0
    worst_shoot = 0.0
    for name, spec, params in all_fixture_pairs():
        d = params.d
        mu, alphas = recover_mu_alpha(params)
        psi0 = alphas * mu ** (2 - spec.N)
        r = np.linspace(0.0, 2 * d, 200)
        traj = integrate_radial(spec, psi0, 2 * d, tol=1e-10).at(r)
        exact = closed_form_psi(spec.N, alphas, mu, r)
        worst_match = max(worst_match, float(np.max(np.abs(traj.psi - exact) / exact)))
        alphas_shot, mu_shot, *_ = shoot_robin(spec, d, tol=1e-10)
        worst_shoot = max(
            worst_shoot,
            abs(mu_shot - mu) / mu,
            float(np.max(np.abs(alphas_shot - alphas) / alphas)),
        )
    ok = worst_match <= 1e-8 and worst_shoot <= 1e-8
    announce(7, "radial integration and shooting agree with the closed form", ok,
             f"match {worst_match:.2e}, shooting gap {worst_shoot:.2e}")


def test_criterion_8_halfline_nonexistence():
    def smooth(v):
        s = 1.0 - v * v
        return 2.0 / np.sqrt(sum(s**k for k in range(6)))

    oracle_value, err = quad(smooth, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13)
    oracle = float(np.sqrt(3.0) * oracle_value)
    assert err < 1e-12

    cert = halfline_breakdown(spec_m1(0.0), [1.0])
    gap = abs(cert.t_star - oracle) / oracle

    all_finite = True
    for c in (-1.0, 0.0, 1.0):
        spec = spec_m1(c)
        for u0 in (0.5, 1.0, 2.0):
            crossing = halfline_breakdown(spec, [u0])
            all_finite = all_finite and np.isfinite(crossing.t_star) and crossing.t_star > 0
    ok = gap <= 1e-6 and all_finite
    announce(8, "breakdown time matches the energy quadrature oracle", ok,
             f"oracle {oracle:.10f}, rel gap {gap:.2e}, all certificates finite")


def test_criterion_9_degenerate_rank():
    spec = EllipticSystemSpec(
        N=4, m=2, A=[[2.0, 1.0], [1.0, 2.0]], B=[[1.0, 1.0], [1.0, 1.0]], c=[-1.0, -1.0]
    )
    worst = 0.0
    for sigma in (1.0, 2.0):
        result = solve_betas(spec, sigma)
        assert result.nullity == 1
        target = np.log(8.0 * sigma**2)
        for t in np.linspace(-1.0, 1.0, 21):
            worst = max(worst, abs(float(np.log(result.betas([t])).sum()) - target))
    ok = worst <= 1e-10
    announce(9, "rank-deficient family keeps the amplitude constraint", ok,
             f"max constraint gap {worst:.2e}")


def test_criterion_10_cli_determinism(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"N": 3, "m": 1, "A": [[5.0]], "B": [[3.0]], "c": [-1.0]}))
    params_path = tmp_path / "params.json"
    assert cli_main(["solve-params", "--spec", str(spec_path), "--sigma", "1.0",
                     "--out", str(params_path)]) == 0

    commands = {
        "validate": ["validate", "--spec", str(spec_path)],
        "solve-params": ["solve-params", "--spec", str(spec_path), "--sigma", "1.0"],
        "verify": ["verify", "--spec", str(spec_path), "--params", str(params_path)],
        "moving-spheres": ["moving-spheres", "--spec", str(spec_path), "--params",
                           str(params_path), "--x", "1,0"],
        "ball": ["ball", "--spec", str(spec_path), "--params", str(params_path)],
        "radial": ["radial", "--spec", str(spec_path), "--params", str(params_path)],
        "halfline": ["halfline", "--spec", str(spec_path), "--u0", "1.0"],
    }
    identical = True
    for name, args in commands.items():
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}-{tag}.json"
            code = cli_main(args + ["--out", str(out)])
            assert code == 0, f"{name} exited {code}"
            blobs.append(out.read_bytes())
        identical = identical and blobs[0] == blobs[1]
    announce(10, "every subcommand reproduces byte-identical reports", identical)
