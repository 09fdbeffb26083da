import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir
from scipy.integrate import solve_ivp as scipy_solve_ivp

import halfspace_bubbles
from halfspace_bubbles import radial_ode
from halfspace_bubbles.bubble_family import BubbleParams, make_bubble_params
from halfspace_bubbles.exponent_system import EllipticSystemSpec

# One profile for every property test: no per-example deadline (a shot or a
# sweep can take a while), the same examples on every run, and no example
# database written to disk.
settings.register_profile("tier1", deadline=None, derandomize=True, database=None)
settings.load_profile("tier1")


def pytest_configure(config):
    # hypothesis caches the constants it reads from the sources; keep that
    # cache in pytest's cache directory rather than a .hypothesis/ of its own
    if hasattr(config, "cache"):
        set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))


@pytest.fixture(autouse=True)
def fresh_unit_runs():
    """Each test starts with no cached unit-scale run, so a wrapped solve_ivp sees its solves."""
    radial_ode.clear_unit_runs()


def spec_m1(c: float) -> EllipticSystemSpec:
    return EllipticSystemSpec(N=3, m=1, A=[[5.0]], B=[[3.0]], c=[c])


def incompatible_rows_spec() -> EllipticSystemSpec:
    """f3's interior exponents with diagonal boundary rows that demand two different profiles."""
    return EllipticSystemSpec(
        N=4, m=2, A=[[1.0, 2.0], [2.0, 1.0]], B=[[2.0, 0.0], [0.0, 2.0]], c=[-1.0, -0.5]
    )


def degenerate_spec() -> EllipticSystemSpec:
    """Rank-deficient amplitude system: one kernel direction of I - A."""
    return EllipticSystemSpec(
        N=4, m=2, A=[[2.0, 1.0], [1.0, 2.0]], B=[[1.0, 1.0], [1.0, 1.0]], c=[-1.0, -1.0]
    )


def spec_m2_symmetric() -> EllipticSystemSpec:
    return EllipticSystemSpec(
        N=4, m=2, A=[[1.0, 2.0], [2.0, 1.0]], B=[[1.0, 1.0], [1.0, 1.0]], c=[-1.0, -1.0]
    )


def spec_m2_asymmetric() -> EllipticSystemSpec:
    """Unequal row and column sums in A and B, so a transposed exponent matrix changes values."""
    return EllipticSystemSpec(
        N=4, m=2, A=[[1.0, 2.0], [0.5, 2.5]], B=[[0.5, 1.5], [1.2, 0.8]], c=[-1.0, -1.0]
    )


@pytest.fixture
def spec_f1():
    """N=3, single component, zero boundary coefficient."""
    return spec_m1(0.0)


@pytest.fixture
def spec_f2():
    """N=3, single component, c = -1 (center pushed below the boundary)."""
    return spec_m1(-1.0)


@pytest.fixture
def spec_f3():
    """N=4, two symmetric components, c = (-1, -1)."""
    return spec_m2_symmetric()


@pytest.fixture
def spec_f4():
    """N=4, two components with asymmetric exponents, c = (-1, -1)."""
    return spec_m2_asymmetric()


@pytest.fixture
def params_f1(spec_f1):
    return make_bubble_params(spec_f1, sigma=1.0)


@pytest.fixture
def params_f2(spec_f2):
    return make_bubble_params(spec_f2, sigma=1.0)


@pytest.fixture
def params_f3(spec_f3):
    return make_bubble_params(spec_f3, sigma=1.0)


FIXTURE_NAMES = ("f1", "f2", "f3")


def fixture_spec(name: str) -> EllipticSystemSpec:
    """One of the standard fixtures, or the asymmetric f4, by name."""
    return {
        "f1": spec_m1(0.0), "f2": spec_m1(-1.0), "f3": spec_m2_symmetric(),
        "f4": spec_m2_asymmetric(),
    }[name]


@pytest.fixture(params=FIXTURE_NAMES)
def fixture_pair(request):
    """(spec, params) for each of the three standard fixtures."""
    spec = fixture_spec(request.param)
    return spec, make_bubble_params(spec, sigma=1.0)


def moved_params(params: BubbleParams, s: float, t: np.ndarray) -> BubbleParams:
    """The family member y -> s^(-(N-2)/2) u(y/s - t): translated by a tangential t, scaled by s.

    Critical scaling and tangential translation map solutions to solutions;
    the bubble keeps its shape with width s sigma and center s (y0 + t).
    """
    N = params.N
    return BubbleParams(
        sigma=s * params.sigma, betas=params.betas * s ** (0.5 * (N - 2)), y0=s * (params.y0 + t)
    )


def random_halfspace_points(N: int, n: int, seed: int, lo=-10.0, hi=10.0, hi_last=10.0):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(n, N))
    pts[:, -1] = rng.uniform(0.0, hi_last, size=n)
    return pts


def random_boundary_points(N: int, n: int, seed: int, lo=-10.0, hi=10.0):
    pts = random_halfspace_points(N, n, seed, lo, hi)
    pts[:, -1] = 0.0
    return pts


def run_child(*args, timeout=None, unset=()):
    """Run ``python *args`` on the package this process imports, installed or not.

    The environment variables named in ``unset`` are removed from the child's.
    """
    src = str(Path(halfspace_bubbles.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {name: value for name, value in os.environ.items() if name not in unset}
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**env, "PYTHONPATH": path},
        timeout=timeout,
    )


def breakdown_time_radau(spec, u0) -> float:
    """t* of u_i'' = -prod_j u_j**A[i][j], u_i'(0) = c[i] prod_j u_j(0)**B[i][j], by scipy.

    The right-hand side is written here from the system, as plain loops, and
    integrated by scipy's Radau with its own crossing event: a route that
    shares no code with the package's half-line solve.
    """
    A, B, c, m = spec.A.tolist(), spec.B.tolist(), spec.c.tolist(), spec.m

    def product(E, i, u):
        out = 1.0
        for j in range(m):
            out *= max(u[j], 0.0) ** E[i][j]  # trial stages may step past the crossing
        return out

    def rhs(t, y):
        return [*y[m:], *(-product(A, i, y) for i in range(m))]

    def crossing(t, y):
        return min(y[:m])

    crossing.terminal, crossing.direction = True, -1
    y0 = [*u0, *(c[i] * product(B, i, u0) for i in range(m))]
    sol = scipy_solve_ivp(
        rhs, (0.0, 1e3), y0, method="Radau", rtol=1e-12, atol=1e-14, events=crossing
    )
    assert sol.status == 1
    return float(sol.t_events[0][0])
