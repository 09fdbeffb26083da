"""Seeded inputs for the benchmark workloads, each call tagged with its expected verdict.

Pure standard library, so that generating inputs loads nothing the
program under test loads.  The same seed always gives the same files and
the same call schedule.

Spec construction follows the structural rules of the system:

    A >= 0, rows summing to p = (N+2)/(N-2), irreducible;
    B >= 0, rows summing to q = N/(N-2), diagonal wherever c[i] >= 0.

For these matrices the constant vector solves the amplitude system, so
the bubble parameters have a closed form the benchmark writes itself:

    betas[i] = (sigma^2 N (N-2))^((N-2)/4),   y0N = sigma c sqrt(N/(N-2)),

valid when all rows share one c.  Distinct c across rows with nullity 0
admit no common center ("incompatible rows"); shooting must fail there.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

# Calls may carry a known-defect tag; a tagged call still counts in
# ``failed`` when its verdict is wrong, but does not make the run
# ``correct: false``.  Tags:
#   halfline_scale  half-line breakdown uses absolute tolerances and horizon
#   noninteger_N    a non-integer N is truncated by int() and accepted
#   ball_order_gap  ball demands boundary order 2 and fails on the order-3
#                   convergence of N = 4 specs with c = 0

OK = {"exit": 0, "error_code": None}
SHOOT_FAILED = {"exit": 1, "error_code": "shoot_failed"}
MALFORMED = {"exit": 2, "error_code": "malformed_spec"}


# Signs of the common c of seeded specs.  The sign is fixed by the size
# (see seeded_specs), so a run's share of each sign, and of the known
# defects that hang on it, never depends on the seed.
C_SIGNS = (-1.0, 0.0, 1.0)


def _targets(N: int) -> tuple[float, float]:
    return (N + 2) / (N - 2), N / (N - 2)


def _row(rng: random.Random, m: int, total: float, zero: int | None = None) -> list[float]:
    weights = [rng.uniform(0.2, 1.0) for _ in range(m)]
    if zero is not None:
        weights[zero] = 0.0
    s = sum(weights)
    return [total * w / s for w in weights]


def _det(M: list[list[float]]) -> float:
    if len(M) == 1:
        return M[0][0]
    if len(M) == 2:
        return M[0][0] * M[1][1] - M[0][1] * M[1][0]
    return sum(
        (-1) ** j * M[0][j] * _det([row[:j] + row[j + 1 :] for row in M[1:]])
        for j in range(len(M))
    )


def _strongly_connected(A: list[list[float]]) -> bool:
    m = len(A)
    for start in range(m):
        seen, stack = {start}, [start]
        while stack:
            i = stack.pop()
            for j in range(m):
                if A[i][j] > 0 and j not in seen:
                    seen.add(j)
                    stack.append(j)
        if len(seen) != m:
            return False
    return True


def random_interior_matrix(rng: random.Random, N: int, m: int) -> list[list[float]]:
    """Irreducible A with critical row sums and I - A nonsingular (nullity 0)."""
    p, _ = _targets(N)
    while True:
        zero_at = None
        if m == 3 and rng.random() < 0.5:
            # drop one edge that is not on the cycle 0 -> 1 -> 2 -> 0
            zero_at = rng.choice([(0, 2), (1, 0), (2, 1)])
        A = [
            _row(rng, m, p, zero_at[1] if zero_at and zero_at[0] == i else None)
            for i in range(m)
        ]
        I_minus_A = [[(1.0 if i == j else 0.0) - A[i][j] for j in range(m)] for i in range(m)]
        if _strongly_connected(A) and abs(_det(I_minus_A)) > 1e-2:
            return A


def boundary_matrix(rng: random.Random, N: int, c: list[float]) -> list[list[float]]:
    """B with critical row sums; rows with c[i] >= 0 are diagonal."""
    _, q = _targets(N)
    m = len(c)
    return [
        [q if i == j else 0.0 for j in range(m)] if c[i] >= 0 else _row(rng, m, q)
        for i in range(m)
    ]


def closed_form_params(N: int, m: int, c: float, sigma: float, y0_tangential: list[float]) -> dict:
    """Bubble parameters of a compatible spec whose amplitude solution is constant."""
    beta = (sigma**2 * N * (N - 2)) ** ((N - 2) / 4)
    return {
        "sigma": sigma,
        "betas": [beta] * m,
        "y0": list(y0_tangential) + [sigma * c * math.sqrt(N / (N - 2))],
    }


def critical_radius(params: dict, x: list[float]) -> float:
    """sqrt(d^2 + |x - xbar|^2) with d^2 = sigma^2 + y0N^2 and xbar = (y0', 0)."""
    y0 = params["y0"]
    d2 = params["sigma"] ** 2 + y0[-1] ** 2
    return math.sqrt(d2 + sum((a - b) ** 2 for a, b in zip(x, y0[:-1])))


class InputSet:
    """Specs, params and argument lists written under one directory."""

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.rng = random.Random(seed)
        (root / "inputs").mkdir(parents=True, exist_ok=True)
        (root / "out").mkdir(exist_ok=True)
        self.specs: dict[str, dict] = {}
        self.params: dict[str, dict] = {}

    def _write(self, name: str, data: dict) -> str:
        rel = f"inputs/{name}.json"
        (self.root / rel).write_text(json.dumps(data) + "\n", encoding="utf-8")
        return rel

    def add_spec(self, name: str, spec: dict, params: dict | None) -> None:
        spec = dict(spec, path=self._write(name, {k: spec[k] for k in "NmABc"}))
        self.specs[name] = spec
        if params is not None:
            self.params[name] = dict(params, path=self._write(name + "_params", params))

    def fixtures(self) -> list[str]:
        """The three fixture systems of the test suite, at sigma = 1 and y0' = 0."""
        for name, N, m, A, B, c in (
            ("f1", 3, 1, [[5.0]], [[3.0]], [0.0]),
            ("f2", 3, 1, [[5.0]], [[3.0]], [-1.0]),
            ("f3", 4, 2, [[1.0, 2.0], [2.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]], [-1.0, -1.0]),
        ):
            params = closed_form_params(N, m, c[0], 1.0, [0.0] * (N - 1))
            self.add_spec(name, {"N": N, "m": m, "A": A, "B": B, "c": c}, params)
        return ["f1", "f2", "f3"]

    def _params_for(self, N: int, m: int, c: float) -> dict:
        sigma = math.exp(self.rng.uniform(math.log(0.5), math.log(2.0)))
        tangential = [self.rng.uniform(-1.0, 1.0) for _ in range(N - 1)]
        return closed_form_params(N, m, c, sigma, tangential)

    def compatible(self, name: str, N: int, m: int, sign: float) -> str:
        """Seeded valid spec with one c of the given sign shared by all rows."""
        c = sign * self.rng.uniform(0.2, 1.5)
        spec = {
            "N": N,
            "m": m,
            "A": random_interior_matrix(self.rng, N, m),
            "B": boundary_matrix(self.rng, N, [c] * m),
            "c": [c] * m,
        }
        self.add_spec(name, spec, self._params_for(N, m, c))
        return name

    def incompatible(self, name: str, sibling: str) -> str:
        """The sibling's A with diagonal B and c = c0 (1, 1/2, ...): nullity 0, no common center.

        Built from a fixture, not from seeded values: the cost of the
        multistart failure path varies by a factor of two to three with the
        spec values, which would make the workload's throughput depend on
        the seed, not on the code.
        """
        base = self.specs[sibling]
        N, m = base["N"], base["m"]
        _, q = _targets(N)
        B = [[q if i == j else 0.0 for j in range(m)] for i in range(m)]
        c = [base["c"][0] / (1 + i) for i in range(m)]
        self.add_spec(name, dict(base, B=B, c=c), None)
        self.params[name] = self.params[sibling]
        return name

    def rank_deficient(self, name: str) -> str:
        """N = 4, m = 2 with I - A singular: A = [[a, p-a], [p-a, a]], a = (p+1)/2."""
        N = 4
        p, _ = _targets(N)
        a = (p + 1) / 2
        c = -self.rng.uniform(0.2, 1.5)
        spec = {
            "N": N,
            "m": 2,
            "A": [[a, p - a], [p - a, a]],
            "B": boundary_matrix(self.rng, N, [c, c]),
            "c": [c, c],
        }
        self.add_spec(name, spec, self._params_for(N, 2, c))
        return name

    def malformed(self) -> list[str]:
        """Specs that validate must reject with exit 2."""
        base = {"N": 3, "m": 1, "A": [[5.0]], "B": [[3.0]], "c": [-1.0]}
        self.specs["bad_N"] = dict(base, N=3.7, path=self._write("bad_N", dict(base, N=3.7)))
        bad_c = dict(base, c=[-1.0, -1.0])
        self.specs["bad_c"] = dict(bad_c, path=self._write("bad_c", bad_c))
        return ["bad_N", "bad_c"]

    def boundary_point(self, N: int) -> list[float]:
        return [self.rng.uniform(-2.0, 2.0) for _ in range(N - 1)]


def call(case_id: str, argv: list[str], expect: dict, oracle: dict | None = None,
         known_defect: str | None = None) -> dict:
    return {"id": case_id, "argv": argv, "expect": expect, "oracle": oracle or {},
            "known_defect": known_defect}


def _out(case_id: str) -> list[str]:
    return ["--out", f"out/{case_id}.json"]


def _spec_args(inputs: InputSet, name: str, params: bool) -> list[str]:
    argv = ["--spec", inputs.specs[name]["path"]]
    if params:
        argv += ["--params", inputs.params[name]["path"]]
    return argv


def _ball_defect(spec: dict) -> str | None:
    return "ball_order_gap" if spec["N"] == 4 and all(c == 0 for c in spec["c"]) else None


def default_calls(inputs: InputSet, name: str) -> list[dict]:
    """All seven subcommands at default flags on one compatible spec."""
    spec, params = inputs.specs[name], inputs.params[name]
    origin = [0.0] * (spec["N"] - 1)

    def sub(command: str, with_params: bool, extra=(), oracle=None, defect=None) -> dict:
        case_id = f"{name}.{command}"
        argv = [command] + _spec_args(inputs, name, with_params) + list(extra) + _out(case_id)
        return call(case_id, argv, OK, oracle, defect)

    return [
        sub("validate", False),
        sub("solve-params", False, ["--sigma", repr(params["sigma"])], {"params": name}),
        sub("verify", True),
        sub("moving-spheres", True, (), {"critical_radius": critical_radius(params, origin)}),
        sub("ball", True, defect=_ball_defect(spec)),
        sub("radial", True),
        sub("halfline", False, (), {"halfline": {"spec": name, "u0": 1.0}}),
    ]


def cli_cold(root: Path, seed: int) -> list[list[dict]]:
    """Fresh-process calls in four blocks over f1, f2, f3 and one seeded spec.

    Block k runs subcommand j on spec (k + j) mod 4, plus validate on both
    malformed specs, so every block holds every subcommand, a mix of specs
    and the same known-defect calls: a run cut at any block boundary keeps
    the same mix and the same share of failing calls.  The seeded spec has
    the largest size, N = 5 and m = 3, so the peak memory of a run does not
    depend on the seed.
    """
    inputs = InputSet(root, seed)
    names = inputs.fixtures() + [inputs.compatible("s1", 5, 3, C_SIGNS[(5 + 3) % 3])]
    per_spec = [default_calls(inputs, name) for name in names]
    bad_calls = [
        call(f"{bad_name}.validate",
             ["validate", "--spec", inputs.specs[bad_name]["path"]] + _out(f"{bad_name}.validate"),
             MALFORMED, known_defect="noninteger_N" if bad_name == "bad_N" else None)
        for bad_name in inputs.malformed()
    ]
    return [[per_spec[(k + j) % len(names)][j] for j in range(len(per_spec[0]))] + bad_calls
            for k in range(len(names))]


# Lattice points per axis for verify, per N: 32^3, 16^4 and 9^5 points.
VERIFY_GRID = {3: 32, 4: 16, 5: 9}

# Every (N, m) pair, in a fixed order: the seed picks the values of each
# spec, never how many specs of each size or sign a run holds.
SIZES = [(N, m) for N in (3, 4, 5) for m in (1, 2, 3)]


def seeded_specs(inputs: InputSet, copies: int = 1, start: int = 1) -> list[str]:
    """``copies`` specs of every size, named from s<start>; copy r of size (N, m)
    has sign C_SIGNS[(N + m + r) % 3].

    One copy gives every N and every m each sign once; three copies give
    every size each sign once.
    """
    names = []
    for r in range(copies):
        for N, m in SIZES:
            name = f"s{start + len(names)}"
            names.append(inputs.compatible(name, N, m, C_SIGNS[(N + m + r) % 3]))
    return names


# Distinct sets of seeded specs per run, one per block.  A run measures
# blocks until its time is up, so it sees each set at most once and its
# quantiles rest on every spec it ran, not on one draw of them repeated.
FIELD_SETS = 8
ODE_SETS = 4


def field_checks(root: Path, seed: int) -> list[list[dict]]:
    """Warm verify / moving-spheres / ball calls on enlarged sample sets, a third with --csv.

    Every block holds the fixtures, with the same arguments in every
    block, and its own seeded spec of every size.
    """
    inputs = InputSet(root, seed)

    def calls(i: int, name: str) -> list[dict]:
        spec, params = inputs.specs[name], inputs.params[name]
        x = inputs.boundary_point(spec["N"])
        sample_seed = inputs.rng.randrange(1, 2**31)
        # ball writes no CSV, so --csv alternates between verify and moving-spheres
        csv_command = "verify" if i % 2 == 0 else "moving-spheres"
        out = []
        for command, extra, oracle, defect in (
            ("verify", ["--n-random", "20000", "--grid", str(VERIFY_GRID[spec["N"]])], {}, None),
            ("moving-spheres", ["--grid", "48", "--x=" + ",".join(repr(v) for v in x)],
             {"critical_radius": critical_radius(params, x)}, None),
            ("ball", ["--grid", "200"], {}, _ball_defect(spec)),
        ):
            case_id = f"{name}.{command}"
            csv = ["--csv"] if command == csv_command else []
            argv = ([command] + _spec_args(inputs, name, True) + extra
                    + ["--seed", str(sample_seed)] + csv + _out(case_id))
            out.append(call(case_id, argv, OK, oracle, defect))
        return out

    fixtures = inputs.fixtures()
    fixed = [c for i, name in enumerate(fixtures) for c in calls(i, name)]
    blocks = []
    for b in range(FIELD_SETS):
        names = seeded_specs(inputs, start=len(SIZES) * b + 1)
        blocks.append(fixed + [c for i, name in enumerate(names, start=len(fixtures))
                               for c in calls(i, name)])
    return blocks


# Half-line initial scales, every half decade from 1e-4 to 1e8.
U0_SWEEP = [10.0 ** (k / 2) for k in range(-8, 17)]

# Extra radial calls on f3 per block.  f3's radial call costs about the
# median of the seeded radial calls, and with the half-line sweep above the
# 90th percentile falls among those calls: repeating f3 there makes that
# quantile a cost the seed does not pick.
F3_REPEATS = 5


def ode_solves(root: Path, seed: int) -> list[list[dict]]:
    """Warm radial and halfline calls.

    Radial on every spec: expected to converge, or to exit 1 with
    shoot_failed on the incompatible-rows spec, which borrows f3's params.
    The half-line u0 sweep runs on the specs whose values the seed
    does not pick (the fixtures and the incompatible-rows spec); the
    seeded specs get the u0 = 1 half-line call.  Where the half-line scale
    defect strikes depends on the spec values, so sweeping seeded specs
    would make the share of failing calls depend on the seed.

    Every block holds the calls on the fixed specs and its own two seeded
    specs of every size and rank-deficient spec.
    """
    inputs = InputSet(root, seed)
    fixtures = inputs.fixtures()
    swept = fixtures + [inputs.incompatible("x3", "f3")]

    def calls(name: str) -> list[dict]:
        expect = SHOOT_FAILED if name.startswith("x") else OK
        radial = ["radial"] + _spec_args(inputs, name, True)
        out = [call(f"{name}.radial", radial + _out(f"{name}.radial"), expect)]
        if name in fixtures:
            # a second fixture call writes the trajectory CSV
            out.append(call(f"{name}.radial-csv", radial + ["--csv"]
                            + _out(f"{name}.radial-csv"), expect))
        if name == "f3":
            out += [out[0]] * F3_REPEATS
        for u0 in U0_SWEEP if name in swept else [1.0]:
            case_id = f"{name}.halfline.{u0:g}"
            out.append(call(
                case_id,
                ["halfline"] + _spec_args(inputs, name, False) + ["--u0", repr(u0)] + _out(case_id),
                OK,
                {"halfline": {"spec": name, "u0": u0}},
                known_defect=None if u0 == 1.0 else "halfline_scale",
            ))
        return out

    fixed = [c for name in swept for c in calls(name)]
    blocks = []
    for b in range(ODE_SETS):
        names = seeded_specs(inputs, copies=2, start=2 * len(SIZES) * b + 1)
        names.append(inputs.rank_deficient(f"k{b + 1}"))
        blocks.append(fixed + [c for name in names for c in calls(name)])
    return blocks


WORKLOADS = {"cli_cold": cli_cold, "field_checks": field_checks, "ode_solves": ode_solves}


def generate(workload: str, root: Path, seed: int) -> dict:
    """Write the workload's input files under ``root``; return and save its manifest."""
    blocks = WORKLOADS[workload](root, seed)
    files = {path.stem: json.loads(path.read_text(encoding="utf-8"))
             for path in sorted((root / "inputs").glob("*.json"))}
    manifest = {"workload": workload, "seed": seed, "blocks": blocks, "files": files}
    (root / "manifest.json").write_text(json.dumps(manifest) + "\n", encoding="utf-8")
    return manifest
