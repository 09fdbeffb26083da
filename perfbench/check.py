"""Correctness gate: each call's outcome against its expected verdict and independent oracles.

A call fails when its exit code, its ``error_code`` or its report's
``passed`` flag differs from the verdict the input generator tagged it
with, or when an oracle disagrees with the reported numbers:

- half-line breakdown time t* follows the critical scaling law
  t*(s u0) = s^(-2/(N-2)) t*(u0), checked at 1e-6 against the same
  spec's u0 = 1 call;
- for m = 1, t* also matches the energy-quadrature integral;
- the moving-spheres critical radius matches sqrt(d^2 + |x - xbar|^2);
- solve-params reproduces the closed-form amplitudes and center height.
"""

from __future__ import annotations

import math

from worker import CRASH

ORACLE_RTOL = 1e-6
PARAMS_RTOL = 1e-9


def _transit_integral(k: float, x: float) -> float:
    """int_0^x ds / sqrt(1 - s^k) for 0 <= x <= 1.

    With s = 1 - v^2 the endpoint singularity at s = 1 disappears:
    the integrand becomes 2 / sqrt(g(v)), g(v) = (1 - (1 - v^2)^k) / v^2.
    """
    from scipy.integrate import quad

    def smooth(v: float) -> float:
        if v >= 1.0:
            return 2.0
        return 2.0 / math.sqrt(-math.expm1(k * math.log1p(-v * v)) / (v * v))

    value, _ = quad(smooth, math.sqrt(max(0.0, 1.0 - x)), 1.0, epsabs=0.0, epsrel=1e-13, limit=200)
    return value


def energy_breakdown_time(N: int, c: float, u0: float) -> float:
    """Breakdown time of u'' = -u^p, u'(0) = c u0^q, from the conserved energy.

    E = u'^2/2 + u^(p+1)/(p+1) fixes the peak U = ((p+1) E)^(1/(p+1)); the
    time to fall from a to 0 is T(a) = sqrt((p+1)/2) U^((1-p)/2) I(a/U).
    For c <= 0 the trajectory only falls; for c > 0 it climbs to U first.
    """
    p, q = (N + 2) / (N - 2), N / (N - 2)
    k = p + 1
    energy = 0.5 * (c * u0**q) ** 2 + u0**k / k
    peak = (k * energy) ** (1.0 / k)

    def fall(a: float) -> float:
        return math.sqrt(k / 2) * peak ** ((1 - p) / 2) * _transit_integral(k, min(1.0, a / peak))

    return fall(u0) if c <= 0 else 2 * fall(peak) - fall(u0)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


class Checker:
    """Verdicts for the records of one run, with oracle references shared across calls."""

    def __init__(self, manifest: dict):
        self.files = manifest["files"]
        self.cases = {c["id"]: c for block in manifest["blocks"] for c in block}
        self.unit_t_star: dict[str, float] = {}

    def learn(self, records: list[dict]) -> None:
        """Collect t*(u0 = 1) per spec from the run's own successful calls."""
        for rec in records:
            oracle = self.cases[rec["id"]]["oracle"].get("halfline")
            if oracle and oracle["u0"] == 1.0 and rec["exit"] == 0 and "t_star" in rec["fields"]:
                self.unit_t_star.setdefault(oracle["spec"], rec["fields"]["t_star"])

    def verdict(self, rec: dict) -> str | None:
        """None when the call met its expected verdict, else the reason it did not."""
        case = self.cases[rec["id"]]
        expect = case["expect"]
        fields = rec["fields"]
        if rec["exit"] == CRASH:
            return "crashed"
        if rec["exit"] != expect["exit"] or rec["error_code"] != expect["error_code"]:
            detail = ",".join(fields.get("failed_checks", [])) or rec["error_code"]
            return f"exit {rec['exit']} ({detail}), expected {expect['exit']} ({expect['error_code']})"
        if expect["exit"] != 0:
            return None
        if not fields:
            return "no report"
        if fields.get("passed", True) is not True:
            return "report not passed"
        oracle = case["oracle"]
        if "critical_radius" in oracle:
            if _rel(fields["lambda_numeric"], oracle["critical_radius"]) > ORACLE_RTOL:
                return f"critical radius {fields['lambda_numeric']} != {oracle['critical_radius']}"
        if "params" in oracle:
            return self._params(fields, self.files[oracle["params"] + "_params"])
        if "halfline" in oracle:
            return self._halfline(fields["t_star"], **oracle["halfline"])
        return None

    def _params(self, fields: dict, expected: dict) -> str | None:
        for got, want in zip(fields["betas"], expected["betas"]):
            if _rel(got, want) > PARAMS_RTOL:
                return f"beta {got} != {want}"
        y0N, want = fields["y0"][-1], expected["y0"][-1]
        if abs(y0N - want) > PARAMS_RTOL * (1 + abs(want)):
            return f"y0N {y0N} != {want}"
        return None

    def _halfline(self, t_star: float, spec: str, u0: float) -> str | None:
        data = self.files[spec]
        N = data["N"]
        if data["m"] == 1:
            oracle = energy_breakdown_time(N, data["c"][0], u0)
            if _rel(t_star, oracle) > ORACLE_RTOL:
                return f"t* {t_star} != energy quadrature {oracle}"
        if u0 != 1.0:
            unit = self.unit_t_star.get(spec)
            if unit is None:
                return "no u0 = 1 reference for the scaling law"
            scaled = unit * u0 ** (-2.0 / (N - 2))
            if _rel(t_star, scaled) > ORACLE_RTOL:
                return f"t* {t_star} off the scaling law {scaled}"
        return None


def judge(manifest: dict, records: list[dict]) -> dict:
    """Failed-call count, the known-defect share of it, and whether the run is correct.

    ``correct`` is false when a call crashed, or failed its verdict without
    being tagged with a known defect.  Tagged calls that fail still count
    in ``failed``.
    """
    checker = Checker(manifest)
    checker.learn(records)
    failures: dict[str, dict] = {}
    failed = 0
    correct = True
    for rec in records:
        reason = checker.verdict(rec)
        if reason is None:
            continue
        failed += 1
        defect = checker.cases[rec["id"]]["known_defect"]
        if defect is None or rec["exit"] == CRASH:
            correct = False
        failures.setdefault(rec["id"], {"reason": reason, "known_defect": defect, "count": 0})
        failures[rec["id"]]["count"] += 1
    return {"failed": failed, "correct": correct, "failures": failures}
