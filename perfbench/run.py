"""Benchmark of the halfspace-bubbles verifier: cold CLI calls, field kernels and ODE solves.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from the
checkout's ``src/``; nothing is installed.  Inputs are generated from the
seed under ``.perfbench_runs/`` and the program receives only those files.

Workloads (one client, closed loop, one BLAS thread per process):

- ``cli_cold``: every call is a fresh ``python -m halfspace_bubbles``
  process; all seven subcommands at default flags plus malformed specs.
- ``field_checks``: one warm process calls ``cli.main`` for verify,
  moving-spheres and ball on enlarged sample sets.
- ``ode_solves``: one warm process calls ``cli.main`` for radial and
  halfline, including incompatible-rows shooting and u0 from 1e-4 to 1e8.

With ``--trace 0`` the run measures whole blocks of calls for at least
``--seconds`` and reports the end-to-end metrics.  With ``--trace 1`` it
runs every call of the first block once untraced and once with the timing
wrappers of ``tracing.py``, and reports the per-layer metrics, the import layer from
``python -X importtime`` and the tracing overhead.  Every call is checked
against its expected verdict (``check.py``); the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full record of the run, with the machine it ran on, goes
to ``.perfbench_runs/<run>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

import inputs
from check import judge
from tracing import layer_metrics
from worker import CRASH, clear_outputs, read_outcome, run_blocks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PROBES = 5
IMPORT_PROBES = 3
BLAS_THREADS = "1"
DEADLINE_S = 170.0

IMPORT_MODULES = {
    "import.numpy_s": "numpy",
    "import.scipy.sparse_s": "scipy.sparse",
    "import.scipy.integrate_s": "scipy.integrate",
    "import.scipy.optimize_s": "scipy.optimize",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def remaining(started: float) -> float:
    left = DEADLINE_S - (time.perf_counter() - started)
    if left <= 0:
        raise BenchError("out of time")
    return left


def setup_time(rundir: Path, env: dict, started: float) -> float:
    """Fresh interpreter until the CLI is imported and the inputs are loaded."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "setup", str(rundir)],
        env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    t1 = time.perf_counter()
    _, err = proc.communicate(timeout=remaining(started))
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {err.strip()[-2000:]}")
    return t1 - t0


def cold_call(rundir: Path, env: dict, case: dict, spans: Path | None = None) -> dict:
    """One CLI call in a fresh process; CPU time and peak RSS come from wait4."""
    clear_outputs(rundir, case)
    if spans is None:
        cmd = [sys.executable, "-m", "halfspace_bubbles", *case["argv"]]
    else:
        cmd = [sys.executable, str(HERE / "worker.py"), "cli", str(spans), "--", *case["argv"]]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=rundir, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    err = proc.stderr.read()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    stderr = err.decode("utf-8", "replace")
    if "Traceback (most recent call last)" in stderr:
        code = CRASH
    record = read_outcome(rundir, case, code, stderr)
    record.update(id=case["id"], wall=wall, cpu=usage.ru_utime + usage.ru_stime,
                  rss_mb=usage.ru_maxrss / 1024.0)
    return record


def run_cold(rundir: Path, env: dict, blocks: list, seconds: float, trace: bool) -> dict:
    if not trace:
        records = run_blocks(blocks, seconds, lambda case: cold_call(rundir, env, case))
        return {"records": records, "peak_rss_mb": max(r["rss_mb"] for r in records)}
    blocks = blocks[:1]  # the traced run makes the calls of the first block only
    untraced = run_blocks(blocks, None, lambda case: cold_call(rundir, env, case))
    (rundir / "spans").mkdir(exist_ok=True)
    cases = [case for block in blocks for case in block]
    span_files = [rundir / "spans" / f"{n}.json" for n in range(len(cases))]
    records = [cold_call(rundir, env, case, path) for case, path in zip(cases, span_files)]
    return {"untraced": untraced, "records": records,
            "span_files": [str(p) for p in span_files]}


def run_warm(rundir: Path, env: dict, seconds: float, trace: bool, started: float) -> dict:
    result_path = rundir / "worker_result.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "run", str(rundir), repr(seconds),
         "1" if trace else "0", str(result_path)],
        env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True,
        timeout=remaining(started),
    )
    if proc.returncode != 0:
        raise BenchError(f"worker failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def import_profile(env: dict, started: float) -> dict:
    """Import-layer metrics of one fresh interpreter, from ``-X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c",
         "import sys, halfspace_bubbles.cli; print(len(sys.modules))"],
        cwd=ROOT, env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True,
        timeout=remaining(started),
    )
    if proc.returncode != 0:
        raise BenchError(f"import profile failed: {proc.stderr.strip()[-2000:]}")
    line_re = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( +)(\S+)")
    total = package_self = 0
    cumulative = {}
    for line in proc.stderr.splitlines():
        match = line_re.match(line)
        if not match:
            continue
        self_us, cum_us, indent, name = int(match[1]), int(match[2]), len(match[3]), match[4]
        cumulative.setdefault(name, cum_us)
        if name == "halfspace_bubbles" or name.startswith("halfspace_bubbles."):
            package_self += self_us
            if indent == 1:
                total += cum_us
    out = {"import.total_s": total * 1e-6}
    out.update({metric: cumulative.get(module, 0) * 1e-6 for metric, module in IMPORT_MODULES.items()})
    out["import.halfspace_bubbles.self_s"] = package_self * 1e-6
    out["import.modules_loaded"] = int(proc.stdout.split()[-1])
    return out


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def report_digests(records: list[dict]) -> dict[str, list[str]]:
    digests: dict[str, list[str]] = {}
    for rec in records:
        seen = digests.setdefault(rec["id"], [])
        if rec["digest"] not in seen:
            seen.append(rec["digest"])
    return digests


def combined_digest(digests: dict[str, list[str]]) -> str:
    text = "".join(f"{case} {d}\n" for case in sorted(digests) for d in digests[case])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def provenance() -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "loadavg_at_start": list(os.getloadavg()),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def declared_metrics() -> dict[str, dict[str, str]]:
    """Metric name -> unit, per kind, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def end_to_end(records: list[dict], setups: list[float], peak_rss_mb: float) -> dict:
    walls = [r["wall"] for r in records]
    return {
        "setup_s": statistics.median(setups),
        "call_p50_s": percentile(walls, 0.5),
        "call_p90_s": percentile(walls, 0.9),
        "calls_per_s": len(walls) / sum(walls),
        "cpu_s_per_call": sum(r["cpu"] for r in records) / len(records),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(result: dict, profiles: list[dict]) -> dict:
    """Import layer (median over fresh interpreters), traced layers and tracing overhead."""
    metrics = {name: statistics.median(p[name] for p in profiles) for name in profiles[0]}
    dumps = [json.loads(Path(p).read_text(encoding="utf-8")) for p in result["span_files"]]
    metrics.update(layer_metrics(dumps))
    metrics["tracing.overhead_call_p50_s"] = (
        percentile([r["wall"] for r in result["records"]], 0.5)
        - percentile([r["wall"] for r in result["untraced"]], 0.5))
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    started = time.perf_counter()
    if not (ROOT / "src" / "halfspace_bubbles" / "cli.py").is_file():
        raise BenchError(f"no program source under {ROOT / 'src'}")
    declared = declared_metrics()
    meta = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "provenance": provenance()}
    rundir = ROOT / ".perfbench_runs" / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    manifest = inputs.generate(workload, rundir, seed)
    env = child_env()

    setup_time(rundir, env, started)  # fills the bytecode cache; users pay that once
    setups = [setup_time(rundir, env, started) for _ in range(SETUP_PROBES)]
    if trace:
        profiles = [import_profile(env, started) for _ in range(IMPORT_PROBES)]

    if workload == "cli_cold":
        result = run_cold(rundir, env, manifest["blocks"], seconds, trace)
    else:
        result = run_warm(rundir, env, seconds, trace, started)
    records = result["records"]
    if not records:
        raise BenchError("no call completed")

    verdicts = judge(manifest, records)
    digests = report_digests(records)
    meta.update(attempted=len(records), failed=verdicts["failed"], failures=verdicts["failures"],
                report_digest=combined_digest(digests), case_digests=digests,
                nondeterministic=sorted(c for c, d in digests.items() if len(d) > 1))
    correct = verdicts["correct"]

    lines = [f"{workload} seed={seed} trace={int(trace)}: {len(records)} calls, "
             f"{sum(r['wall'] for r in records):.1f} s timed, "
             f"report digest {meta['report_digest'][:16]}"]
    if trace:
        if report_digests(result["untraced"]) != digests:
            correct = False
            meta["trace_digest_mismatch"] = True
        metrics = per_layer(result, profiles)
        units = declared["per_layer"]
    else:
        metrics = end_to_end(records, setups, result["peak_rss_mb"])
        units = declared["end_to_end"]
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    lines += [f"  {name:48s} {metrics[name]:.6g} {unit}" for name, unit in units.items()]
    if not trace:
        # fail_ratio is 0 on a clean workload, so it is carried by "failed" / "attempted"
        lines.append(f"  {'fail_ratio':48s} {verdicts['failed'] / len(records):.6g} 1 "
                     f"({verdicts['failed']} of {len(records)} calls)")
    for case, failure in sorted(verdicts["failures"].items()):
        tag = failure["known_defect"] or "UNEXPECTED"
        lines.append(f"  failed x{failure['count']} {case} [{tag}]: {failure['reason']}")

    meta.update(correct=correct, setup_samples_s=setups, metrics=metrics)
    (rundir / "result.json").write_text(json.dumps(meta, indent=1), encoding="utf-8")
    shutil.rmtree(rundir / "out", ignore_errors=True)
    out = {
        "correct": correct,
        "attempted": len(records),
        "failed": verdicts["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return out, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out, lines = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
