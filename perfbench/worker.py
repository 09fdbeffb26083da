"""Benchmark process that imports the program: set-up probe, warm loop, traced CLI entry.

    python perfbench/worker.py setup RUNDIR
    python perfbench/worker.py run RUNDIR SECONDS TRACE RESULT
    python perfbench/worker.py cli SPANS -- ARGV...

``setup`` imports ``halfspace_bubbles.cli``, loads the workload's inputs
and prints ``ready``.  ``run`` does the same, then calls ``cli.main``
in-process over the workload's blocks and writes one record per call to
RESULT.  ``cli`` installs the tracing wrappers, runs one CLI call and
dumps its spans to SPANS; it is the traced twin of
``python -m halfspace_bubbles``.

This module imports only the standard library at load time, so the
runner can reuse its helpers without loading numpy.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

# Exit code recorded when a call raised instead of returning one.
CRASH = -1


def import_cli(root: Path):
    """Import the CLI from the checkout's ``src`` and refuse any other copy."""
    from halfspace_bubbles import cli

    src = (root / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"halfspace_bubbles imported from {cli.__file__}, not from {src}")
    return cli


def load_inputs(rundir: Path) -> dict:
    """The manifest plus every input file it names, parsed."""
    manifest = json.loads((rundir / "manifest.json").read_text(encoding="utf-8"))
    for path in sorted((rundir / "inputs").glob("*.json")):
        json.loads(path.read_text(encoding="utf-8"))
    return manifest


def out_paths(rundir: Path, case: dict) -> tuple[Path, Path]:
    """Report and CSV paths of a call (the CLI puts the CSV beside the report)."""
    report = rundir / case["argv"][case["argv"].index("--out") + 1]
    return report, report.with_suffix(".csv")


def clear_outputs(rundir: Path, case: dict) -> None:
    for path in out_paths(rundir, case):
        path.unlink(missing_ok=True)


REPORT_FIELDS = ("passed", "t_star", "lambda_numeric", "betas", "y0")


def read_outcome(rundir: Path, case: dict, code: int, stderr: str) -> dict:
    """Exit code, error code, report fields and a digest of everything the call wrote."""
    error_code = None
    lines = stderr.strip().splitlines()
    if code != 0 and lines:
        try:
            error_code = json.loads(lines[-1]).get("error_code")
        except (json.JSONDecodeError, AttributeError):
            error_code = None
    digest = hashlib.sha256(stderr.encode("utf-8"))
    fields = {}
    report_path, csv_path = out_paths(rundir, case)
    if report_path.exists():
        data = report_path.read_bytes()
        digest.update(data)
        report = json.loads(data)
        fields = {k: report[k] for k in REPORT_FIELDS if k in report}
        fields["failed_checks"] = [c["name"] for c in report.get("checks", []) if not c["passed"]]
    if csv_path.exists():
        digest.update(csv_path.read_bytes())
    return {"exit": code, "error_code": error_code, "fields": fields,
            "digest": digest.hexdigest()}


def warm_call(cli, rundir: Path, case: dict) -> dict:
    clear_outputs(rundir, case)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            code = cli.main(case["argv"])
        except Exception:
            code = CRASH
            traceback.print_exc()
        t1, c1 = time.perf_counter(), time.process_time()
    record = read_outcome(rundir, case, code, err.getvalue())
    record.update(id=case["id"], wall=t1 - t0, cpu=c1 - c0)
    return record


def run_blocks(blocks: list[list[dict]], seconds: float | None, call) -> list[dict]:
    """Run whole blocks until ``seconds`` have passed, or every block once if None."""
    records = []
    start = time.perf_counter()
    while True:
        for block in blocks:
            if seconds is not None and time.perf_counter() - start >= seconds:
                return records
            records.extend(call(case) for case in block)
        if seconds is None:
            return records


def traced_cli(root: Path, spans_path: str, argv: list[str]) -> int:
    from tracing import install

    tracer = install()
    tracer.call_id = int(Path(spans_path).stem)
    cli = import_cli(root)
    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_path)


def warm_run(root: Path, cli, rundir: Path, blocks: list, seconds: float, trace: bool) -> dict:
    os.chdir(rundir)
    # warm-up: one call per subcommand pays the once-per-process costs
    first = {case["argv"][0]: case for block in blocks for case in reversed(block)}
    for case in first.values():
        warm_call(cli, rundir, case)
    if not trace:
        return {"records": run_blocks(blocks, seconds, lambda case: warm_call(cli, rundir, case))}
    # one untraced and one traced pass over the calls of the first block
    blocks = blocks[:1]
    result = {"untraced": run_blocks(blocks, None, lambda case: warm_call(cli, rundir, case))}
    from tracing import install

    tracer = install()
    cli = import_cli(root)
    result["records"] = []
    for call_id, case in enumerate(c for block in blocks for c in block):
        tracer.call_id = call_id
        result["records"].append(warm_call(cli, rundir, case))
    tracer.dump(str(rundir / "spans.json"))
    result["span_files"] = [str(rundir / "spans.json")]
    return result


def main(argv: list[str]) -> int:
    mode = argv[0]
    root = Path(__file__).resolve().parent.parent
    if mode == "cli":
        return traced_cli(root, argv[1], argv[3:])

    rundir = Path(argv[1])
    cli = import_cli(root)
    manifest = load_inputs(rundir)
    print("ready", flush=True)
    if mode == "setup":
        return 0
    seconds, trace, result_path = float(argv[2]), argv[3] == "1", argv[4]
    result = warm_run(root, cli, rundir, manifest["blocks"], seconds, trace)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
