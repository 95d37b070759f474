"""cdf-mise benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload sweeps|mise-points|monte-carlo
                             --seed N --seconds T --trace 0|1

Run it from the root of a checkout; it measures the cdf_mise package in
./src as it stands, with no install step.  It starts five fresh
interpreters that each time the set-up (import, targets and kernels, one
call per route) and reports their median as setup_s, then one measuring
interpreter (perfbench/harness.py) that runs whole rounds of the
workload and checks every output.  The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Everything it writes goes under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("sweeps", "mise-points", "monte-carlo")
SETUP_PROBES = 5
DEADLINE_S = 170.0


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def run_child(argv, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time before " + " ".join(argv[2:4]))
    try:
        proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(argv))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{' '.join(argv[:3])} exited {proc.returncode}")
    return json.loads(lines[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2 ** 40:
        fail("--seed must be in [0, 2^40)")

    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    here = Path(__file__).resolve().parent
    src = root / "src"
    if not (src / "cdf_mise" / "__init__.py").is_file():
        fail(f"no cdf_mise package under {src}; run from the root of a checkout")
    out = here / "out"
    workdir = out / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    harness = str(here / "harness.py")
    try:
        probes = [run_child([harness, "setup", "--workload", args.workload, "--src", str(src)],
                            deadline) for _ in range(SETUP_PROBES)]
        setup = {key: statistics.median(p[key] for p in probes)
                 for key in ("setup_s", "import_s", "tables_s")}
        result = run_child([harness, "measure", "--workload", args.workload,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace), "--src", str(src),
                            "--workdir", str(workdir), "--setup", json.dumps(setup),
                            "--trace-file", str(out / f"trace-{args.workload}.jsonl")],
                           deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in result["problems"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["per_layer"].items()}
    else:
        metrics = {
            "setup_s": {"value": setup["setup_s"], "unit": "s"},
            "ops_per_s": {"value": result["ops_per_s"], "unit": "1/s"},
            "cpu_ms_per_op": {"value": result["cpu_ms_per_op"], "unit": "ms"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    print(f"perfbench: {args.workload} seed {args.seed}: {result['rounds']} rounds, "
          f"{result['attempted']} operations, {result['failed']} failed; "
          f"{result['program_s']:.1f} s timed, {result['check_s']:.1f} s checking",
          file=sys.stderr)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
