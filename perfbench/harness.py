"""One measuring process of the benchmark; `run.py` starts it.

    python3 perfbench/harness.py setup   --workload W --src SRC
    python3 perfbench/harness.py measure --workload W --seed S --seconds T
                                         --trace 0|1 --src SRC --workdir DIR

`setup` times, in this fresh interpreter, the import of cdf_mise, the
building of the workload's targets and kernels and one call per route.
`measure` runs whole rounds of the workload until --seconds of program
time have passed (with --trace 1, a fixed number of rounds under the
tracer instead), checks every round's outputs, and prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))


def import_cdf_mise(src: Path):
    sys.path.insert(0, str(src))
    import cdf_mise
    if Path(cdf_mise.__file__).resolve().parent != (src / "cdf_mise").resolve():
        raise SystemExit(f"cdf_mise was imported from {cdf_mise.__file__}, not {src}")
    return cdf_mise


def cmd_setup(args) -> dict:
    t0 = time.perf_counter()
    import_cdf_mise(Path(args.src))
    t1 = time.perf_counter()
    import workloads
    wl = workloads.WORKLOADS[args.workload](workloads.Api(), 0, Path("."))
    # The first cdf call on a jdlvp target builds its CDF table.
    t2 = time.perf_counter()
    wl.api.target("jdlvp", 1.0).cdf(0.5)
    t3 = time.perf_counter()
    wl.setup_calls()
    t4 = time.perf_counter()
    return {"setup_s": t4 - t0, "import_s": t1 - t0, "tables_s": t3 - t2}


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def cmd_measure(args) -> dict:
    import_cdf_mise(Path(args.src))
    import reference
    import workloads

    problems = reference.self_check()
    tracer = None
    call = workloads.direct_call
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
        call = tracer.call
    workdir = Path(args.workdir)
    wl = workloads.WORKLOADS[args.workload](workloads.Api(), args.seed, workdir, call)
    wl.api.target("jdlvp", 1.0).cdf(0.5)
    wl.setup_calls()
    if tracer:
        tracer.reset()

    attempted = failed = 0
    program_s = cpu_s = wall_s = 0.0
    serial_s = []
    messages = []
    rounds = 0
    while (rounds < wl.traced_rounds) if tracer else (rounds == 0 or program_s < args.seconds):
        inputs = wl.prepare()
        c0, t0 = cpu_seconds(), time.perf_counter()
        outputs = wl.run_round(inputs)
        t1 = time.perf_counter()
        cpu_s += cpu_seconds() - c0
        program_s += t1 - t0
        rounds += 1
        if tracer and hasattr(wl, "serial_pass"):
            # Pool workers' spans never reach this process, so the traced
            # run replays every cell's replications here.
            reproduced, seconds = wl.serial_pass(outputs)
            serial_s.extend(seconds)
            ran, bad, found = wl.check(outputs, reproduced)
        else:
            ran, bad, found = wl.check(outputs)
        wall_s += time.perf_counter() - t0
        attempted += ran
        failed += bad
        messages.extend(found)

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        "program_s": program_s,
        "check_s": wall_s - program_s,
        "problems": problems + messages[:20],
        "ops_per_s": attempted / program_s,
        "cpu_ms_per_op": 1e3 * cpu_s / attempted,
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0,
    }
    if tracer:
        tracer.uninstall()
        # Cell wall time minus serial replication time / workers, summed.
        workers = os.cpu_count() or 1
        cells = tracer.durations.get("estimator.cell", [])
        pool_overhead_s = sum(w - s / workers for w, s in zip(cells, serial_s))
        setup = json.loads(args.setup) if args.setup else {"import_s": 0.0, "tables_s": 0.0}
        result["per_layer"] = {
            name: [value, unit] for name, (value, unit)
            in tracer.metrics(wall_s, setup, pool_overhead_s, attempted / program_s).items()}
        tracer.write(Path(args.trace_file))
    return result


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", default=".")
    parser.add_argument("--trace-file", default="trace.jsonl")
    parser.add_argument("--setup", default="", help="JSON of the setup probes' medians")
    args = parser.parse_args()
    result = cmd_setup(args) if args.mode == "setup" else cmd_measure(args)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
