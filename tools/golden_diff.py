"""Golden diff: run the CLI and the demos from two checkouts, compare bytes.

    python tools/golden_diff.py BASE_CHECKOUT [NEW_CHECKOUT]

NEW_CHECKOUT defaults to the checkout holding this script.  Every case
runs once per checkout, in a fresh working directory with
PYTHONPATH=<checkout>/src; its exit code, stdout, stderr and every file
it writes must be byte-identical.  Two cases first write a ``--config``
file into that directory.  One case prints the sha256 of
``mise_profile``'s output bytes on every catalog pair's search grid, on
a random grid, on zoom-shaped grids and on a grid that spans many of the
rule's runs, so the profile's bits are compared as well; one prints
the sha256 of the Fourier ISE's values on groups of replications; one
the sha256 of every sample ``monte_carlo_mise`` draws; another
prints the repr of the ``psi_k`` and ``psi_f_fourier`` cross-checks.
Prints one line per case with both
wall times, and under a case whose CSV files differ, the largest
relative change in each numeric column of each such file; bandwidth
columns (h_opt*, bracket_*), whose tolerance is a multiple of the
target's scale, also get the largest absolute change.  Exits 1 if any case differs.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

_CLI = "import sys; from cdf_mise.cli import console_main; console_main()"
# The CLI with its first argument, a JSON object, written to run.json in
# the working directory and passed as --config after the other arguments.
_CONFIG_CLI = """
import sys
from pathlib import Path
from cdf_mise.cli import main
Path("run.json").write_text(sys.argv[1], encoding="utf-8")
raise SystemExit(main([*sys.argv[2:], "--config", "run.json"]))
"""
# The sha256 of mise_profile's (A, B, err) bytes per catalog pair, on the
# pair's search grid, on one random grid, on the zoom levels of 15 and of
# one sample size (9 points across brackets 1e-6 to 1e-2 wide) and on a
# 3000-cell grid, which spans many of the rule's runs of 32-cell blocks.
# So the profile's bits are compared directly, and not only through the
# CLI's 17 digits, also where a run or a block ends.
_PROFILE_BYTES = """
import hashlib
import numpy as np
from cdf_mise.bandwidth import _search_grid, default_search
from cdf_mise.distributions import make_jdlvp, make_normal
from cdf_mise.kernels import KERNEL_NAMES, kernel_by_name
from cdf_mise.mise import mise_profile
rng = np.random.default_rng(2024)
random_grid = rng.uniform(1e-5, 50.0, 200)
lows, widths = rng.uniform(0.05, 3.0, 15), 10.0 ** rng.uniform(-6.0, -2.0, 15)
zoom_15 = np.concatenate([l + np.linspace(0.0, w, 9) for l, w in zip(lows, widths)])
zoom_1 = zoom_15[:9]
many_runs = np.exp(rng.uniform(np.log(1e-4), np.log(100.0), 3000))
for dist in (make_jdlvp(), make_jdlvp(0.5), make_jdlvp(0.3), make_normal(1.0), make_normal(2.0)):
    for name in KERNEL_NAMES:
        for grid, hs in (("search", _search_grid(default_search(dist).h_max)),
                         ("random", random_grid), ("zoom of 15 n", dist.scale * zoom_15),
                         ("zoom of one n", dist.scale * zoom_1),
                         ("3000 cells", dist.scale * many_runs)):
            a, b, err = mise_profile(dist, kernel_by_name(name), hs)
            digest = hashlib.sha256(a.tobytes() + b.tobytes() + err.tobytes()).hexdigest()
            print(f"{dist.name} + {name} {grid}: {digest}")
"""
# The sha256 of the ISE values per Fourier pair and sample size, on groups
# of replications drawn and routed as monte_carlo_mise does (32768 //
# (14 n) samples a group), at h = 0.5 and at h = 0.02, where rows take
# several 64-panel blocks of a span.  So each replication's ISE bits are
# compared, where the mc-validate CSVs hold only their means.
_ISE_BYTES = """
import hashlib
import numpy as np
from cdf_mise.distributions import make_jdlvp, make_normal, sample
from cdf_mise.estimator import _ise_route
from cdf_mise.kernels import kernel_by_name
for dist, name in ((make_jdlvp(), "normal"), (make_jdlvp(), "trapezoidal"),
                   (make_jdlvp(), "sinc"), (make_normal(1.0), "trapezoidal"),
                   (make_normal(1.0), "sinc")):
    for h in (0.5, 0.02):
        for n in (1, 50, 200, 1000):
            xs = np.sort([sample(dist, n, (11, r)) for r in range(max(1, 32768 // (14 * n)))],
                         axis=1)
            values = _ise_route(kernel_by_name(name), h, dist)(xs)
            print(f"{dist.name} + {name} h={h} n={n}: "
                  f"{hashlib.sha256(values.tobytes()).hexdigest()}")
"""
# The sha256 of every sorted sample monte_carlo_mise hands its ISE route,
# in replication order, per target and sample size at h = 0, seed 11.
# The group size does not enter the hash, and 6,640 replications at
# n = 200 reach r = 6637, whose jdlvp stream accepts too few in its
# first rejection round and takes a second alone.
_DRAW_BYTES = """
import hashlib
from cdf_mise import estimator
from cdf_mise.distributions import make_jdlvp, make_normal
from cdf_mise.kernels import kernel_by_name
route = estimator._ise_route
digest = None

def spy(*args):
    rows = route(*args)

    def hashed(xs):
        for x in xs:
            digest.update(x.tobytes())
        return rows(xs)
    return hashed

estimator._ise_route = spy
for dist in (make_jdlvp(), make_jdlvp(0.5), make_normal(2.0)):
    for n, reps in ((1, 3000), (50, 1000), (200, 6640)):
        digest = hashlib.sha256()
        estimator.monte_carlo_mise(dist, kernel_by_name("normal"), 0.0, n, reps, 11)
        print(f"{dist.name} n={n} reps={reps}: {digest.hexdigest()}")
"""
# The repr of the quadrature cross-checks psi_k and psi_f_fourier, which
# constants prints to 12 digits and demo 01 to 10 decimals, so their
# last bits are compared too.
_PSI_REPRS = """
from cdf_mise.distributions import make_jdlvp, make_normal, psi_f_fourier
from cdf_mise.kernels import KERNEL_NAMES, kernel_by_name, psi_k
for name in KERNEL_NAMES:
    print(f"psi_k({name}) = {psi_k(kernel_by_name(name))!r}")
for dist in (make_jdlvp(), make_jdlvp(0.5), make_jdlvp(0.3),
             make_normal(1.0), make_normal(2.0), make_normal(0.3)):
    print(f"psi_f_fourier({dist.name}) = {psi_f_fourier(dist)!r}")
"""
# Columns whose largest absolute change is printed too.
_ABSOLUTE_PREFIXES = ("h_opt", "bracket_")

CASES: list[tuple[str, list[str]]] = [
    (command, ["-c", _CLI, command]) for command in ("figure2", "figure3")
] + [
    (f"{command} {fmt}", ["-c", _CLI, command, "--format", fmt])
    for command in ("mise-curve", "optimal-bandwidth", "efficiency-curve")
    for fmt in ("csv", "csv+svg")
] + [
    (f"optimal-bandwidth {dist}+{kernel}",
     ["-c", _CLI, "optimal-bandwidth", "--dist", dist, "--kernel", kernel,
      "--n", "10,1000,100000"])
    for dist, kernel in (("jdlvp", "sinc"), ("jdlvp", "normal"),
                         ("normal:sigma=1", "trapezoidal"))
] + [
    # a scale that is not a power of two, so multiplying by it rounds
    ("optimal-bandwidth normal:sigma=0.3+normal",
     ["-c", _CLI, "optimal-bandwidth", "--dist", "normal:sigma=0.3", "--kernel", "normal",
      "--n", "10,1000"]),
    # a scale far below 1, where the zoom's stop and the bound test are
    # 1e-6 and h_max - 1e-6 times the scale
    ("optimal-bandwidth jdlvp:scale=1e-7+trapezoidal",
     ["-c", _CLI, "optimal-bandwidth", "--dist", "jdlvp:scale=1e-7", "--kernel", "trapezoidal",
      "--n", "10,1000,100000"]),
] + [
    (f"mise-curve {dist}+{kernel}",
     ["-c", _CLI, "mise-curve", "--dist", dist, "--kernel", kernel])
    for dist, kernel in (("normal:sigma=1", "normal"), ("normal:sigma=1", "sinc"),
                         ("jdlvp", "sinc"))
] + [
    # a grid point past the bandwidth range: exit 1 with the range message
    ("mise-curve --h-grid 0:1e76:2", ["-c", _CLI, "mise-curve", "--h-grid", "0:1e76:2"]),
] + [
    ("constants", ["-c", _CLI, "constants"]),
] + [
    ("efficiency-curve jdlvp:scale=0.5+sinc",
     ["-c", _CLI, "efficiency-curve", "--dist", "jdlvp:scale=0.5", "--kernel", "sinc"]),
    ("efficiency-curve jdlvp:scale=10+sinc",
     ["-c", _CLI, "efficiency-curve", "--dist", "jdlvp:scale=10", "--kernel", "sinc"]),
] + [
    ("mc-validate --reps 200 --seed 7",
     ["-c", _CLI, "mc-validate", "--reps", "200", "--seed", "7"]),
    # a scaled target at h = 0, and h = 1 and 2, where the ISE's Fourier
    # cutoff 2/h falls below d_f = 4 and leaves a sample-free tail
    ("mc-validate jdlvp:scale=0.5+trapezoidal",
     ["-c", _CLI, "mc-validate", "--reps", "100", "--seed", "7", "--dist", "jdlvp:scale=0.5",
      "--kernel", "trapezoidal", "--h-grid", "0:2:3", "--n", "50"]),
    # the normal kernel on a scaled normal target, whose ISE takes the
    # energy route, at n = 1000 too
    ("mc-validate normal:sigma=2+normal",
     ["-c", _CLI, "mc-validate", "--dist", "normal:sigma=2", "--kernel", "normal",
      "--h-grid", "0.05:2:3", "--n", "50,1000", "--reps", "100"]),
    # jdlvp+normal, whose Fourier ISE takes the most panels of any pair
    ("mc-validate jdlvp+normal",
     ["-c", _CLI, "mc-validate", "--dist", "jdlvp", "--kernel", "normal",
      "--h-grid", "0.05:0.5:3", "--n", "50,200", "--reps", "100", "--seed", "7"]),
    # one cell, so one worker: the cell runs in the CLI's own process
    ("mc-validate one cell normal:sigma=1+sinc",
     ["-c", _CLI, "mc-validate", "--dist", "normal:sigma=1", "--kernel", "sinc",
      "--h-grid", "0.25:0.25:1", "--n", "50", "--reps", "100"]),
    # monte_carlo_mise's group boundaries: 32768 // (14 n) replications
    # a group make one partial group at n = 7, three whole and a partial
    # last one at n = 50, and groups of two at n = 1000
    ("mc-validate groups jdlvp+trapezoidal",
     ["-c", _CLI, "mc-validate", "--dist", "jdlvp", "--kernel", "trapezoidal",
      "--h-grid", "0:0.5:3", "--n", "7,50,1000", "--reps", "150"]),
    # jdlvp+sinc at h = 1e8, where every replication's ISE is one number
    # to rounding and z divides by the exact value's error bound
    ("mc-validate large-h jdlvp+sinc",
     ["-c", _CLI, "mc-validate", "--dist", "jdlvp", "--kernel", "sinc", "--n", "50",
      "--reps", "100", "--h-grid", "1e8:1e8:1"]),
] + [
    # every key of mise-curve from the config file, and --kernel over it
    ("mise-curve --config",
     ["-c", _CONFIG_CLI, json.dumps({"dist": "normal:sigma=2", "kernel": "sinc", "n": [500],
                                     "h_grid": "0:2:21", "out": "results",
                                     "format": "csv+svg"}),
      "mise-curve", "--kernel", "normal"]),
    ("mc-validate --config",
     ["-c", _CONFIG_CLI, json.dumps({"seed": 11, "reps": 150, "dist": "jdlvp",
                                     "kernel": "sinc", "h_grid": [0.1, 0.6, 2],
                                     "n": "20,100"}),
      "mc-validate"]),
] + [
    ("mise_profile bytes", ["-c", _PROFILE_BYTES]),
    ("ise bytes", ["-c", _ISE_BYTES]),
    ("monte_carlo_mise draws", ["-c", _DRAW_BYTES]),
    ("psi cross-check reprs", ["-c", _PSI_REPRS]),
] + [
    (f"demo {name}", [f"demos/{name}"])
    for name in ("01_constants_catalog.py", "02_mise_curves.py", "03_bandwidth_descent.py",
                 "04_normal_target.py", "05_monte_carlo_check.py", "06_estimator_on_data.py")
]


def run_case(checkout: Path, argv: list[str]) -> tuple[dict[str, bytes], float]:
    """Run one case in a fresh directory; return its outputs by name and wall time."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    with tempfile.TemporaryDirectory() as work:
        args = [str(checkout / a) if a.startswith("demos/") else a for a in argv]
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *args], cwd=work, env=env,
                              capture_output=True)
        wall = time.perf_counter() - start
        out = {"exit": str(proc.returncode).encode(), "stdout": proc.stdout,
               "stderr": proc.stderr}
        for path in sorted(Path(work).rglob("*")):
            if path.is_file():
                out[str(path.relative_to(work))] = path.read_bytes()
    return out, wall


def _column_changes(old: bytes, new: bytes) -> list[str]:
    """Largest relative (and for bandwidths absolute) change per numeric column."""
    rows_old = list(csv.reader(io.StringIO(old.decode())))
    rows_new = list(csv.reader(io.StringIO(new.decode())))
    if len(rows_old) != len(rows_new) or not rows_old or rows_old[0] != rows_new[0]:
        return [f"header or row count differs ({len(rows_old)} vs {len(rows_new)} rows)"]
    worst: dict[str, float | str] = {}
    worst_abs: dict[str, float] = {}
    for row_old, row_new in zip(rows_old[1:], rows_new[1:]):
        for name, a, b in zip(rows_old[0], row_old, row_new):
            if a == b or worst.get(name) == "text":
                continue
            try:
                x, y = float(a), float(b)
            except ValueError:
                worst[name] = "text"
                continue
            change = abs(y - x) / max(abs(x), abs(y), 1e-300)
            if math.isnan(change):  # a nan on one side only
                change = math.inf
            worst[name] = max(worst.get(name, 0.0), change)
            if name.startswith(_ABSOLUTE_PREFIXES):
                gap = abs(y - x)
                worst_abs[name] = max(worst_abs.get(name, 0.0),
                                      math.inf if math.isnan(gap) else gap)
    lines = []
    for name, c in worst.items():
        line = f"{name}: {'text differs' if c == 'text' else f'{c:.3g}'}"
        if c != "text" and name in worst_abs:
            line += f" (absolute {worst_abs[name]:.3g})"
        lines.append(line)
    return lines


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    base = Path(argv[0]).resolve()
    new = Path(argv[1]).resolve() if len(argv) == 2 else Path(__file__).resolve().parents[1]
    failed = 0
    for name, case in CASES:
        got_base, t_base = run_case(base, case)
        got_new, t_new = run_case(new, case)
        differ = sorted(k for k in got_base.keys() | got_new.keys()
                        if got_base.get(k) != got_new.get(k))
        failed += bool(differ)
        files = len(got_base) - 3
        status = "DIFF " + ", ".join(differ) if differ else "same"
        print(f"{name:42s} {t_base:6.2f}s {t_new:6.2f}s  {files} files  {status}")
        for key in differ:
            if key.endswith(".csv") and key in got_base and key in got_new:
                for line in _column_changes(got_base[key], got_new[key]):
                    print(f"    {key}  {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
