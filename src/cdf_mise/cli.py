"""Command-line surface: figures, constants, and validation suites.

Each command is declared once, in ``_COMMANDS``: its help line, its
handler and the keys it takes with their defaults.  Each key is a flag
(``h_grid`` is ``--h-grid``) and a ``--config`` key; a command accepts no
other.  ``figure2`` and ``figure3`` always draw SVG charts, the commands
that take ``--format`` under ``csv+svg`` only, and the other two never.

Exit codes: 0 success, 1 usage or configuration error, 2 validation
failure.  CSV output is UTF-8 with LF line endings, a header row, and
17-significant-digit numbers, so reruns with a fixed configuration are
byte-identical.  Files are written atomically (temp file + rename), and
every SVG chart is a pure function of the CSV it accompanies.

``mc-validate`` crosses its suite pairs, or one ``--dist``/``--kernel`` pair,
with ``--h-grid`` and ``--n``.  It runs these cells on one pool of the CPUs
in the affinity mask; each cell runs serially in one worker, so no byte
depends on the pool.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import multiprocessing
import os
import sys
from collections.abc import Callable
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bandwidth import (
    asymptotic_relative_efficiency,
    efficiency_curve,
    limit_bandwidth,
    optimal_bandwidths,
)
from .charts import line_chart
from .distributions import (
    TargetDistribution,
    _check_size,
    make_jdlvp,
    make_normal,
    psi_f_fourier,
)
from .estimator import PanelBoundError, monte_carlo_mise
from .kernels import KERNEL_NAMES, Kernel, kernel_by_name, psi_k
from .mise import _H_RANGE, _h_ok, mise

__all__ = [
    "UsageError",
    "build_parser",
    "main",
    "console_main",
    "svg_from_mise_curve_csv",
    "svg_from_bandwidth_csv",
    "svg_from_efficiency_csv",
]

_FORMATS = ("csv", "csv+svg")
_DIST_USAGE = "jdlvp, jdlvp:scale=<a>, normal:sigma=<s>"

_SWEEP_N = tuple(int(round(10.0 ** (1.0 + 6.0 * k / 14.0))) for k in range(15))
_DECADES_N = (10, 100, 1000, 10000, 100000, 1000000)

_MC_SUITE_PAIRS = (
    ("jdlvp", "trapezoidal"),
    ("jdlvp", "sinc"),
    ("normal:sigma=1", "normal"),
    ("normal:sigma=1", "sinc"),
)

_DEFAULT_SEED = 1729
_DEFAULT_REPS = 2000


class UsageError(Exception):
    """Bad flags, specs, or config file contents (exit code 1)."""


# ---------------------------------------------------------------------------
# Distribution/kernel spec strings and config merging
# ---------------------------------------------------------------------------

def _parse_assignments(rest: str, allowed: tuple[str, ...]) -> dict[str, str]:
    params: dict[str, str] = {}
    if rest:
        for part in rest.split(","):
            key, eq, val = part.partition("=")
            if not eq or key not in allowed or key in params:
                raise ValueError(f"expected key=value with each key in {allowed} "
                                 f"at most once, got {part!r}")
            params[key] = val
    return params


def _parse_dist(spec: str) -> TargetDistribution:
    name, _, rest = spec.strip().partition(":")
    try:
        if name == "jdlvp":
            params = _parse_assignments(rest, ("scale",))
            return make_jdlvp(scale=float(params.get("scale", "1")))
        if name == "normal":
            params = _parse_assignments(rest, ("sigma",))
            return make_normal(sigma=float(params.get("sigma", "1")))
    except ValueError as exc:
        raise UsageError(f"bad distribution spec {spec!r}: {exc}") from exc
    raise UsageError(
        f"unknown distribution {spec!r}; available: {_DIST_USAGE}")


def _parse_kernel(spec: str) -> Kernel:
    try:
        return kernel_by_name(spec.strip())
    except ValueError:
        raise UsageError(
            f"unknown kernel {spec!r}; available: {', '.join(KERNEL_NAMES)}") from None


def _parse_n_list(text) -> tuple[int, ...]:
    items = list(text) if isinstance(text, (list, tuple)) else str(text).split(",")
    try:
        values = tuple(_check_size(int(str(item).strip())) for item in items)
    except ValueError as exc:
        raise UsageError(f"bad sample-size list {text!r}: {exc}") from exc
    if not values:
        raise UsageError(f"sample sizes must be positive integers, got {text!r}")
    return values


def _parse_h_grid(text) -> tuple[float, float, int]:
    parts = ([str(p) for p in text] if isinstance(text, (list, tuple))
             else str(text).split(":"))
    if len(parts) != 3:
        raise UsageError(f"h-grid must be min:max:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"bad h-grid {text!r}: {exc}") from exc
    if count < 1:
        raise UsageError(f"h-grid needs at least one point, got count={count}")
    if hi < lo:
        raise UsageError(f"h-grid must satisfy 0 <= min <= max, got {text!r}")
    # Every point must be a bandwidth the package takes; both commands
    # that take a grid run it with np.linspace.  A bound that is not
    # finite is checked as it stands, before linspace spreads it.
    finite = math.isfinite(lo) and math.isfinite(hi)
    hs = np.linspace(lo, hi, count) if finite else np.array([lo, hi])
    bad = hs[~_h_ok(hs)]
    if bad.size:
        raise UsageError(f"h-grid point {bad[0]:g} is out of range: {_H_RANGE}")
    return lo, hi, count


def _parse_int(value) -> int:
    # through str, so a config file's 100.9 or true fails as a flag's does
    try:
        return int(str(value))
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad integer {value!r}: {exc}") from exc


def _parse_out(value) -> Path:
    if not isinstance(value, str):
        raise UsageError(f"output directory must be a string, got {value!r}")
    return Path(value)


def _parse_format(value) -> str:
    if value not in _FORMATS:
        raise UsageError(f"unknown format {value!r}; choose from {_FORMATS}")
    return value


# Every key a command can take: the parser of its flag or config value,
# and its --help line.
_KEYS = {
    "dist": (str, f"target distribution ({_DIST_USAGE})"),
    "kernel": (str, f"kernel ({', '.join(KERNEL_NAMES)})"),
    "n": (_parse_n_list, "comma-separated sample sizes"),
    "h_grid": (_parse_h_grid, "bandwidth grid min:max:count"),
    "seed": (_parse_int, f"master seed (default {_DEFAULT_SEED})"),
    "reps": (_parse_int, f"Monte Carlo replications (default {_DEFAULT_REPS})"),
    "out": (_parse_out, "output directory (default current)"),
    "format": (_parse_format, "output format, csv or csv+svg (default csv)"),
}


def _load_config_file(path: Path, keys) -> dict:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise UsageError(f"unknown config keys {unknown}; allowed: {list(keys)}")
    return data


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    defaults = _COMMANDS[args.command].defaults
    path = getattr(args, "config", None)
    file_cfg = _load_config_file(Path(path), defaults) if path else {}
    # The command's keys under their own names, each parsed: a flag wins
    # over the config file, which wins over the command's default.
    cfg = argparse.Namespace()
    for key, default in defaults.items():
        value = file_cfg.get(key) if getattr(args, key) is None else getattr(args, key)
        setattr(cfg, key, _KEYS[key][0](default if value is None else value))
    return cfg


# ---------------------------------------------------------------------------
# CSV / SVG emission
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _write_csv(path: Path, header: tuple[str, ...], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    _write_atomic(path, buf.getvalue())


def _read_csv_columns(path: Path) -> dict[str, list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        columns: dict[str, list[str]] = {name: [] for name in header}
        for row in reader:
            for name, value in zip(header, row):
                columns[name].append(value)
    return columns


def svg_from_mise_curve_csv(path: Path) -> str:
    """Chart of the iv/isb/mise columns against h, from the CSV alone."""
    cols = _read_csv_columns(path)
    hs = [float(v) for v in cols["h"]]
    series = [(name, hs, [float(v) for v in cols[name]])
              for name in ("iv", "isb", "mise")]
    return line_chart(series, title="MISE decomposition",
                      x_label="bandwidth h", y_label="integrated error")


def _log_n_chart(path: Path, series: str, guide: str,
                 guide_label: Callable[[str], str], title: str, y_label: str) -> str:
    # Every `series`/`series_*` column against log10(n); the first value
    # of each distinct `guide`/`guide_*` column is a labelled asymptote.
    cols = _read_csv_columns(path)
    logn = [math.log10(float(v)) for v in cols["n"]]
    lines = [(name, logn, [float(v) for v in cols[name]])
             for name in cols if name == series or name.startswith(series + "_")]
    guides: list[tuple[str, float]] = []
    for name in cols:
        if (name == guide or name.startswith(guide + "_")) and cols[name]:
            y = float(cols[name][0])
            if all(abs(y - g) > 0.0 for _, g in guides):
                guides.append((guide_label(name), y))
    return line_chart(lines, title=title, x_label="log10(n)", y_label=y_label,
                      asymptotes=guides)


def svg_from_bandwidth_csv(path: Path) -> str:
    """Chart of every h_opt column against log10(n), from the CSV alone."""
    return _log_n_chart(path, "h_opt", "limit_bandwidth", lambda name: "limit",
                        "Optimal bandwidth vs sample size", "h_opt")


def svg_from_efficiency_csv(path: Path) -> str:
    """Chart of every rel_eff column against log10(n), from the CSV alone."""
    return _log_n_chart(path, "rel_eff", "asymptote",
                        lambda name: name.replace("_", " "),
                        "Relative efficiency vs sample size", "MISE(h_opt) / MISE(0)")


def _emit(cfg: argparse.Namespace, stem: str, header: tuple[str, ...], rows: list,
          svg: Callable[[Path], str] | None = None, note: str = "") -> None:
    # Every file a command writes goes through here: the CSV, then the SVG
    # that `svg` draws from it, under csv+svg or if the command takes no --format.
    path = cfg.out / f"{stem}.csv"
    _write_csv(path, header, rows)
    print(f"wrote {path} ({len(rows)} rows{note})")
    if svg is not None and getattr(cfg, "format", "csv+svg") == "csv+svg":
        svg_path = path.with_suffix(".svg")
        _write_atomic(svg_path, svg(path))
        print(f"wrote {svg_path}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_mise_curve(cfg: argparse.Namespace) -> int:
    dist = _parse_dist(cfg.dist)
    kernel = _parse_kernel(cfg.kernel)
    if len(cfg.n) != 1:
        raise UsageError(f"mise-curve takes one sample size, got {len(cfg.n)}")
    n = cfg.n[0]
    lo, hi, count = cfg.h_grid
    hs = np.linspace(lo, hi, count)
    if hs[0] != 0.0:
        hs = np.concatenate(([0.0], hs))
    reports = [mise(dist, kernel, float(h), n) for h in hs]
    rows = [(r.h, r.iv, r.isb, r.mise, r.method) for r in reports]
    _emit(cfg, "mise_curve", ("h", "iv", "isb", "mise", "method"), rows,
          svg_from_mise_curve_csv, note=f", n={n}")
    return 0


def cmd_optimal_bandwidth(cfg: argparse.Namespace) -> int:
    dist = _parse_dist(cfg.dist)
    kernel = _parse_kernel(cfg.kernel)
    rows = [(res.n, res.h_opt, res.mise_at_opt, res.mise_at_opt / (dist.psi_f / res.n),
             res.bracket[0], res.bracket[1], res.boundary_flag)
            for res in optimal_bandwidths(dist, kernel, cfg.n)]
    _emit(cfg, "optimal_bandwidth", ("n", "h_opt", "mise_at_opt", "rel_eff",
                                     "bracket_lo", "bracket_hi", "boundary_flag"),
          rows, svg_from_bandwidth_csv)
    return 0


def cmd_efficiency_curve(cfg: argparse.Namespace) -> int:
    dist = _parse_dist(cfg.dist)
    kernel = _parse_kernel(cfg.kernel)
    curve = efficiency_curve(dist, kernel, cfg.n)
    rows = [(n, h, r, curve.asymptote)
            for n, h, r in zip(curve.n_values, curve.h_opt, curve.rel_eff)]
    _emit(cfg, "efficiency_curve", ("n", "h_opt", "rel_eff", "asymptote"), rows,
          svg_from_efficiency_csv)
    return 0


def _efficiency_sweep(cfg: argparse.Namespace, names: tuple[str, str]):
    # Both kernels' efficiency curves on cfg's target and their table, with
    # rows (n, rel_eff_a, rel_eff_b, asymptote_a, asymptote_b).
    dist = _parse_dist(cfg.dist)
    a, b = (efficiency_curve(dist, kernel_by_name(name), cfg.n) for name in names)
    header = ("n", *(f"rel_eff_{name}" for name in names),
              *(f"asymptote_{name}" for name in names))
    rows = [(n, ra, rb, a.asymptote, b.asymptote)
            for n, ra, rb in zip(a.n_values, a.rel_eff, b.rel_eff)]
    return dist, (a, b), header, rows


def cmd_figure2(cfg: argparse.Namespace) -> int:
    dist, (curve_t, curve_s), header, rows = _efficiency_sweep(
        cfg, ("trapezoidal", "sinc"))
    limit = limit_bandwidth(dist, kernel_by_name("trapezoidal"))
    _emit(cfg, "figure2_bandwidth",
          ("n", "h_opt_trapezoidal", "h_opt_sinc", "limit_bandwidth"),
          [(n, ht, hs, limit) for n, ht, hs
           in zip(curve_t.n_values, curve_t.h_opt, curve_s.h_opt)],
          svg_from_bandwidth_csv)
    _emit(cfg, "figure2_efficiency", header, rows, svg_from_efficiency_csv)
    return 0


def cmd_figure3(cfg: argparse.Namespace) -> int:
    _, _, header, rows = _efficiency_sweep(cfg, ("normal", "sinc"))
    _emit(cfg, "figure3_efficiency", header, rows, svg_from_efficiency_csv)
    return 0


def _mc_cell(task: tuple) -> tuple:
    """One validation row from a task of spec strings and numbers only."""
    dist_spec, kernel_spec, h, n, reps, seed = task
    dist, kernel = _parse_dist(dist_spec), _parse_kernel(kernel_spec)
    report = mise(dist, kernel, h, n)
    mc = monte_carlo_mise(dist, kernel, h, n, reps, seed=seed)
    # where every replication's ISE is one number to rounding, std_error
    # is rounding too, and the exact value's error bound is the scale
    scale = max(mc.std_error, report.error_estimate)
    z = (mc.estimate - report.mise) / scale if scale > 0.0 else 0.0
    return dist.name, kernel.name, h, n, report.mise, mc.estimate, mc.std_error, z, reps


def cmd_mc_validate(cfg: argparse.Namespace) -> int:
    if cfg.reps < 100:
        raise UsageError(
            f"mc-validate needs at least 100 replications, got {cfg.reps}")
    if not (0 <= cfg.seed < 2 ** 64):
        raise UsageError(f"seed must fit in 64 unsigned bits, got {cfg.seed}")
    if bool(cfg.dist) != bool(cfg.kernel):
        raise UsageError("a custom validation run needs both --dist and --kernel")

    pairs = [(cfg.dist, cfg.kernel)] if cfg.dist else _MC_SUITE_PAIRS
    cells = [(d, k, float(h), int(n)) for d, k in pairs
             for h in np.linspace(*cfg.h_grid) for n in cfg.n]
    # A bad spec is a usage error before any process starts.
    for dist_spec, kernel_spec in dict.fromkeys(cell[:2] for cell in cells):
        _parse_dist(dist_spec), _parse_kernel(kernel_spec)
    tasks = [(*cell, cfg.reps, cfg.seed + index)
             for index, cell in enumerate(cells)]

    # taskset and cgroup cpusets narrow the affinity mask, not os.cpu_count().
    workers = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count() or 1, len(tasks))
    rows = []
    try:
        with multiprocessing.Pool(workers) if workers > 1 else nullcontext() as pool:
            for row in (map if pool is None else pool.imap)(_mc_cell, tasks):
                rows.append(row)
                dist_name, kernel_name, h, n, exact, estimate, _, z, _ = row
                print(f"{dist_name} + {kernel_name}  h={h:g}  n={n}  "
                      f"exact={exact:.6g}  mc={estimate:.6g}  z={z:+.2f}", flush=True)
    except PanelBoundError as exc:
        # an h too small for the sample's ISE is a bad --h-grid
        raise UsageError(str(exc)) from None

    _emit(cfg, "mc_validate", ("dist", "kernel", "h", "n", "exact_mise", "mc_estimate",
                               "std_error", "z_score", "replications"), rows)
    flagged = [row for row in rows if abs(row[7]) > 4.0]
    for dist_name, kernel_name, h, n, _, _, _, z, _ in flagged:
        print(f"VALIDATION FAILURE: {dist_name} + {kernel_name} h={h:g} "
              f"n={n} |z|={abs(z):.2f} > 4", file=sys.stderr)
    return 2 if flagged else 0


def cmd_constants(cfg: argparse.Namespace) -> int:
    dists = [make_jdlvp(), make_normal(1.0)]
    kernels = [kernel_by_name(name) for name in KERNEL_NAMES]

    print(f"{'distribution':<18}{'psi_f':>20}{'quadrature':>20}"
          f"{'|diff|':>12}{'c_f':>8}{'d_f':>8}{'variance':>10}")
    for dist in dists:
        quad = psi_f_fourier(dist)
        print(f"{dist.name:<18}{dist.psi_f:>20.12g}{quad:>20.12g}"
              f"{abs(quad - dist.psi_f):>12.2e}{dist.c_f:>8g}{dist.d_f:>8g}"
              f"{dist.variance:>10g}")

    print()
    print(f"{'kernel':<18}{'psi_k':>20}{'quadrature':>20}"
          f"{'|diff|':>12}{'s_k':>8}{'t_k':>8}")
    for kernel in kernels:
        quad = psi_k(kernel)
        analytic = kernel.psi_k_analytic
        print(f"{kernel.name:<18}{analytic:>20.12g}{quad:>20.12g}"
              f"{abs(quad - analytic):>12.2e}{kernel.s_k:>8g}{kernel.t_k:>8g}")

    print()
    print(f"{'pair':<32}{'limit_bandwidth':>18}{'asymptotic_rel_eff':>20}")
    for dist in dists:
        for kernel in kernels:
            limit = limit_bandwidth(dist, kernel)
            are = asymptotic_relative_efficiency(dist, kernel)
            print(f"{dist.name + ' + ' + kernel.name:<32}{limit:>18.12g}{are:>20.12g}")
    return 0


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Command:
    """One subcommand: help line, handler, and the keys it takes with their defaults."""

    help: str
    run: Callable[[argparse.Namespace], int]
    defaults: dict


_SWEEP_DEFAULTS = {"dist": "jdlvp", "kernel": "trapezoidal", "n": _SWEEP_N,
                   "out": ".", "format": "csv"}

_COMMANDS = {
    "mise-curve": _Command(
        "exact IV/ISB/MISE along a bandwidth grid", cmd_mise_curve,
        {"dist": "jdlvp", "kernel": "trapezoidal", "n": (1000,),
         "h_grid": (0.0, 1.0, 101), "out": ".", "format": "csv"}),
    "optimal-bandwidth": _Command(
        "MISE-minimizing bandwidth for each sample size", cmd_optimal_bandwidth,
        {**_SWEEP_DEFAULTS, "n": _DECADES_N}),
    "efficiency-curve": _Command(
        "relative efficiency MISE(h_opt)/MISE(0) sweep", cmd_efficiency_curve,
        _SWEEP_DEFAULTS),
    "figure2": _Command(
        "bandwidth and efficiency sweeps for a band-limited target", cmd_figure2,
        {"dist": "jdlvp", "n": _SWEEP_N, "out": "."}),
    "figure3": _Command(
        "efficiency sweeps for the normal target, both kernels", cmd_figure3,
        {"dist": "normal:sigma=1", "n": _SWEEP_N, "out": "."}),
    # An empty --dist and --kernel run the suite pairs.
    "mc-validate": _Command(
        "Monte Carlo validation of the exact MISE formulas", cmd_mc_validate,
        {"dist": "", "kernel": "", "n": (50, 200), "h_grid": (0.0, 0.5, 3),
         "seed": _DEFAULT_SEED, "reps": _DEFAULT_REPS, "out": "."}),
    "constants": _Command(
        "catalog constants with quadrature cross-checks", cmd_constants, {}),
}


class _Parser(argparse.ArgumentParser):
    # Usage problems must exit with code 1, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cdf-mise",
        description="Exact and Monte Carlo MISE analysis of kernel CDF estimators.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, command in _COMMANDS.items():
        sp = sub.add_parser(name, help=command.help, description=command.help)
        for key in command.defaults:
            sp.add_argument("--" + key.replace("_", "-"), dest=key, help=_KEYS[key][1])
        if command.defaults:
            sp.add_argument("--config", help="JSON config file; explicit flags win")
    return parser


# argparse ties every parser into reference cycles that only a full
# garbage collection frees, so main() builds its tree once per process.
_parser = functools.lru_cache(maxsize=1)(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command].run(_merge_config(args))
    except UsageError as exc:
        print(f"cdf-mise: error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_main()
