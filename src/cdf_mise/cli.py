"""Command-line surface: figures, constants, and validation suites.

Commands
--------
mise-curve          MISE decomposition along a bandwidth grid
optimal-bandwidth   MISE-minimizing bandwidth per sample size
efficiency-curve    relative-efficiency sweep for one pair
figure2             band-limited target: bandwidth and efficiency sweeps
figure3             normal target: efficiency sweeps for both kernels
mc-validate         Monte Carlo validation of the exact formulas
constants           catalog constants with quadrature cross-checks

Exit codes: 0 success, 1 usage or configuration error, 2 validation
failure.  CSV output is UTF-8 with LF line endings, a header row, and
17-significant-digit numbers, so reruns with a fixed configuration are
byte-identical.  Files are written atomically (temp file + rename), and
every SVG chart is a pure function of the CSV it accompanies.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
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
    make_jdlvp,
    make_normal,
    psi_f_fourier,
)
from .estimator import monte_carlo_mise
from .kernels import KERNEL_NAMES, Kernel, kernel_by_name, psi_k
from .mise import mise

__all__ = [
    "RunConfig",
    "UsageError",
    "build_parser",
    "main",
    "console_main",
    "svg_from_mise_curve_csv",
    "svg_from_bandwidth_csv",
    "svg_from_efficiency_csv",
]

_COMMANDS = ("mise-curve", "optimal-bandwidth", "efficiency-curve",
             "figure2", "figure3", "mc-validate", "constants")
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
_MC_SUITE_H = (0.0, 0.25, 0.5)
_MC_SUITE_N = (50, 200)

_DEFAULT_SEED = 1729
_DEFAULT_REPS = 2000


class UsageError(Exception):
    """Bad flags, specs, or config file contents (exit code 1)."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation: flags over config file over defaults."""

    command: str
    dist_spec: str
    kernel_spec: str
    n_list: tuple[int, ...]
    h_grid: tuple[float, float, int]
    seed: int
    replications: int
    output_dir: Path
    format: str

    def __post_init__(self) -> None:
        if self.command not in _COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.format not in _FORMATS:
            raise ValueError(f"unknown format {self.format!r}")
        if self.h_grid[0] < 0.0:
            raise ValueError("h-grid minimum must be nonnegative")


# ---------------------------------------------------------------------------
# Distribution/kernel spec strings and config merging
# ---------------------------------------------------------------------------

def _parse_assignments(rest: str, allowed: tuple[str, ...]) -> dict[str, str]:
    params: dict[str, str] = {}
    if rest:
        for part in rest.split(","):
            key, eq, val = part.partition("=")
            if not eq or key not in allowed:
                raise ValueError(f"expected key=value with key in {allowed}, got {part!r}")
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
    except (KeyError, ValueError):
        raise UsageError(
            f"unknown kernel {spec!r}; available: {', '.join(KERNEL_NAMES)}") from None


def _parse_n_list(text) -> tuple[int, ...]:
    if isinstance(text, (list, tuple)):
        items = list(text)
    else:
        items = str(text).split(",")
    try:
        values = tuple(int(str(item).strip()) for item in items)
    except ValueError as exc:
        raise UsageError(f"bad sample-size list {text!r}: {exc}") from exc
    if not values or any(v < 1 for v in values):
        raise UsageError(f"sample sizes must be positive integers, got {text!r}")
    return values


def _parse_h_grid(text) -> tuple[float, float, int]:
    if isinstance(text, (list, tuple)):
        parts = [str(p) for p in text]
    else:
        parts = str(text).split(":")
    if len(parts) != 3:
        raise UsageError(f"h-grid must be min:max:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise UsageError(f"bad h-grid {text!r}: {exc}") from exc
    if count < 1:
        raise UsageError(f"h-grid needs at least one point, got count={count}")
    if lo < 0.0 or hi < lo:
        raise UsageError(f"h-grid must satisfy 0 <= min <= max, got {text!r}")
    return lo, hi, count


_CONFIG_KEYS = ("dist", "kernel", "n", "h_grid", "seed", "reps", "out", "format")


def _load_config_file(path: Path) -> dict:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(data) - set(_CONFIG_KEYS))
    if unknown:
        raise UsageError(
            f"unknown config keys {unknown}; allowed: {list(_CONFIG_KEYS)}")
    return data


_COMMAND_DEFAULTS = {
    "mise-curve": ("jdlvp", "trapezoidal", (1000,), (0.0, 1.0, 101)),
    "optimal-bandwidth": ("jdlvp", "trapezoidal", _DECADES_N, (0.0, 1.0, 101)),
    "efficiency-curve": ("jdlvp", "trapezoidal", _SWEEP_N, (0.0, 1.0, 101)),
    "figure2": ("jdlvp", "", _SWEEP_N, (0.0, 1.0, 101)),
    "figure3": ("normal:sigma=1", "", _SWEEP_N, (0.0, 1.0, 101)),
    "mc-validate": ("", "", _MC_SUITE_N, (0.0, 0.5, 3)),
    "constants": ("", "", (1,), (0.0, 1.0, 101)),
}


def _merge_config(args: argparse.Namespace) -> RunConfig:
    file_cfg = _load_config_file(Path(args.config)) if args.config else {}

    def pick(flag: str, key: str):
        value = getattr(args, flag)
        return value if value is not None else file_cfg.get(key)

    dist_default, kernel_default, n_default, h_default = _COMMAND_DEFAULTS[args.command]

    dist_spec = pick("dist", "dist")
    kernel_spec = pick("kernel", "kernel")
    n_raw = pick("n", "n")
    h_raw = pick("h_grid", "h_grid")
    seed = pick("seed", "seed")
    reps = pick("reps", "reps")
    out = pick("out", "out")
    fmt = pick("format", "format")

    try:
        seed = _DEFAULT_SEED if seed is None else int(seed)
        reps = _DEFAULT_REPS if reps is None else int(reps)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"seed and reps must be integers: {exc}") from exc
    if not (0 <= seed < 2 ** 64):
        raise UsageError(f"seed must fit in 64 unsigned bits, got {seed}")
    if reps < 2:
        raise UsageError(f"reps must be at least 2, got {reps}")
    fmt = fmt if fmt is not None else "csv"
    if fmt not in _FORMATS:
        raise UsageError(f"unknown format {fmt!r}; choose from {_FORMATS}")

    return RunConfig(
        command=args.command,
        dist_spec=dist_default if dist_spec is None else str(dist_spec),
        kernel_spec=kernel_default if kernel_spec is None else str(kernel_spec),
        n_list=n_default if n_raw is None else _parse_n_list(n_raw),
        h_grid=h_default if h_raw is None else _parse_h_grid(h_raw),
        seed=seed,
        replications=reps,
        output_dir=Path(out) if out is not None else Path("."),
        format=fmt,
    )


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


def svg_from_bandwidth_csv(path: Path) -> str:
    """Chart of every h_opt column against log10(n), from the CSV alone."""
    cols = _read_csv_columns(path)
    logn = [math.log10(float(v)) for v in cols["n"]]
    series = [(name, logn, [float(v) for v in cols[name]])
              for name in cols if name == "h_opt" or name.startswith("h_opt_")]
    guides = []
    if cols.get("limit_bandwidth"):
        guides.append(("limit", float(cols["limit_bandwidth"][0])))
    return line_chart(series, title="Optimal bandwidth vs sample size",
                      x_label="log10(n)", y_label="h_opt", asymptotes=guides)


def svg_from_efficiency_csv(path: Path) -> str:
    """Chart of every rel_eff column against log10(n), from the CSV alone."""
    cols = _read_csv_columns(path)
    logn = [math.log10(float(v)) for v in cols["n"]]
    series = [(name, logn, [float(v) for v in cols[name]])
              for name in cols if name == "rel_eff" or name.startswith("rel_eff_")]
    guides: list[tuple[str, float]] = []
    for name in cols:
        if (name == "asymptote" or name.startswith("asymptote_")) and cols[name]:
            y = float(cols[name][0])
            if all(abs(y - g) > 0.0 for _, g in guides):
                guides.append((name.replace("_", " "), y))
    return line_chart(series, title="Relative efficiency vs sample size",
                      x_label="log10(n)", y_label="MISE(h_opt) / MISE(0)",
                      asymptotes=guides)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_mise_curve(cfg: RunConfig) -> int:
    dist = _parse_dist(cfg.dist_spec)
    kernel = _parse_kernel(cfg.kernel_spec)
    n = cfg.n_list[0]
    lo, hi, count = cfg.h_grid
    hs = np.linspace(lo, hi, count)
    if hs[0] != 0.0:
        hs = np.concatenate(([0.0], hs))
    rows = []
    for h in hs:
        report = mise(dist, kernel, float(h), n)
        rows.append((report.h, report.iv, report.isb, report.mise, report.method))
    path = cfg.output_dir / "mise_curve.csv"
    _write_csv(path, ("h", "iv", "isb", "mise", "method"), rows)
    print(f"wrote {path} ({len(rows)} rows, n={n})")
    if cfg.format == "csv+svg":
        svg_path = cfg.output_dir / "mise_curve.svg"
        _write_atomic(svg_path, svg_from_mise_curve_csv(path))
        print(f"wrote {svg_path}")
    return 0


def cmd_optimal_bandwidth(cfg: RunConfig) -> int:
    dist = _parse_dist(cfg.dist_spec)
    kernel = _parse_kernel(cfg.kernel_spec)
    rows = [(res.n, res.h_opt, res.mise_at_opt, res.mise_at_opt / (dist.psi_f / res.n),
             res.bracket[0], res.bracket[1], res.boundary_flag)
            for res in optimal_bandwidths(dist, kernel, cfg.n_list)]
    path = cfg.output_dir / "optimal_bandwidth.csv"
    _write_csv(path, ("n", "h_opt", "mise_at_opt", "rel_eff",
                      "bracket_lo", "bracket_hi", "boundary_flag"), rows)
    print(f"wrote {path} ({len(rows)} rows)")
    if cfg.format == "csv+svg":
        svg_path = cfg.output_dir / "optimal_bandwidth.svg"
        _write_atomic(svg_path, svg_from_bandwidth_csv(path))
        print(f"wrote {svg_path}")
    return 0


def cmd_efficiency_curve(cfg: RunConfig) -> int:
    dist = _parse_dist(cfg.dist_spec)
    kernel = _parse_kernel(cfg.kernel_spec)
    curve = efficiency_curve(dist, kernel, cfg.n_list)
    rows = [(n, h, r, curve.asymptote)
            for n, h, r in zip(curve.n_values, curve.h_opt, curve.rel_eff)]
    path = cfg.output_dir / "efficiency_curve.csv"
    _write_csv(path, ("n", "h_opt", "rel_eff", "asymptote"), rows)
    print(f"wrote {path} ({len(rows)} rows)")
    if cfg.format == "csv+svg":
        svg_path = cfg.output_dir / "efficiency_curve.svg"
        _write_atomic(svg_path, svg_from_efficiency_csv(path))
        print(f"wrote {svg_path}")
    return 0


def cmd_figure2(cfg: RunConfig) -> int:
    dist = _parse_dist(cfg.dist_spec)
    trap = kernel_by_name("trapezoidal")
    sinc = kernel_by_name("sinc")
    curve_t = efficiency_curve(dist, trap, cfg.n_list)
    curve_s = efficiency_curve(dist, sinc, cfg.n_list)
    limit = limit_bandwidth(dist, trap)

    bw_path = cfg.output_dir / "figure2_bandwidth.csv"
    _write_csv(bw_path,
               ("n", "h_opt_trapezoidal", "h_opt_sinc", "limit_bandwidth"),
               [(n, ht, hs, limit) for n, ht, hs
                in zip(curve_t.n_values, curve_t.h_opt, curve_s.h_opt)])
    eff_path = cfg.output_dir / "figure2_efficiency.csv"
    _write_csv(eff_path,
               ("n", "rel_eff_trapezoidal", "rel_eff_sinc",
                "asymptote_trapezoidal", "asymptote_sinc"),
               [(n, rt, rs, curve_t.asymptote, curve_s.asymptote)
                for n, rt, rs
                in zip(curve_t.n_values, curve_t.rel_eff, curve_s.rel_eff)])
    print(f"wrote {bw_path} and {eff_path} ({len(curve_t.n_values)} rows each)")

    for csv_path, render in ((bw_path, svg_from_bandwidth_csv),
                             (eff_path, svg_from_efficiency_csv)):
        svg_path = csv_path.with_suffix(".svg")
        _write_atomic(svg_path, render(csv_path))
        print(f"wrote {svg_path}")
    return 0


def cmd_figure3(cfg: RunConfig) -> int:
    dist = _parse_dist(cfg.dist_spec)
    normal_k = kernel_by_name("normal")
    sinc = kernel_by_name("sinc")
    curve_n = efficiency_curve(dist, normal_k, cfg.n_list)
    curve_s = efficiency_curve(dist, sinc, cfg.n_list)

    path = cfg.output_dir / "figure3_efficiency.csv"
    _write_csv(path,
               ("n", "rel_eff_normal", "rel_eff_sinc",
                "asymptote_normal", "asymptote_sinc"),
               [(n, rn, rs, curve_n.asymptote, curve_s.asymptote)
                for n, rn, rs
                in zip(curve_n.n_values, curve_n.rel_eff, curve_s.rel_eff)])
    print(f"wrote {path} ({len(curve_n.n_values)} rows)")
    svg_path = path.with_suffix(".svg")
    _write_atomic(svg_path, svg_from_efficiency_csv(path))
    print(f"wrote {svg_path}")
    return 0


def cmd_mc_validate(cfg: RunConfig) -> int:
    if cfg.replications < 100:
        raise UsageError(
            f"mc-validate needs at least 100 replications, got {cfg.replications}")
    if bool(cfg.dist_spec) != bool(cfg.kernel_spec):
        raise UsageError("a custom validation run needs both --dist and --kernel")

    if cfg.dist_spec:
        lo, hi, count = cfg.h_grid
        cells = [(cfg.dist_spec, cfg.kernel_spec, float(h), int(n))
                 for h in np.linspace(lo, hi, count) for n in cfg.n_list]
    else:
        cells = [(d, k, h, n) for d, k in _MC_SUITE_PAIRS
                 for h in _MC_SUITE_H for n in _MC_SUITE_N]

    rows = []
    flagged = []
    for index, (dist_spec, kernel_spec, h, n) in enumerate(cells):
        dist = _parse_dist(dist_spec)
        kernel = _parse_kernel(kernel_spec)
        exact = mise(dist, kernel, h, n).mise
        mc = monte_carlo_mise(dist, kernel, h, n, cfg.replications,
                              seed=cfg.seed + index)
        z = (mc.estimate - exact) / mc.std_error if mc.std_error > 0.0 else 0.0
        rows.append((dist.name, kernel.name, h, n, exact, mc.estimate,
                     mc.std_error, z, cfg.replications))
        print(f"{dist.name} + {kernel.name}  h={h:g}  n={n}  "
              f"exact={exact:.6g}  mc={mc.estimate:.6g}  z={z:+.2f}", flush=True)
        if abs(z) > 4.0:
            flagged.append((dist.name, kernel.name, h, n, z))

    path = cfg.output_dir / "mc_validate.csv"
    _write_csv(path, ("dist", "kernel", "h", "n", "exact_mise", "mc_estimate",
                      "std_error", "z_score", "replications"), rows)
    print(f"wrote {path} ({len(rows)} rows)")
    if flagged:
        for dist_name, kernel_name, h, n, z in flagged:
            print(f"VALIDATION FAILURE: {dist_name} + {kernel_name} h={h:g} "
                  f"n={n} |z|={abs(z):.2f} > 4", file=sys.stderr)
        return 2
    return 0


def cmd_constants(cfg: RunConfig) -> int:
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

_DISPATCH = {
    "mise-curve": cmd_mise_curve,
    "optimal-bandwidth": cmd_optimal_bandwidth,
    "efficiency-curve": cmd_efficiency_curve,
    "figure2": cmd_figure2,
    "figure3": cmd_figure3,
    "mc-validate": cmd_mc_validate,
    "constants": cmd_constants,
}

_COMMAND_HELP = {
    "mise-curve": "exact IV/ISB/MISE along a bandwidth grid",
    "optimal-bandwidth": "MISE-minimizing bandwidth for each sample size",
    "efficiency-curve": "relative efficiency MISE(h_opt)/MISE(0) sweep",
    "figure2": "bandwidth and efficiency sweeps for a band-limited target",
    "figure3": "efficiency sweeps for the normal target, both kernels",
    "mc-validate": "Monte Carlo validation of the exact MISE formulas",
    "constants": "catalog constants with quadrature cross-checks",
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
    for name in _COMMANDS:
        sp = sub.add_parser(name, help=_COMMAND_HELP[name],
                            description=_COMMAND_HELP[name])
        sp.add_argument("--dist", help=f"target distribution ({_DIST_USAGE})")
        sp.add_argument("--kernel", help=f"kernel ({', '.join(KERNEL_NAMES)})")
        sp.add_argument("--n", help="comma-separated sample sizes")
        sp.add_argument("--h-grid", dest="h_grid", help="bandwidth grid min:max:count")
        sp.add_argument("--seed", help=f"master seed (default {_DEFAULT_SEED})")
        sp.add_argument("--reps", help=f"Monte Carlo replications (default {_DEFAULT_REPS})")
        sp.add_argument("--out", help="output directory (default current)")
        sp.add_argument("--format", choices=_FORMATS, help="output format (default csv)")
        sp.add_argument("--config", help="JSON config file; explicit flags win")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
        return _DISPATCH[cfg.command](cfg)
    except UsageError as exc:
        print(f"cdf-mise: error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(main(sys.argv[1:]))
