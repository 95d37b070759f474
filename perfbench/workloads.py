"""The benchmark's workloads: their inputs, their operations and the checks.

Each workload is a closed loop with one caller.  `prepare()` builds the
inputs of one round; `run_round()` performs the round's operations through
cdf_mise's public API or CLI and returns the raw outputs; `check()`
compares those outputs with `reference` (which imports nothing from
cdf_mise) or with properties the method must have, and reports how many
operations failed.  Only `run_round()` is timed.

Program calls go through the module attributes at call time, so that the
tracer's wrappers are seen when it is installed.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import math
from pathlib import Path
from time import perf_counter

import numpy as np

import reference as ref

# The program documents that every fast MISE route agrees with its Fourier
# quadrature to well below 1e-9 relative; exact and closed-form outputs,
# and the auto/fourier agreement, are held to that.
RTOL = 1e-9
# Outputs of the program's adaptive quadrature (the fourier and
# sinc_fourier routes) are compared with the reference, and with each
# other across scales, to 1e-8: the program asks QUADPACK for 1e-10 per
# integral, and on normal-target infinite ranges it misses that by up to
# ~40x for about one input in 5000.
QUAD_RTOL = 1e-8
QUAD_ROUTES = frozenset(("fourier", "sinc_fourier"))
# Bandwidth optima are refined to a 1e-6 bracket; allow ten times that.
H_TOL = 1e-5
# Relative tolerance on |phi_f(1/h)|^2 (n+1) = 1 at the sinc optimum: an
# h error of 1e-6 moves it by at most ~2e-4 over the figure's sample sizes.
STATIONARY_TOL = 1e-3
# Step for the check that a reported optimum is a local minimum of the reference MISE.
OPT_STEP = 1e-4
Z_LIMIT = 4.0

SWEEP_N = tuple(int(round(10.0 ** (1.0 + 6.0 * k / 14.0))) for k in range(15))


class Api:
    """cdf_mise's modules, imported once (after the tracer, if any)."""

    def __init__(self):
        for name in ("cli", "mise", "bandwidth", "distributions", "kernels", "estimator"):
            setattr(self, name, importlib.import_module(f"cdf_mise.{name}"))

    def target(self, family: str, scale: float):
        if family == "jdlvp":
            return self.distributions.make_jdlvp(scale)
        return self.distributions.make_normal(scale)

    def run_cli(self, call, argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return call(f"cli.{argv[0]}", self.cli.main, argv)


def direct_call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def parse_csv(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def close(a: float, b: float, rtol: float = RTOL) -> bool:
    return ref.rel_close(float(a), float(b), rtol)


# ---------------------------------------------------------------------------
# sweeps: figure2, figure3 and two optimal-bandwidth runs through the CLI
# ---------------------------------------------------------------------------

class Sweeps:
    """One round runs the CLI figure sweeps and two single optimum searches.

    An operation is one bandwidth optimum delivered: 15 sample sizes for
    each of jdlvp+trapezoidal, jdlvp+sinc, normal+normal and normal+sinc,
    plus optimal-bandwidth --n 1000 for jdlvp+normal and
    normal+trapezoidal, 62 in all.  The inputs are the CLI's defaults; the
    seed only orders the four commands within a round.
    """

    name = "sweeps"
    ops_per_round = 62
    traced_rounds = 1
    # (command, output directory, argv); figure2 and figure3 share a directory.
    COMMANDS = (
        ("figure2", "figures", ["figure2"]),
        ("figure3", "figures", ["figure3"]),
        ("opt_jdlvp_normal", "opt_jdlvp_normal",
         ["optimal-bandwidth", "--dist", "jdlvp", "--kernel", "normal", "--n", "1000"]),
        ("opt_normal_trapezoidal", "opt_normal_trapezoidal",
         ["optimal-bandwidth", "--dist", "normal:sigma=1", "--kernel", "trapezoidal",
          "--n", "1000"]),
    )
    FILES = {
        "figures/figure2_bandwidth.csv": "figure2",
        "figures/figure2_efficiency.csv": "figure2",
        "figures/figure3_efficiency.csv": "figure3",
        "opt_jdlvp_normal/optimal_bandwidth.csv": "opt_jdlvp_normal",
        "opt_normal_trapezoidal/optimal_bandwidth.csv": "opt_normal_trapezoidal",
    }
    OPTIMA = {
        "figure2": [("jdlvp", "trapezoidal", n) for n in SWEEP_N]
        + [("jdlvp", "sinc", n) for n in SWEEP_N],
        "figure3": [("normal", "normal", n) for n in SWEEP_N]
        + [("normal", "sinc", n) for n in SWEEP_N],
        "opt_jdlvp_normal": [("jdlvp", "normal", 1000)],
        "opt_normal_trapezoidal": [("normal", "trapezoidal", 1000)],
    }

    def __init__(self, api: Api, seed: int, workdir: Path, call=direct_call):
        self.api, self.call, self.workdir = api, call, workdir
        order = np.random.default_rng([seed, 0]).permutation(len(self.COMMANDS))
        self.commands = [self.COMMANDS[i] for i in order]
        self.first_bytes = None
        self.curves = []
        # figure3 writes efficiencies only; its optima are read from the
        # EfficiencyCurve values the CLI builds them from.
        original = api.cli.efficiency_curve

        def capture(dist, kernel, n_values, *args, **kwargs):
            curve = original(dist, kernel, n_values, *args, **kwargs)
            self.curves.append((dist.family, kernel.name, curve))
            return curve

        api.cli.efficiency_curve = capture

    def setup_calls(self) -> None:
        """One mise() call on each (pair, route) the round uses."""
        api = self.api
        for family, kernel, hs in (("jdlvp", "trapezoidal", (0.0, 0.3, 0.7)),
                                   ("jdlvp", "sinc", (0.3, 0.7)),
                                   ("jdlvp", "normal", (0.3,)),
                                   ("normal", "normal", (0.3,)),
                                   ("normal", "sinc", (0.3,)),
                                   ("normal", "trapezoidal", (0.3,))):
            dist, k = api.target(family, 1.0), api.kernels.kernel_by_name(kernel)
            for h in hs:
                api.mise.mise(dist, k, h, 1000)

    def prepare(self):
        return None

    def run_round(self, _):
        self.curves = []
        rcs = {}
        for command, out, argv in self.commands:
            try:
                rcs[command] = self.api.run_cli(
                    self.call, argv + ["--out", str(self.workdir / out)])
            except Exception as exc:  # a crash fails that command's optima
                rcs[command] = repr(exc)
        files = {}
        for rel in self.FILES:
            path = self.workdir / rel
            files[rel] = path.read_bytes() if path.exists() else None
            path.unlink(missing_ok=True)
        return rcs, files, list(self.curves)

    def check(self, outputs):
        rcs, files, curves = outputs
        problems = []
        failed_items = set()

        def fail(item, message):
            failed_items.add(item)
            problems.append(f"{item}: {message}")

        for command, rc in rcs.items():
            if rc != 0:
                for item in self.OPTIMA[command]:
                    fail(item, f"command exit {rc}")

        # Rerunning the same commands must give the same bytes.
        if self.first_bytes is None:
            self.first_bytes = files
        for rel, data in files.items():
            command = self.FILES[rel]
            if data is None or data != self.first_bytes[rel]:
                for item in self.OPTIMA[command]:
                    fail(item, f"{rel} missing or differs from the first round")

        jdlvp, normal = ref.Target("jdlvp", 1.0), ref.Target("normal", 1.0)
        try:
            self._check_figure2(files, fail, jdlvp)
            self._check_figure3(files, curves, fail, normal)
            for tag, target, kernel in (("opt_jdlvp_normal", jdlvp, "normal"),
                                        ("opt_normal_trapezoidal", normal, "trapezoidal")):
                self._check_optimum(files[f"{tag}/optimal_bandwidth.csv"], target, kernel, fail)
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            for items in self.OPTIMA.values():
                for item in items:
                    fail(item, f"unreadable output: {exc!r}")
        self.last_failed = failed_items
        return self.ops_per_round, len(failed_items), problems

    def _check_figure2(self, files, fail, jdlvp):
        bw = parse_csv(files["figures/figure2_bandwidth.csv"])
        eff = parse_csv(files["figures/figure2_efficiency.csv"])
        for rows in (bw, eff):
            if [int(r["n"]) for r in rows] != list(SWEEP_N):
                raise ValueError("figure2 sample sizes differ from the 15 defaults")
        for b, e in zip(bw, eff):
            n = int(b["n"])
            for kernel in ("trapezoidal", "sinc"):
                item = ("jdlvp", kernel, n)
                h = float(b[f"h_opt_{kernel}"])
                rel = float(e[f"rel_eff_{kernel}"])
                quad = ref.mise(jdlvp, kernel, h, n) / (jdlvp.psi_f / n)
                if not close(rel, quad, QUAD_RTOL):
                    fail(item, f"rel_eff {rel!r} vs reference {quad!r} at h={h!r}")
                if not self._is_local_min(jdlvp, kernel, h, n):
                    fail(item, f"MISE is lower within {OPT_STEP} of h_opt {h!r}")
                if not close(float(e[f"asymptote_{kernel}"]),
                             ref.asymptotic_efficiency(jdlvp, kernel), 1e-12):
                    fail(item, f"asymptote {e[f'asymptote_{kernel}']}")
                if kernel == "trapezoidal":
                    limit = ref.S_K[kernel] / jdlvp.d_f
                    linear_rel = 1.0 - ref.PSI_K[kernel] * limit / jdlvp.psi_f
                    if not h >= limit:
                        fail(item, f"h_opt {h!r} below s_k/d_f = {limit}")
                    if not rel <= linear_rel * (1.0 + 1e-12):
                        fail(item, f"MISE(h_opt) above the linear value at s_k/d_f: {rel!r}")
                    if not close(float(b["limit_bandwidth"]), limit, 1e-15):
                        fail(item, f"limit_bandwidth {b['limit_bandwidth']}")
                else:
                    stationary = float(jdlvp.phi(1.0 / h)) ** 2 * (n + 1)
                    if not abs(stationary - 1.0) <= STATIONARY_TOL:
                        fail(item, f"|phi_f(1/h)|^2 (n+1) = {stationary!r} at h={h!r}")

    def _check_figure3(self, files, curves, fail, normal):
        eff = parse_csv(files["figures/figure3_efficiency.csv"])
        if [int(r["n"]) for r in eff] != list(SWEEP_N):
            raise ValueError("figure3 sample sizes differ from the 15 defaults")
        by_kernel = {k: c for fam, k, c in curves if fam == "normal"}
        sigma = normal.scale
        for i, e in enumerate(eff):
            n = int(e["n"])
            for kernel, closed in (("normal", ref.normal_normal), ("sinc", ref.normal_sinc)):
                item = ("normal", kernel, n)
                curve = by_kernel.get(kernel)
                if curve is None:
                    fail(item, "no efficiency curve was built")
                    continue
                h = curve.h_opt[i]
                rel = float(e[f"rel_eff_{kernel}"])
                if format(curve.rel_eff[i], ".17g") != e[f"rel_eff_{kernel}"]:
                    fail(item, "CSV rel_eff differs from the curve it was written from")
                if kernel == "sinc":
                    h_ref = sigma / math.sqrt(math.log(n + 1.0))
                else:
                    h_ref = ref.golden_min(lambda x: sum(closed(sigma, x, n)), 0.0, 4.0 * sigma,
                                           1e-12)
                if not abs(h - h_ref) <= H_TOL:
                    fail(item, f"h_opt {h!r} vs reference optimum {h_ref!r}")
                exact = sum(closed(sigma, h, n)) / (normal.psi_f / n)
                if not close(rel, exact):
                    fail(item, f"rel_eff {rel!r} vs closed form {exact!r} at h={h!r}")
                if float(e[f"asymptote_{kernel}"]) != ref.asymptotic_efficiency(normal, kernel):
                    fail(item, f"asymptote {e[f'asymptote_{kernel}']}")

    def _check_optimum(self, data, target, kernel, fail):
        row = parse_csv(data)[0]
        n = int(row["n"])
        item = (target.family, kernel, n)
        h, m = float(row["h_opt"]), float(row["mise_at_opt"])
        quad = ref.mise(target, kernel, h, n)
        if not close(m, quad, QUAD_RTOL):
            fail(item, f"mise_at_opt {m!r} vs reference {quad!r} at h={h!r}")
        if not close(float(row["rel_eff"]), m / (target.psi_f / n), 1e-12):
            fail(item, f"rel_eff {row['rel_eff']} inconsistent with mise_at_opt")
        if not (float(row["bracket_lo"]) <= h <= float(row["bracket_hi"])
                and row["boundary_flag"] == "interior"):
            fail(item, f"h_opt {h!r} outside its bracket or not interior")
        if not self._is_local_min(target, kernel, h, n):
            fail(item, f"MISE is lower within {OPT_STEP} of h_opt {h!r}")

    @staticmethod
    def _is_local_min(target, kernel: str, h: float, n: int) -> bool:
        """No lower reference MISE a step to either side of h."""
        here = ref.mise(target, kernel, h, n)
        return all(ref.mise(target, kernel, h + step, n) >= here * (1.0 - 1e-12)
                   for step in (-OPT_STEP, OPT_STEP))


# ---------------------------------------------------------------------------
# mise-points: scattered, independent mise() queries on all six pairs
# ---------------------------------------------------------------------------

PAIRS = tuple((fam, k) for fam in ("jdlvp", "normal") for k in ("normal", "trapezoidal", "sinc"))
# Queries on which the program fails for some seeds and not others are
# left out, since they would make the failed share differ between runs:
# * the normal-target closed forms lose relative accuracy in proportion
#   to n (their ISB is a difference of O(sigma) terms), past 1e-9 at
#   n of a few million, so those two pairs draw n up to 1e5 only;
# * the normal+sinc closed form returns a slightly negative ISB for
#   h/sigma in about [0.1705, 0.1816], so that band is skipped;
# * the forced Fourier route on normal+normal misses the closed form by
#   more than 1e-9 for about one h in a thousand, so that pair has no
#   auto/fourier agreement groups.
CLOSED_FORM_N_MAX = 1e5
NORMAL_SINC_GAP = (0.16, 0.19)
GROUPS = ("agree", "agree", "scale", "nstruct", "h0")
NORMAL_NORMAL_GROUPS = ("scale", "scale", "nstruct", "nstruct", "h0")


class MisePoints:
    """Seeded stream of independent mise() queries over all six pairs.

    A round holds, for each pair, four pairs of queries whose outputs
    are checked against each other and one h = 0 query: two auto/fourier
    agreement pairs, one scale-covariance pair and one n-structure pair
    (normal+normal has two of each of the last two instead).  That is 54
    queries, 10 of them forced to method="fourier".  Target scales are
    log-uniform in [0.5, 2] and n log-uniform in [10, 1e7] (1e5 for the
    normal-target closed forms).  h is log-uniform in [1e-4, 1] * h_max,
    stratified: in each round the four pairs of a target-kernel pair take
    one of the four decades each, in a seeded order.
    """

    name = "mise-points"
    ops_per_round = 54
    traced_rounds = 60

    def __init__(self, api: Api, seed: int, workdir: Path, call=direct_call):
        self.api, self.call = api, call
        self.rng = np.random.default_rng([seed, 1])
        self.seen = set()

    def setup_calls(self) -> None:
        """One call per (pair, route) the stream uses, both methods."""
        api = self.api
        for family, kernel in PAIRS:
            dist, k = api.target(family, 1.0), api.kernels.kernel_by_name(kernel)
            for h in (0.0, 0.1, 1.5):
                api.mise.mise(dist, k, h, 1000)
                api.mise.mise(dist, k, h, 1000, method="fourier")

    def _draw(self, family: str, kernel: str, decade: int):
        """(a, target, h, n, n_max) with log10(h/h_max) in [decade - 4, decade - 3)."""
        rng, api = self.rng, self.api
        n_max = CLOSED_FORM_N_MAX if family == "normal" and kernel != "trapezoidal" else 1e7
        while True:
            a = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
            dist = api.target(family, a)
            h = api.bandwidth.default_search(dist).h_max * 10.0 ** (decade - 4 + rng.random())
            n = int(round(10.0 ** rng.uniform(1.0, math.log10(n_max))))
            if family == "normal" and kernel == "sinc" and \
                    NORMAL_SINC_GAP[0] <= h / a <= NORMAL_SINC_GAP[1]:
                continue
            if (family, a, kernel, h) not in self.seen:
                self.seen.add((family, a, kernel, h))
                return a, dist, h, n, n_max

    def make_round(self):
        """Queries as (group, family, scale, kernel, h, n, method, dist, kernel obj)."""
        api = self.api
        queries = []
        for family, kernel in PAIRS:
            k = api.kernels.kernel_by_name(kernel)
            groups = NORMAL_NORMAL_GROUPS if (family, kernel) == ("normal", "normal") else GROUPS
            decades = self.rng.permutation(4)
            for g, group in enumerate(groups):
                a, dist, h, n, n_max = self._draw(family, kernel, decades[g % 4])
                tag = (family, kernel, g, group)
                if group == "h0":
                    queries.append((tag, family, a, kernel, 0.0, n, "auto", dist, k))
                    continue
                queries.append((tag, family, a, kernel, h, n, "auto", dist, k))
                if group == "agree":
                    queries.append((tag, family, a, kernel, h, n, "fourier", dist, k))
                elif group == "scale":
                    queries.append((tag, family, 1.0, kernel, h / a, n, "auto",
                                    api.target(family, 1.0), k))
                else:
                    n2 = n
                    while n2 == n:
                        n2 = int(round(10.0 ** self.rng.uniform(1.0, math.log10(n_max))))
                    queries.append((tag, family, a, kernel, h, n2, "auto", dist, k))
        # a seeded quarter of the queries is also compared with quadrature
        quad = self.rng.random(len(queries)) < 0.25
        return queries, quad

    def prepare(self):
        return self.make_round()

    def run_round(self, prepared):
        queries, quad = prepared
        mise = self.api.mise.mise
        reports = []
        for q in queries:
            _, _, _, _, h, n, method, dist, k = q
            try:
                reports.append(mise(dist, k, h, n, method=method))
            except Exception as exc:  # counted as a failed query
                reports.append(exc)
        return queries, quad, reports

    def check(self, outputs):
        queries, quad, reports = outputs
        bad = set()
        problems = []

        def fail(i, message):
            bad.add(i)
            q = queries[i]
            problems.append(f"{q[1]}:{q[2]:.6g}+{q[3]} h={q[4]!r} n={q[5]} {q[6]}: {message}")

        for i, (q, r) in enumerate(zip(queries, reports)):
            _, family, a, kernel, h, n, method, _, _ = q
            if isinstance(r, Exception):
                fail(i, f"raised {r!r}")
                continue
            if not (r.iv >= 0.0 and r.isb >= 0.0 and r.mise == r.iv + r.isb):
                fail(i, f"iv={r.iv!r} isb={r.isb!r} mise={r.mise!r}")
            target = ref.Target(family, a)
            tol = QUAD_RTOL if r.method in QUAD_ROUTES else RTOL
            exact = ref.exact_mise(target, kernel, h, n)
            if exact is not None and not close(r.mise, exact, tol):
                fail(i, f"mise {r.mise!r} vs closed form {exact!r}")
            if quad[i] and exact is None:
                value = ref.mise(target, kernel, h, n)
                if not close(r.mise, value, tol):
                    fail(i, f"mise {r.mise!r} vs reference quadrature {value!r}")

        for i in range(len(queries) - 1):
            j = i + 1
            if queries[i][0] != queries[j][0]:
                continue
            r, s = reports[i], reports[j]
            if isinstance(r, Exception) or isinstance(s, Exception):
                continue
            group = queries[i][0][3]
            if group == "agree":
                ok, what = close(r.mise, s.mise), "auto and fourier disagree"
            elif group == "scale":
                tol = QUAD_RTOL if QUAD_ROUTES & {r.method, s.method} else RTOL
                ok, what = close(r.mise, queries[i][2] * s.mise, tol), "scale covariance broken"
            else:
                ok = close(r.n * r.iv, s.n * s.iv) and close(r.isb, s.isb)
                what = "n * iv or isb depends on n"
            if not ok:
                fail(i, f"{what}: {r.mise!r} vs {s.mise!r}")
                fail(j, what)
        self.last_failed = bad
        return len(queries), len(bad), problems


# ---------------------------------------------------------------------------
# monte-carlo: the CLI's mc-validate suite at reduced replications
# ---------------------------------------------------------------------------

SUITE_PAIRS = (("jdlvp", 1.0, "trapezoidal"), ("jdlvp", 1.0, "sinc"),
               ("normal", 1.0, "normal"), ("normal", 1.0, "sinc"))
SUITE_H = (0.0, 0.25, 0.5)
SUITE_N = (50, 200)
SUITE = tuple((fam, a, k, h, n) for fam, a, k in SUITE_PAIRS for h in SUITE_H for n in SUITE_N)
CONFIRM_OFFSET = 500_000


class MonteCarlo:
    """One round is `mc-validate --reps 100` on the default 24-cell suite.

    An operation is one ISE replication, 2400 a round.  Round r uses the
    CLI seed seed * 10^6 + 24 r; the CLI seeds cell i with that plus i.
    """

    name = "monte-carlo"
    reps = 100
    ops_per_round = reps * len(SUITE)
    traced_rounds = 1

    def __init__(self, api: Api, seed: int, workdir: Path, call=direct_call):
        self.api, self.call, self.workdir = api, call, workdir
        self.seed = int(seed)
        self.round = 0

    def setup_calls(self) -> None:
        """The exact MISE of every suite pair, and one ISE of each kind."""
        api, est = self.api, self.api.estimator
        for fam, a, kernel in SUITE_PAIRS:
            dist, k = api.target(fam, a), api.kernels.kernel_by_name(kernel)
            api.mise.mise(dist, k, 0.25, 50)
            for h in (0.0, 0.25):
                est.ise(est.draw_sample(dist, 50, 0, rep=0), k, h, dist)

    def round_seed(self, r: int) -> int:
        return self.seed * 10 ** 6 + len(SUITE) * r

    def prepare(self) -> int:
        """The CLI seed of the next round."""
        self.round += 1
        return self.round_seed(self.round - 1)

    def run_round(self, seed: int):
        out = self.workdir / "mc"
        argv = ["mc-validate", "--reps", str(self.reps), "--seed", str(seed), "--out", str(out)]
        try:
            rc = self.api.run_cli(self.call, argv)
        except Exception as exc:
            rc = repr(exc)
        path = out / "mc_validate.csv"
        rows = parse_csv(path.read_bytes()) if path.exists() else None
        path.unlink(missing_ok=True)
        return seed, rc, rows

    def cell_objects(self, cell):
        fam, a, kernel, h, n = cell
        return self.api.target(fam, a), self.api.kernels.kernel_by_name(kernel)

    def serial_estimate(self, cell, seed: int, reps: int) -> float:
        """The cell's estimate from replications run here, one at a time."""
        dist, k = self.cell_objects(cell)
        est = self.api.estimator
        values = np.empty(reps)
        for r in range(reps):
            values[r] = est.ise(est.draw_sample(dist, cell[4], seed, rep=r), k, cell[3], dist)
        return float(np.mean(values))

    def check(self, outputs, reproduced=None):
        """reproduced maps a cell index to its serial estimate, if known."""
        seed, rc, rows = outputs
        problems = []
        self.last_failed = set(range(len(SUITE)))
        if rows is None or len(rows) != len(SUITE):
            return self.ops_per_round, self.ops_per_round, [f"round {seed}: exit {rc}, no table"]
        bad = set()
        flagged = False
        for i, (cell, row) in enumerate(zip(SUITE, rows)):
            fam, a, kernel, h, n = cell
            try:
                shape_ok = (row["kernel"] == kernel and float(row["h"]) == h
                            and int(row["n"]) == n and int(row["replications"]) == self.reps
                            and row["dist"].startswith(fam))
                exact, est = float(row["exact_mise"]), float(row["mc_estimate"])
                se, z_csv = float(row["std_error"]), float(row["z_score"])
            except (KeyError, ValueError) as exc:
                bad.add(i)
                problems.append(f"cell {i}: unreadable row {exc!r}")
                continue
            ref_exact = ref.exact_mise(ref.Target(fam, a), kernel, h, n)
            if not shape_ok:
                bad.add(i)
                problems.append(f"cell {i}: row {row} is not the suite cell {cell}")
                continue
            if not close(exact, ref_exact):
                bad.add(i)
                problems.append(f"cell {i}: exact_mise {exact!r} vs reference {ref_exact!r}")
            if not (se > 0.0 and math.isfinite(est) and est > 0.0):
                bad.add(i)
                problems.append(f"cell {i}: estimate {est!r} with std_error {se!r}")
                continue
            z = (est - ref_exact) / se
            if not abs(z - z_csv) <= 1e-6:
                bad.add(i)
                problems.append(f"cell {i}: z_score {z_csv!r} but recomputed {z!r}")
            flagged = flagged or abs(z_csv) > Z_LIMIT
            if i in (reproduced or {}) and reproduced[i] != est:
                bad.add(i)
                problems.append(f"cell {i}: estimate {est!r} but {reproduced[i]!r} serially")
            if abs(z) > Z_LIMIT and not self._confirm(i, cell, seed + i, est, ref_exact,
                                                       problems):
                bad.add(i)
        if rc != (2 if flagged else 0):
            problems.append(f"round {seed}: exit {rc} does not match the table's z scores")
            return self.ops_per_round, self.ops_per_round, problems
        self.last_failed = bad
        return self.ops_per_round, self.reps * len(bad), problems

    def _confirm(self, i, cell, cell_seed, est, exact, problems) -> bool:
        """Second look at a cell beyond |z| = 4.

        At 100 replications the ISE's skew (about 2) puts |z| > 4 in some
        cell of about one round in 25 on correct code.  Such a cell passes
        only if a serial rerun reproduces its estimate exactly and an
        independent run with four times the replications lands within
        |z| <= 4.
        """
        serial = self.serial_estimate(cell, cell_seed, self.reps)
        if serial != est:
            problems.append(f"cell {i}: |z| > 4 and estimate {est!r} is {serial!r} serially")
            return False
        dist, k = self.cell_objects(cell)
        mc = self.api.estimator.monte_carlo_mise(dist, k, cell[3], cell[4], 4 * self.reps,
                                                 seed=cell_seed + CONFIRM_OFFSET)
        z = (mc.estimate - exact) / mc.std_error
        problems.append(f"cell {i}: |z| > 4 at {self.reps} replications; "
                        f"z = {z:+.2f} at {4 * self.reps}")
        return abs(z) <= Z_LIMIT

    def serial_pass(self, outputs):
        """Every cell's replications rerun here, timed: (estimates, seconds)."""
        seed = outputs[0]
        estimates, seconds = {}, []
        for i, cell in enumerate(SUITE):
            t0 = perf_counter()
            estimates[i] = self.serial_estimate(cell, seed + i, self.reps)
            seconds.append(perf_counter() - t0)
        return estimates, seconds


WORKLOADS = {w.name: w for w in (Sweeps, MisePoints, MonteCarlo)}
