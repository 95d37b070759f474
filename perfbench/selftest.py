"""Show that the benchmark's checks catch wrong outputs.

    python3 perfbench/selftest.py        # from the root of a checkout

First the reference module checks itself (its quadrature must reproduce
psi_f, psi_k and the normal closed forms).  Then one real round of each
workload is run and its outputs are fed back to the workload's checks,
once as they are and then with one output perturbed at a time:

* mise-points: each query's MiseReport scaled by 1 + 1e-6;
* sweeps: each optimum's h_opt moved by +1e-3, and each reported
  efficiency or MISE scaled by 1 + 1e-6;
* monte-carlo: each cell's estimate moved to |z| = 5 (with the exit
  code as the CLI would then give it, and as it was), and each exact
  MISE scaled by 1 + 1e-6.

Every perturbed output must be rejected and counted as a failed
operation.  The script prints one line per perturbation kind and exits
non-zero if any perturbation got through.  It takes about a minute.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import workloads  # noqa: E402

MISE_FACTOR = 1.0 + 1e-6
H_SHIFT = 1e-3
Z_PERTURBED = 5.0


def edit_csv(data: bytes, row: int, column: str, fn) -> bytes:
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    col = rows[0].index(column)
    rows[row + 1][col] = format(fn(float(rows[row + 1][col])), ".17g")
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().encode("utf-8")


class Tally:
    def __init__(self):
        self.results = {}

    def record(self, kind: str, caught: bool, failed_before: int, failed_after: int) -> None:
        seen, missed = self.results.get(kind, (0, []))
        if not (caught and failed_after > failed_before):
            missed.append(kind)
        self.results[kind] = (seen + 1, missed)

    def report(self) -> bool:
        ok = bool(self.results)
        for kind, (seen, missed) in self.results.items():
            print(f"{kind}: {seen - len(missed)} of {seen} perturbed outputs rejected")
            ok = ok and not missed
        return ok


def mise_points(wl, tally: Tally) -> None:
    outputs = wl.run_round(wl.prepare())
    _, base, _ = wl.check(outputs)
    already = set(wl.last_failed)
    queries, quad, reports = outputs
    for i, r in enumerate(reports):
        if i in already:
            continue
        bent = dataclasses.replace(r, iv=r.iv * MISE_FACTOR, isb=r.isb * MISE_FACTOR,
                                   mise=r.mise * MISE_FACTOR)
        _, failed, _ = wl.check((queries, quad, reports[:i] + [bent] + reports[i + 1:]))
        tally.record("mise-points: MISE x (1 + 1e-6)", i in wl.last_failed, base, failed)


def bend_curve(curves, kernel: str, field: str, row: int, fn):
    """curves with one value of the normal-target curve for `kernel` changed."""
    out = []
    for fam, k, curve in curves:
        if fam == "normal" and k == kernel:
            values = list(getattr(curve, field))
            values[row] = fn(values[row])
            curve = dataclasses.replace(curve, **{field: tuple(values)})
        out.append((fam, k, curve))
    return out


def sweeps(wl, tally: Tally) -> None:
    outputs = wl.run_round(wl.prepare())
    rcs, files, curves = outputs
    _, base, _ = wl.check(outputs)
    already = set(wl.last_failed)

    def check(new_files, new_curves=curves):
        wl.first_bytes = None  # judge the content, not the bytes of the real round
        return wl.check((rcs, new_files, new_curves))[1]

    def bend_file(rel, row, column, fn):
        return dict(files, **{rel: edit_csv(files[rel], row, column, fn)})

    def scale(v):
        return float(format(v * MISE_FACTOR, ".17g"))

    for row, n in enumerate(workloads.SWEEP_N):
        for kernel in ("trapezoidal", "sinc"):
            if ("jdlvp", kernel, n) in already:
                continue
            failed = check(bend_file("figures/figure2_bandwidth.csv", row, f"h_opt_{kernel}",
                                     lambda v: v + H_SHIFT))
            tally.record("sweeps: h_opt + 1e-3", ("jdlvp", kernel, n) in wl.last_failed,
                         base, failed)
            failed = check(bend_file("figures/figure2_efficiency.csv", row, f"rel_eff_{kernel}",
                                     scale))
            tally.record("sweeps: MISE x (1 + 1e-6)", ("jdlvp", kernel, n) in wl.last_failed,
                         base, failed)
        for kernel in ("normal", "sinc"):
            if ("normal", kernel, n) in already:
                continue
            failed = check(files, bend_curve(curves, kernel, "h_opt", row, lambda v: v + H_SHIFT))
            tally.record("sweeps: h_opt + 1e-3", ("normal", kernel, n) in wl.last_failed,
                         base, failed)
            failed = check(bend_file("figures/figure3_efficiency.csv", row, f"rel_eff_{kernel}",
                                     scale),
                           bend_curve(curves, kernel, "rel_eff", row, scale))
            tally.record("sweeps: MISE x (1 + 1e-6)", ("normal", kernel, n) in wl.last_failed,
                         base, failed)
    for tag, target, kernel in (("opt_jdlvp_normal", "jdlvp", "normal"),
                                ("opt_normal_trapezoidal", "normal", "trapezoidal")):
        rel = f"{tag}/optimal_bandwidth.csv"
        for kind, column, fn in (("h_opt + 1e-3", "h_opt", lambda v: v + H_SHIFT),
                                 ("MISE x (1 + 1e-6)", "mise_at_opt", scale)):
            failed = check(bend_file(rel, 0, column, fn))
            tally.record(f"sweeps: {kind}", (target, kernel, 1000) in wl.last_failed,
                         base, failed)


def monte_carlo(wl, tally: Tally) -> None:
    outputs = wl.run_round(wl.prepare())
    seed, rc, rows = outputs
    _, base, _ = wl.check(outputs)
    already = set(wl.last_failed)
    for i, row in enumerate(rows):
        if i in already:
            continue
        exact, se = float(row["exact_mise"]), float(row["std_error"])
        bent_row = dict(row, mc_estimate=format(exact + Z_PERTURBED * se, ".17g"),
                        z_score=format(Z_PERTURBED, ".17g"))
        bent = rows[:i] + [bent_row] + rows[i + 1:]
        for code in (2, rc):
            _, failed, _ = wl.check((seed, code, bent))
            tally.record("monte-carlo: one cell at |z| = 5", i in wl.last_failed, base, failed)
        bent_row = dict(row, exact_mise=format(exact * MISE_FACTOR, ".17g"))
        _, failed, _ = wl.check((seed, rc, rows[:i] + [bent_row] + rows[i + 1:]))
        tally.record("monte-carlo: MISE x (1 + 1e-6)", i in wl.last_failed, base, failed)


def main() -> int:
    import_root = Path.cwd() / "src"
    harness.import_cdf_mise(import_root)
    problems = workloads.ref.self_check()
    print("reference self-check:", "; ".join(problems) if problems else "ok")
    workdir = HERE / "out" / "selftest"
    tally = Tally()
    try:
        api = workloads.Api()
        for name, fn in (("mise-points", mise_points), ("sweeps", sweeps),
                         ("monte-carlo", monte_carlo)):
            fn(workloads.WORKLOADS[name](api, 7, workdir), tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ok = tally.report() and not problems
    print("selftest:", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
