"""Optimal bandwidths over sample size: the descent toward s_k/d_f.

For a band-limited target and a superkernel the MISE-minimizing
bandwidth stays above the limit s_k/d_f = 1/2 and drifts down toward it
as n grows, while the relative efficiency MISE(h_opt)/MISE(0) drifts
toward 1 - psi_k s_k/(psi_f d_f).  The approach is slow: the bias
turns on with high-order contact at h*, so finite-n optima sit well
above the limit — which is exactly what the table shows.
"""

from cdf_mise.bandwidth import (
    asymptotic_relative_efficiency,
    bandwidth_sandwich_check,
    efficiency_curve,
    limit_bandwidth,
    optimal_bandwidths,
)
from cdf_mise.distributions import make_jdlvp
from cdf_mise.kernels import kernel_by_name


def main() -> None:
    jdlvp = make_jdlvp()
    ns = [100, 1000, 10_000, 100_000, 1_000_000]

    for name in ("trapezoidal", "sinc"):
        kernel = kernel_by_name(name)
        h_star = limit_bandwidth(jdlvp, kernel)
        are = asymptotic_relative_efficiency(jdlvp, kernel)
        print(f"jdlvp + {name}: limit bandwidth {h_star:g}, "
              f"asymptotic efficiency {are:.6f}")
        print(f"  {'n':>9}{'h_opt':>12}{'rel_eff':>12}{'flag':>18}")
        # one grid scan, and one profile call per zoom level, serve every n
        for res in optimal_bandwidths(jdlvp, kernel, ns):
            rel = res.mise_at_opt / (jdlvp.psi_f / res.n)
            print(f"  {res.n:>9}{res.h_opt:>12.6f}{rel:>12.6f}"
                  f"{res.boundary_flag:>18}")
        print()

    # The sandwich check asserts the two-sided property behind the table:
    # h_opt never dips below the limit, and ends near it for large n.
    report = bandwidth_sandwich_check(jdlvp, kernel_by_name("sinc"), ns)
    print(f"sandwich check (sinc): passed = {report.passed}")
    for line in report.messages:
        print(f"  {line}")

    # The two kernels trade places: the trapezoidal kernel wins for small
    # and moderate n, the sinc kernel wins from a few thousand on.
    print("\nefficiency crossover")
    print(f"  {'n':>9}{'trapezoidal':>14}{'sinc':>12}  better")
    crossover_ns = (100, 1000, 3728, 10_000, 100_000)
    trap = efficiency_curve(jdlvp, kernel_by_name("trapezoidal"), crossover_ns)
    sinc = efficiency_curve(jdlvp, kernel_by_name("sinc"), crossover_ns)
    for n, t, s in zip(crossover_ns, trap.rel_eff, sinc.rel_eff):
        print(f"  {n:>9}{t:>14.6f}{s:>12.6f}  "
              f"{'trapezoidal' if t < s else 'sinc'}")


if __name__ == "__main__":
    main()
