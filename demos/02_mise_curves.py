"""Exact MISE along a bandwidth grid, split into variance and bias.

For the band-limited target with a superkernel the squared bias is
identically zero up to h* = s_k/d_f, so the MISE falls on the exact
straight line (psi_f - psi_k h)/n before the bias turns on.  For the
normal target with the normal kernel every point matches the closed
form.  The report carries the route that produced each value.
"""

import math

from cdf_mise.distributions import make_jdlvp, make_normal
from cdf_mise.kernels import kernel_by_name, psi_k
from cdf_mise.mise import mise


def main() -> None:
    jdlvp = make_jdlvp()
    trap = kernel_by_name("trapezoidal")
    n = 1000

    print(f"jdlvp + trapezoidal, n = {n}")
    print(f"  {'h':>5}{'iv':>14}{'isb':>14}{'mise':>14}  method")
    for h in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 1.0):
        r = mise(jdlvp, trap, h, n)
        print(f"  {h:>5.2f}{r.iv:>14.6e}{r.isb:>14.6e}{r.mise:>14.6e}"
              f"  {r.method}")

    # On the segment the slope is exactly -psi_k/n per unit bandwidth.
    slope = (mise(jdlvp, trap, 0.4, n).mise - mise(jdlvp, trap, 0.1, n).mise) / 0.3
    print(f"\n  segment slope x n = {slope * n:.12f}")
    print(f"  -psi_k            = {-psi_k(trap):.12f}")

    normal = make_normal(1.0)
    nk = kernel_by_name("normal")
    print(f"\nnormal(1) + normal kernel, n = {n}: Fourier vs closed form")
    print(f"  {'h':>5}{'fourier':>22}{'closed':>22}{'rel diff':>12}")
    for h in (0.1, 0.5, 1.0, 2.0):
        got = mise(normal, nk, h, n, method="fourier").mise
        want = mise(normal, nk, h, n).mise
        print(f"  {h:>5.2f}{got:>22.12e}{want:>22.12e}"
              f"{abs(got / want - 1.0):>12.2e}")

    # The empirical CDF (h = 0) is the benchmark all curves start from.
    print(f"\n  MISE at h = 0 equals psi_f/n = {normal.psi_f / n:.12e}"
          f" (psi_f = sigma/sqrt(pi) = {1.0 / math.sqrt(math.pi):.12f})")


if __name__ == "__main__":
    main()
