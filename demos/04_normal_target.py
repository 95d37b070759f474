"""Normal target: closed forms, critical bandwidths, kernel ranking.

Nothing is band-limited here, so no kernel achieves a first-order MISE
improvement and both relative-efficiency curves climb back toward 1.
The sinc kernel still has exact structure to show: the stationary
points of its MISE solve |phi_f(1/h)|^2 = 1/(n+1), which for the normal
target gives the single critical bandwidth 1/sqrt(ln(n+1)).
"""

import math

from cdf_mise.bandwidth import (
    optimal_bandwidth,
    relative_efficiency,
    sinc_critical_bandwidths,
)
from cdf_mise.distributions import make_normal
from cdf_mise.kernels import kernel_by_name
from cdf_mise.mise import mise


def main() -> None:
    normal = make_normal(1.0)

    print("sinc critical bandwidths vs 1/sqrt(ln(n+1))")
    print(f"  {'n':>8}{'root':>14}{'formula':>14}{'grid h_opt':>14}")
    for n in (10, 100, 1000, 10_000):
        roots = sinc_critical_bandwidths(normal, n, (1e-3, 2.0))
        formula = 1.0 / math.sqrt(math.log(n + 1.0))
        res = optimal_bandwidth(normal, kernel_by_name("sinc"), n)
        print(f"  {n:>8}{roots[0]:>14.8f}{formula:>14.8f}{res.h_opt:>14.8f}")

    print("\nclosed-form MISE at the optimum, n = 100")
    h_nk = optimal_bandwidth(normal, kernel_by_name("normal"), 100).h_opt
    h_sc = 1.0 / math.sqrt(math.log(101.0))
    print(f"  normal kernel: h_opt = {h_nk:.6f}, "
          f"MISE = {mise(normal, kernel_by_name('normal'), h_nk, 100).mise:.8e}")
    print(f"  sinc kernel:   h_opt = {h_sc:.6f}, "
          f"MISE = {mise(normal, kernel_by_name('sinc'), h_sc, 100).mise:.8e}")
    print(f"  empirical CDF: MISE = psi_f/n = {normal.psi_f / 100.0:.8e}")

    # The sinc kernel overtakes the normal kernel at moderate n and both
    # efficiencies drift back up toward 1 as smoothing stops paying off.
    print("\nrelative efficiency MISE(h_opt)/MISE(0)")
    print(f"  {'n':>9}{'normal kernel':>16}{'sinc':>12}")
    for n in (10, 50, 100, 1000, 100_000, 10_000_000):
        rn = relative_efficiency(normal, kernel_by_name("normal"), n)
        rs = relative_efficiency(normal, kernel_by_name("sinc"), n)
        print(f"  {n:>9}{rn:>16.6f}{rs:>12.6f}")


if __name__ == "__main__":
    main()
