"""Monte Carlo validation of the exact MISE formulas.

Replicated sampling gives an unbiased ISE average whose distance from
the exact MISE, in standard errors, should look like a standard normal
draw.  Everything is seeded, so reruns reproduce the table bit for bit.
"""

from cdf_mise.distributions import make_jdlvp, make_normal
from cdf_mise.estimator import monte_carlo_mise
from cdf_mise.kernels import kernel_by_name
from cdf_mise.mise import mise


def main() -> None:
    reps, seed = 400, 20260815
    cells = [
        (make_jdlvp(), kernel_by_name("trapezoidal"), 0.25, 50),
        (make_jdlvp(), kernel_by_name("sinc"), 0.5, 50),
        (make_normal(1.0), kernel_by_name("normal"), 0.5, 200),
    ]

    print(f"{reps} replications per cell, seed {seed}")
    print(f"{'pair':<24}{'h':>6}{'n':>6}{'exact':>14}{'simulated':>14}"
          f"{'std err':>12}{'z':>8}")
    for index, (dist, kernel, h, n) in enumerate(cells):
        exact = mise(dist, kernel, h, n).mise
        mc = monte_carlo_mise(dist, kernel, h, n, reps, seed=seed + index)
        z = (mc.estimate - exact) / mc.std_error
        pair = f"{dist.name} + {kernel.name}"
        print(f"{pair:<24}{h:>6.2f}{n:>6}{exact:>14.6e}"
              f"{mc.estimate:>14.6e}{mc.std_error:>12.2e}{z:>+8.2f}")

    dist, kernel, h, n = cells[0]
    again = monte_carlo_mise(dist, kernel, h, n, reps, seed=seed)
    print(f"\nsame seed, rerun:    {again.estimate:.17g}")


if __name__ == "__main__":
    main()
