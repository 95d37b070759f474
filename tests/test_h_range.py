"""The one bandwidth range: every function that takes h holds to it.

h must be 0, the empirical CDF, or lie in [1e-300, 1e75].  Each entry
below is one way into the package; each refuses the same values with
the same message, and takes the ends of the range.
"""

from __future__ import annotations

import math
import re

import pytest

from cdf_mise import cli
from cdf_mise.distributions import make_jdlvp, make_normal
from cdf_mise.estimator import (
    PanelBoundError,
    draw_sample,
    estimate_cdf,
    ise,
    monte_carlo_mise,
)
from cdf_mise.kernels import kernel_by_name
from cdf_mise.mise import _H_RANGE, mise, mise_profile

OUT_OF_RANGE = (-0.2, math.nan, math.inf, 1e-301, 1e76)
IN_RANGE = (0.0, 1e-300, 1e75)

# one pair on the Fourier ISE and the linear segment, one on the energy
# ISE and the closed form
PAIRS = pytest.mark.parametrize(
    "dist,kernel", [(make_jdlvp(), kernel_by_name("trapezoidal")),
                    (make_normal(1.0), kernel_by_name("normal"))],
    ids=["jdlvp+trapezoidal", "normal+normal"])

ENTRIES = {
    "mise": lambda dist, kernel, h: mise(dist, kernel, h, 10),
    "mise_profile": lambda dist, kernel, h: mise_profile(dist, kernel, [0.5, h]),
    "ise": lambda dist, kernel, h: ise(draw_sample(dist, 10, 1), kernel, h, dist),
    "estimate_cdf": lambda dist, kernel, h: estimate_cdf(
        draw_sample(dist, 10, 1), kernel, h, [-1.0, 0.3]),
    "monte_carlo_mise": lambda dist, kernel, h: monte_carlo_mise(
        dist, kernel, h, 10, 2, seed=1),
}
COMMANDS = ("mise-curve", "mc-validate")


def run_cli(command, dist, kernel, h, capsys, tmp_path, monkeypatch):
    # one grid point, h, in process with no worker pool; `=` keeps
    # argparse from reading -0.2 as a flag
    monkeypatch.setattr(cli.multiprocessing, "Pool", None)
    argv = [command, f"--h-grid={h!r}:{h!r}:1", "--n", "10", "--dist", dist.name,
            "--kernel", kernel.name, "--out", str(tmp_path / "out")]
    rc = cli.main(argv + (["--reps", "100"] if command == "mc-validate" else []))
    out, err = capsys.readouterr()
    return rc, out, err


@pytest.mark.parametrize("h", OUT_OF_RANGE)
@PAIRS
@pytest.mark.parametrize("entry", ENTRIES)
def test_refuses_with_the_one_message(entry, dist, kernel, h):
    with pytest.raises(ValueError) as raised:
        ENTRIES[entry](dist, kernel, h)
    assert re.fullmatch(re.escape(_H_RANGE), str(raised.value))


@pytest.mark.parametrize("h", IN_RANGE)
@PAIRS
@pytest.mark.parametrize("entry", ENTRIES)
def test_takes_the_ends_of_the_range(entry, dist, kernel, h):
    # a sample's Fourier ISE at h = 1e-300 would need too many panels,
    # which is its own error and no range error
    try:
        ENTRIES[entry](dist, kernel, h)
    except PanelBoundError:
        assert h == 1e-300 and dist.family == "jdlvp"


@pytest.mark.parametrize("h", OUT_OF_RANGE)
@PAIRS
@pytest.mark.parametrize("command", COMMANDS)
def test_cli_refuses_with_the_one_message(command, dist, kernel, h, capsys, tmp_path,
                                          monkeypatch):
    # a usage error, exit 1, before any file is written
    rc, out, err = run_cli(command, dist, kernel, h, capsys, tmp_path, monkeypatch)
    assert (rc, out) == (1, "")
    assert err == f"cdf-mise: error: h-grid point {h:g} is out of range: {_H_RANGE}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("h", IN_RANGE)
@PAIRS
@pytest.mark.parametrize("command", COMMANDS)
def test_cli_takes_the_ends_of_the_range(command, dist, kernel, h, capsys, tmp_path,
                                         monkeypatch):
    # mc-validate may exit 2, a z-score verdict, at a bandwidth where
    # every replication's ISE is one number to rounding; exit 1 is only
    # the Fourier ISE's panel bound
    rc, _, err = run_cli(command, dist, kernel, h, capsys, tmp_path, monkeypatch)
    assert _H_RANGE not in err
    if rc == 1:
        assert (command, h, dist.family) == ("mc-validate", 1e-300, "jdlvp")
        assert "panels" in err
    else:
        assert rc in ((0, 2) if command == "mc-validate" else (0,))
