"""The package's exports, and what importing and running it loads."""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import cdf_mise

MODULES = [f"cdf_mise.{m.name}" for m in pkgutil.iter_modules(cdf_mise.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert sorted(set(module.__all__)) == sorted(module.__all__)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def _run_python(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    # A fresh interpreter with ./src first on its path.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=cwd, check=True)


# Imports the bare package, then one module under an alias, and prints
# what each step loaded.
_IMPORT_SCRIPT = """
import json, sys, types
import cdf_mise
bare = sorted(m for m in sys.modules if m.startswith("cdf_mise."))
import cdf_mise.mise as m
print(json.dumps({"bare": bare, "version": cdf_mise.__version__,
                  "alias_is_module": isinstance(m, types.ModuleType),
                  "alias": m.__name__}))
"""


def test_package_is_its_modules(tmp_path):
    # The package exports only __version__, so importing it loads no
    # module, and `import cdf_mise.mise as m` binds the module, not the
    # function of the same name.
    got = json.loads(_run_python("-c", _IMPORT_SCRIPT, cwd=tmp_path).stdout)
    assert got == {"bare": [], "version": cdf_mise.__version__,
                   "alias_is_module": True, "alias": "cdf_mise.mise"}


def test_cli_runs_as_a_module(tmp_path):
    proc = _run_python("-m", "cdf_mise.cli", "constants", cwd=tmp_path)
    assert proc.stdout.startswith("distribution")
    assert "normal:sigma=1 + trapezoidal" in proc.stdout
    assert list(tmp_path.iterdir()) == []


# Imports cdf_mise.cli, runs four commands, records which of the lazily
# imported scipy modules are loaded after each, then runs `constants`.
_LAZY_SCRIPT = """
import contextlib, io, json, sys
from cdf_mise.cli import main
lazy = ("scipy.integrate", "scipy.optimize")
loaded = {"import": [m for m in lazy if m in sys.modules]}
for command in (["figure2"], ["optimal-bandwidth"], ["mise-curve"],
                ["mc-validate", "--reps", "100"]):
    assert main([*command, "--out", sys.argv[1]]) == 0
    loaded[command[0]] = [m for m in lazy if m in sys.modules]
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert main(["constants"]) == 0
loaded["constants"] = [m for m in lazy if m in sys.modules]
print(json.dumps({"loaded": loaded, "constants": out.getvalue()}))
"""


def test_searches_load_neither_quadpack_nor_brentq(tmp_path):
    # The searches and figures run on the fixed-rule profile alone, and
    # mise() and the Monte Carlo check on the same rule, so
    # scipy.integrate and scipy.optimize stay unloaded; `constants` still
    # cross-checks psi_f and psi_k by QUADPACK.
    proc = _run_python("-c", _LAZY_SCRIPT, str(tmp_path), cwd=tmp_path)
    got = json.loads(proc.stdout.splitlines()[-1])
    loaded = got["loaded"]
    assert loaded == {**loaded, "import": [], "figure2": [], "optimal-bandwidth": [],
                      "mise-curve": [], "mc-validate": []}
    assert "scipy.integrate" in loaded["constants"]
    # the |diff| column of the targets' psi_f and the kernels' psi_k rows
    rows = [line.split() for line in got["constants"].splitlines()]
    diffs = {row[0]: float(row[3]) for row in rows
             if len(row) >= 4 and row[1] != "+"
             and row[0] in ("jdlvp", "normal:sigma=1", "normal", "trapezoidal", "sinc")}
    assert len(diffs) == 5
    assert all(d <= 1e-12 for d in diffs.values()), diffs


# Installs the benchmark's tracer over ./src, makes one mise() and one
# ise() call through the patched modules, and prints what it counted.
_TRACER_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer
tracer = Tracer()
tracer.install()
d, k, e, m = (tracer.mods[name] for name in ("distributions", "kernels", "estimator", "mise"))
dist = d.make_jdlvp()
kernel = k.kernel_by_name("trapezoidal")
m.mise(dist, kernel, 0.75, 100)
e.ise(e.draw_sample(dist, 20, 5), kernel, 0.75, dist)
wrapped = [hasattr(x, "__wrapped__") for x in
           (dist.cf, kernel.ft, d.rescale(d.make_normal(1.0), 2.0).cf)]
tracer.uninstall()
print(json.dumps({"calls": dict(tracer.calls), "wrapped": wrapped,
                  "restored": not hasattr(m.mise, "__wrapped__")}))
"""


def test_benchmark_tracer_hooks_the_package():
    # The benchmark's tracer patches cdf_mise functions by name and rebuilds
    # targets and kernels with dataclasses.replace; a rename or a removed
    # field would make every traced run raise.  -B keeps the run from
    # writing bytecode next to the tracer.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-B", "-c", _TRACER_SCRIPT,
                           str(root / "perfbench")],
                          capture_output=True, text=True, env=env, cwd=root, check=True)
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["calls"]["mise.call"] == 1
    assert got["calls"]["estimator.ise"] == 1
    assert got["calls"]["kernels.ft"] > 0
    assert got["wrapped"] == [True, True, True]
    assert got["restored"]
