"""What each subcommand imports: scipy only in the layers that call it.

numpy.fft and numpy.polynomial, which only the fbi layer and closure
coefficients call, stay out of the CLI's import as well, so they add nothing
to a subcommand's start-up;
numpy.ma, which a plain np.unique imports, stays out of an fbi run, and so
does numpy.random, which loads hashlib, secrets and libcrypto: the isometry
probe draws from the stdlib's random.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pseudomode

# runs (command, config) pairs through cli.main in one fresh interpreter and
# prints, as its last line, the modules under the given roots loaded after
# the import and after each run
_PROBE = """
import json, sys
from pseudomode import cli

roots = tuple(json.loads(sys.argv[2]))

def loaded():
    return sorted(m for m in sys.modules
                  if any(m == r or m.startswith(r + ".") for r in roots))

report = [["import", 0, loaded()]]
for k, (command, cfg) in enumerate(json.loads(sys.argv[1])):
    with open(f"cfg{k}.json", "w") as fh:
        json.dump(cfg, fh)
    code = cli.main([command, "--config", f"cfg{k}.json", "--out", "out"])
    report.append([command, code, loaded()])
print(json.dumps(report))
"""

_AIRY = {"operator": "complex-airy"}
_MODE = dict(_AIRY, u=0.0, xi=-1.0, h=0.125)
# shaped like perfbench's fbi workload, at smaller grids
_FBI = {"kappa": [1.0, 0.3], "h_list": [1e-1, 1e-2], "grids": {"nxi": 16},
        "profile_s": [0.0, 0.5, 1.0], "isometry_h": [1e-1],
        "orthogonality": {"operator": "complex-airy", "gap": 0.5,
                          "h_list": [2.0 ** -4, 2.0 ** -5], "xi": -1.0}}


def modules_after(tmp_path, runs, roots=("scipy",)):
    """[(command, exit code, modules under roots)] from a fresh interpreter."""
    src = Path(pseudomode.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(runs),
                           json.dumps(roots)],
                          capture_output=True, text=True, env=env,
                          cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_jwkb_subcommands_load_no_scipy(tmp_path):
    runs = [
        ("region", dict(_AIRY, u={"lo": -1.0, "hi": 1.0, "m": 3},
                        xi={"lo": -1.0, "hi": 1.0, "m": 3})),
        ("mode", dict(_MODE, kind="interior")),
        ("mode", dict(_MODE, kind="gaussian")),
        ("mode", dict(_MODE, kind="rough")),
        ("sweep", dict(_AIRY, rows=[{"u": 0.0, "xi": -1.0}],
                       h_list=[2.0 ** -k for k in range(3, 7)])),
        ("boundary", {"operator": "advection-exit", "z": 0.2, "h": 0.125,
                      "robin": [1.0, 1.0]}),
    ]
    report = modules_after(tmp_path, runs)
    assert [r[0] for r in report] == ["import"] + [c for c, _ in runs]
    for command, code, modules in report:
        assert code == 0, command
        assert modules == [], command


def test_operator_subcommands_leave_out_fft_integrate_ndimage_special(tmp_path):
    runs = [
        ("psgrid", dict(_AIRY, h=0.25, grid={"lo": -1.0, "hi": 1.0, "m": 24},
                        z_re={"lo": 0.2, "hi": 1.2, "m": 2},
                        z_im={"lo": -0.3, "hi": 0.3, "m": 2})),
        ("evolve", dict(_AIRY, h=2.0 ** -5,
                        grid={"lo": -1.0, "hi": 1.0, "m": 60},
                        modes=[{"u": 0.0, "xi": -1.0}])),
    ]
    unused = ("scipy.fft", "scipy.integrate", "scipy.ndimage", "scipy.special")
    for command, code, modules in modules_after(tmp_path, runs)[1:]:
        assert code == 0, command
        assert "scipy.sparse" in modules, command
        assert not [m for m in modules if m.startswith(unused)], command


def test_fbi_loads_no_scipy(tmp_path):
    report = modules_after(tmp_path, [("fbi", _FBI)])
    assert report == [["import", 0, []], ["fbi", 0, []]]


def test_fbi_leaves_out_numpy_ma(tmp_path):
    # a plain np.unique imports numpy.ma (10-17 ms): fbi dedups its panel
    # ends and h values without it
    report = modules_after(tmp_path, [("fbi", _FBI)], roots=["numpy.ma"])
    assert report == [["import", 0, []], ["fbi", 0, []]]


def test_fbi_loads_no_numpy_random(tmp_path):
    # numpy.random alone lifts maxrss by about 5.5 MiB
    report = modules_after(tmp_path, [("fbi", _FBI)],
                           roots=["numpy.random", "hashlib", "secrets"])
    assert report == [["import", 0, []], ["fbi", 0, []]]


def test_cli_import_leaves_out_numpy_fft_and_polynomial():
    src = Path(pseudomode.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = ("import json, sys\nimport pseudomode.cli\n"
             "print(json.dumps(sorted(m for m in sys.modules if m.startswith("
             "('numpy.fft', 'numpy.polynomial')))))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_closure_field_jet_loads_no_scipy():
    # a closure coefficient's jet is one numpy FFT on a circle
    src = Path(pseudomode.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    probe = ("import json, sys\nimport pseudomode as pm\n"
             "cf = pm.CoefficientField(1.0, 0.0, lambda z: 1j * z, (-4.0, 4.0))\n"
             "pm.transport_recursion(cf, 0.0, -1.0, 1)\n"
             "print(json.dumps(['numpy.fft' in sys.modules, sorted("
             "m for m in sys.modules if m.split('.')[0] == 'scipy')]))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [True, []]
