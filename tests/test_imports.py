"""scipy stays off the import path: fresh interpreters that import
arstep or run the forecast subcommand load no scipy module; the theory
and select subcommands and simulation, which run AR recursions, load
only scipy's compiled filter module, never the scipy.signal package,
and seeded series stay the same.  An APE selection does not import
numpy.ma either, nor does import arstep load multiprocessing."""

import json
import os
import subprocess
import sys
from pathlib import Path

import arstep as a

SRC = str(Path(a.__file__).resolve().parent.parent)

PROBE = """
import json, sys
%s
print(json.dumps(sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))))
"""


def _scipy_modules_after(code):
    """scipy modules loaded by a fresh interpreter after running code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", PROBE % code],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _after_cli(argv):
    return _scipy_modules_after(
        "from arstep.cli import main\n"
        "code = main(%r)\n"
        "assert code == 0, code" % (argv,))


def test_import_loads_no_scipy():
    assert _scipy_modules_after("import arstep") == []


def test_import_loads_no_process_pool():
    # multiprocessing costs 11-15 ms of import; only a parallel frequency
    # table needs it.
    _scipy_modules_after(
        "import arstep\n"
        "assert 'multiprocessing' not in sys.modules\n"
        "assert 'concurrent.futures.process' not in sys.modules")


def test_theory_subcommand_loads_only_the_compiled_filter():
    assert _after_cli(["theory", "--dgp", "IX"]) == ["scipy.signal._sigtools"]


def test_select_loads_only_the_compiled_filter_and_forecast_no_scipy(
        tmp_path):
    dgp = a.DGPS["III"]
    series = a.generate(dgp, 120, a.replication_seed(0, dgp, 120, 0))
    path = tmp_path / "series.csv"
    path.write_text("\n".join(repr(float(v)) for v in series) + "\n")
    assert _after_cli(["select", "--input", str(path), "--h", "2",
                       "--K", "5"]) == ["scipy.signal._sigtools"]
    # A forecast runs no AR recursion.
    assert _after_cli(["forecast", "--input", str(path), "--h", "2",
                       "--k", "3"]) == []


# sha256 of the float64 bytes of generate(DGPS[id], n,
# replication_seed(7, dgp, n, 3)), recorded while generate imported
# scipy.signal at module level.
SEEDED_SERIES = {
    ("IX", 200):
        "31f8ba9db22ae3c2bf6076abd66a646cfff6b68f90b7c6d0e7ebb52c33725927",
    ("V", 64):
        "84131d14b10f8d23208f203810d532df92e1a61459f36f5b3fa867078d5f4f52",
}


def test_generate_loads_the_filter_lazily_and_keeps_its_series():
    # The first generate call in the fresh interpreter loads the filter.
    loaded = _scipy_modules_after(
        "import hashlib\n"
        "import arstep as a\n"
        "assert not any(m.startswith('scipy') for m in sys.modules)\n"
        "for (dgp_id, n), digest in %r.items():\n"
        "    dgp = a.DGPS[dgp_id]\n"
        "    x = a.generate(dgp, n, a.replication_seed(7, dgp, n, 3))\n"
        "    assert x.dtype.str == '<f8'\n"
        "    assert hashlib.sha256(x.tobytes()).hexdigest() == digest"
        % (SEEDED_SERIES,))
    assert loaded == ["scipy.signal._sigtools"]


def test_mspe_estimates_load_only_the_compiled_filter():
    loaded = _scipy_modules_after(
        "import arstep as a\n"
        "a.estimate_mspe(a.DGPS['X'], a.PredictorSpec(2, a.PLUG_IN, 2),\n"
        "                200, 50, seed=3)")
    assert loaded == ["scipy.signal._sigtools"]


def test_parallel_frequency_tables_load_only_the_compiled_filter():
    assert _after_cli(["simulate", "--mode", "frequency", "--dgp", "III",
                       "--n", "120", "--reps", "4", "--seed", "1",
                       "--workers", "2"]) == ["scipy.signal._sigtools"]


def test_ape_selection_does_not_import_numpy_ma():
    # numpy.ma costs about 13 ms of import, and np.unique (behind
    # np.union1d) imports it.
    _scipy_modules_after(
        "import arstep as a\n"
        "dgp = a.DGPS['IX']\n"
        "x = a.generate(dgp, 300, a.replication_seed(0, dgp, 300, 0))\n"
        "a.select_by_ape(x, dgp.horizon, dgp.max_order)\n"
        "assert 'numpy.ma' not in sys.modules")
