"""Command-line interface: formats, exit codes, and file handling."""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import arstep as a
from arstep.cli import main


def _write_series(tmp_path, values, header=None, name="series.csv"):
    path = tmp_path / name
    lines = [] if header is None else [header]
    lines += ["%r" % float(v) for v in values]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _sample_series(label="I", n=300, seed=0):
    dgp = a.DGPS[label]
    return a.generate(dgp, n, a.replication_seed(seed, dgp, n, 0))


def test_theory_text_for_registry_entry(capsys):
    assert main(["theory", "--dgp", "VII", "--K", "4"]) == 0
    out = capsys.readouterr().out
    assert "minimal orders: one-step=3, 3-step direct=2" in out
    assert "inf" in out
    assert "minimal loss at: (k=2, direct)" in out


def test_theory_model_file_detects_unit_root(capsys, tmp_path):
    model = tmp_path / "model.txt"
    model.write_text("# comment\nlevels = 1.5, -0.5\nsigma2 = 25\n")
    assert main(["theory", "--model", str(model), "--h", "2",
                 "--K", "3"]) == 0
    out = capsys.readouterr().out
    assert "model: unit-root" in out
    model.write_text("levels = 0.5\nsigma2 = 4\n")
    assert main(["theory", "--model", str(model), "--h", "2",
                 "--K", "3"]) == 0
    assert "model: stationary" in capsys.readouterr().out


def test_theory_model_file_unit_root_tolerance(capsys, tmp_path):
    # deflate_unit_root's tolerance on |A(1)| is 1e-9 * (1 + sum |a_i|),
    # about 3e-9 here: A(1) = -1e-9 is a unit root, -1e-8 is not, and
    # its root just inside the unit circle is not stable either.
    model = tmp_path / "model.txt"
    model.write_text("levels = 1.5, -0.499999999\n")
    assert main(["theory", "--model", str(model), "--h", "2",
                 "--K", "3"]) == 0
    assert "model: unit-root" in capsys.readouterr().out
    model.write_text("levels = 1.5, -0.49999999\n")
    assert main(["theory", "--model", str(model), "--h", "2",
                 "--K", "3"]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "UnstableStationaryPart"


def test_theory_model_file_requires_h_and_K(capsys, tmp_path):
    model = tmp_path / "model.txt"
    model.write_text("levels = 1.5, -0.5\n")
    assert main(["theory", "--model", str(model), "--K", "3"]) == 2
    err = capsys.readouterr().err
    record = json.loads(err)
    assert record["error"] == "ValueError"
    assert "--h" in record["message"]


def test_theory_rejects_bad_model_file(capsys, tmp_path):
    model = tmp_path / "model.txt"
    model.write_text("levels = 1.5, -0.5\nshape = 3\n")
    assert main(["theory", "--model", str(model), "--h", "2",
                 "--K", "2"]) == 2
    assert "unknown key" in json.loads(capsys.readouterr().err)["message"]


def test_select_jsonl_structure(capsys, tmp_path):
    path = _write_series(tmp_path, _sample_series(), header="value")
    assert main(["select", "--input", path, "--h", "2", "--K", "5",
                 "--format", "jsonl"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    meta = json.loads(lines[0])["meta"]
    assert meta["procedure"] == "II(B)"
    assert meta["n"] == 300
    assert set(meta["orders"]) == {"first_stage", "direct", "plug_in"}
    assert meta["selected_method"] in (a.PLUG_IN, a.DIRECT)
    records = [json.loads(line) for line in lines[1:]]
    assert len(records) == 15
    stages = [r["stage"] for r in records]
    assert stages.count("final") == 10 and stages.count("first") == 5
    selected = [r for r in records
                if r["stage"] == "final" and r["k"] == meta["selected_k"]
                and r["method"] == meta["selected_method"]]
    assert len(selected) == 1


def test_every_subcommand_meta_carries_versions(capsys, tmp_path):
    import scipy

    path = _write_series(tmp_path, _sample_series())
    versions = {"arstep": a.__version__, "numpy": np.__version__,
                "scipy": scipy.__version__}
    for argv in (["theory", "--dgp", "III"],
                 ["select", "--input", path, "--h", "2", "--K", "3"],
                 ["forecast", "--input", path, "--h", "2", "--k", "2"],
                 ["simulate", "--mode", "frequency", "--dgp", "I",
                  "--n", "100", "--reps", "2", "--seed", "4"],
                 ["simulate", "--mode", "mspe", "--dgp", "X", "--n", "100",
                  "--reps", "10", "--k", "1", "--method", a.DIRECT,
                  "--seed", "4"]):
        assert main(argv + ["--format", "jsonl"]) == 0
        out = capsys.readouterr().out
        meta = json.loads(out.splitlines()[0])["meta"]
        assert meta["versions"] == versions, argv
        if argv[0] == "simulate":
            assert meta["seed"] == 4


def test_select_csv_is_deterministic(capsys, tmp_path):
    path = _write_series(tmp_path, _sample_series())
    argv = ["select", "--input", path, "--h", "2", "--K", "4",
            "--format", "csv"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    lines = first.splitlines()
    comments = [ln for ln in lines if ln.startswith("# ")]
    assert any(ln.startswith("# selected_k=") for ln in comments)
    header = next(ln for ln in lines if not ln.startswith("#"))
    assert header.rstrip() == "stage,k,method,value"


def test_select_sequential_procedure_text(capsys, tmp_path):
    path = _write_series(tmp_path, _sample_series("III", 200, seed=3))
    assert main(["select", "--input", path, "--h", "2", "--K", "4",
                 "--procedure", "I"]) == 0
    out = capsys.readouterr().out
    assert "sequential sums start at i=" in out
    assert "<-- selected" in out
    assert "procedure I" in out


def test_select_custom_penalty_label(capsys, tmp_path):
    path = _write_series(tmp_path, _sample_series())
    assert main(["select", "--input", path, "--h", "2", "--K", "3",
                 "--cn-multiplier", "2.5"]) == 0
    assert "II(C_n=2.5*log(n)/n)" in capsys.readouterr().out


def test_forecast_defaults_to_both_methods(capsys, tmp_path):
    series = _sample_series("X", 120, seed=4)
    path = _write_series(tmp_path, series)
    assert main(["forecast", "--input", path, "--k", "2", "--h", "3",
                 "--format", "jsonl"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    records = [json.loads(line) for line in lines[1:]]
    assert [r["method"] for r in records] == [a.PLUG_IN, a.DIRECT]
    want_plug = a.predict(
        series, a.plug_in_multi(a.fit_one_step(series, 2), 3)).value
    want_direct = a.predict(series, a.fit_direct(series, 2, 3)).value
    assert records[0]["forecast"] == pytest.approx(want_plug, rel=1e-15)
    assert records[1]["forecast"] == pytest.approx(want_direct, rel=1e-15)
    assert all(r["origin"] == 120 for r in records)


def test_forecast_single_method_text(capsys, tmp_path):
    path = _write_series(tmp_path, _sample_series("X", 80))
    assert main(["forecast", "--input", path, "--k", "1", "--h", "2",
                 "--method", a.DIRECT]) == 0
    out = capsys.readouterr().out
    assert "direct" in out and "plug-in" not in out


def test_out_flag_writes_file(capsys, tmp_path):
    path = _write_series(tmp_path, _sample_series())
    dest = tmp_path / "result.jsonl"
    assert main(["select", "--input", path, "--h", "1", "--K", "3",
                 "--format", "jsonl", "--out", str(dest)]) == 0
    assert capsys.readouterr().out == ""
    lines = dest.read_text().strip().splitlines()
    assert json.loads(lines[0])["meta"]["K"] == 3


def test_simulate_frequency_csv(capsys):
    assert main(["simulate", "--mode", "frequency", "--dgp", "I",
                 "--n", "150", "--reps", "5", "--seed", "1",
                 "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")]
    assert data[0].rstrip() == "dgp,n,procedure,order,method,count,frequency"
    counts = [int(row.split(",")[5]) for row in data[1:]]
    assert sum(counts) == 5


def test_simulate_mspe_text(capsys):
    assert main(["simulate", "--mode", "mspe", "--dgp", "X", "--n", "200",
                 "--reps", "50", "--k", "2", "--method", a.PLUG_IN,
                 "--h", "2"]) == 0
    out = capsys.readouterr().out
    assert "mspe=" in out
    assert "sigma_h^2=81.25" in out


def test_simulate_mspe_argument_validation(capsys):
    assert main(["simulate", "--mode", "mspe", "--dgp", "X", "--n", "200",
                 "--reps", "50"]) == 2
    assert "--k" in json.loads(capsys.readouterr().err)["message"]
    assert main(["simulate", "--mode", "mspe", "--dgp", "X", "I",
                 "--n", "200", "--reps", "50", "--k", "1",
                 "--method", a.DIRECT]) == 2
    assert "one --dgp" in json.loads(capsys.readouterr().err)["message"]


def test_missing_input_file_exits_two(capsys):
    assert main(["select", "--input", "/no/such/file.csv", "--h", "1",
                 "--K", "2"]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] in ("FileNotFoundError", "OSError")


def test_non_numeric_data_exits_two(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("value\n1.0\n2.0\noops\n")
    assert main(["select", "--input", str(path), "--h", "1",
                 "--K", "2"]) == 2
    message = json.loads(capsys.readouterr().err)["message"]
    assert "non-numeric" in message and ":4:" in message


def test_non_finite_series_exits_two(capsys, tmp_path):
    values = _sample_series("III", 200)
    values[120] = np.nan
    path = _write_series(tmp_path, values)
    for procedure in (["--cn", "B"], ["--procedure", "I"]):
        assert main(["select", "--input", path, "--h", "2", "--K", "4"]
                    + procedure) == 2
        assert json.loads(capsys.readouterr().err)["error"] == \
            "NonFiniteSeries"


def test_forecast_non_finite_series_exits_two(capsys, tmp_path):
    values = _sample_series("III", 200)
    values[120] = np.nan
    path = _write_series(tmp_path, values)
    assert main(["forecast", "--input", path, "--k", "1", "--h", "1"]) == 2
    captured = capsys.readouterr()
    assert "nan" not in captured.out
    assert json.loads(captured.err)["error"] == "NonFiniteSeries"


def test_degenerate_series_exits_three(capsys, tmp_path):
    path = _write_series(tmp_path, np.zeros(30))
    assert main(["forecast", "--input", path, "--k", "2", "--h", "1"]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "SingularDesign"


def test_bad_usage_exits_two(capsys):
    assert main(["select", "--h", "1", "--K", "2"]) == 2  # missing --input
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_console_script_smoke():
    exe = shutil.which("arstep")
    cmd = [exe] if exe else [sys.executable, "-m", "arstep.cli"]
    proc = subprocess.run(cmd + ["theory", "--dgp", "I", "--K", "3"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "minimal loss at" in proc.stdout
