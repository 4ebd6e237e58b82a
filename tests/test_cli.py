import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import elastoq
from elastoq import classical, cli
from elastoq.cli import main


def test_module_entry_point():
    # `python -m elastoq` from a source checkout, with no installed script
    src = Path(elastoq.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "elastoq", "bounds", "--n", "1"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "scheme first-norm" in done.stdout


def _count_coupling_svds(monkeypatch) -> list:
    """Record each call of classical.coupling_singular_values, the SVD of all mode blocks."""
    svd = classical.coupling_singular_values
    calls = []

    def counting(model):
        calls.append(model)
        return svd(model)

    monkeypatch.setattr(classical, "coupling_singular_values", counting)
    return calls


@pytest.mark.parametrize("argv,field", [
    (["bounds", "--rho", "inf"], "rho"),
    (["bounds", "--E", "inf"], "E"),
    (["bounds", "--n", "2", "--h", "inf"], "h"),
    (["run", "--T", "inf", "--dry-run"], "T"),
    (["bounds", "--T", "inf"], "T"),
    (["bounds", "--eps", "inf"], "epsilon"),
    (["certify", "--T", "inf"], "T"),
    (["compare", "--T", "inf"], "T"),
])
def test_nonfinite_input_named(argv, field, capsys):
    assert main(argv) == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ValueError"
    assert re.search(rf"\b{field}\b.* must be a real number in", record["message"])


@pytest.mark.parametrize("argv,field", [
    (["run", "--n", "2", "--h", "-1", "--dry-run"], "h"),
    (["run", "--n", "2", "--rho", "-3", "--nu", "0.7", "--dry-run"], "rho"),
    (["run", "--n", "2", "--E", "0", "--dry-run"], "E"),
    (["run", "--n", "2", "--nu", "0.7", "--dry-run"], "nu"),
])
def test_dry_run_rejects_bad_medium(argv, field, capsys):
    # a dry run refuses what the real run refuses, before printing a plan
    assert main(argv) == 1
    captured = capsys.readouterr()
    record = json.loads(captured.err.strip())
    assert record["error"] == "ValueError"
    assert re.match(rf"{field}\b", record["message"])
    assert captured.out == ""


@pytest.mark.parametrize("config,field", [
    ({"taus": 0.5}, "taus"),
    ({"T": None}, "T"),
    ({"clip": "0.1"}, "clip"),
    ({"out_dir": 5}, "out_dir"),
    ({"taus": [0.5, "x"]}, "taus"),
    ({"h": True}, "h"),
    ({"n": True}, "n"),
    # a file that is no JSON object failed with TypeError or a message about its items
    ([["n", 3]], "config"),
    (5, "config"),
    (None, "config"),
    ("abc", "config"),
    (["n"], "config"),
])
def test_config_value_of_wrong_type_named(config, field, tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg_path), "--dry-run"]) == 1
    captured = capsys.readouterr()
    record = json.loads(captured.err.strip())
    assert record["error"] == "ValueError"
    assert record["message"].startswith(f"{field} ")
    assert captured.out == ""


@pytest.mark.parametrize("text,reason", [
    ('{"n": 3,}', "Expecting property name"),
    ('{"n": 2, "n": 3}', "repeated keys ['n']"),
    ('{"n": 3, "taus": [0.5], "init": "p", "taus": [1.0], "n": 4}', "repeated keys ['n', 'taus']"),
    (None, "No such file"),
], ids=["trailing-comma", "repeated-key", "repeated-keys", "missing-file"])
def test_config_file_text_refused_by_name(text, reason, tmp_path, capsys):
    # text that is no JSON failed as a JSONDecodeError, a missing file as a bare
    # FileNotFoundError, neither naming the config; a repeated key was taken silently
    cfg_path = tmp_path / "config.json"
    if text is not None:
        cfg_path.write_text(text)
    assert main(["run", "--config", str(cfg_path), "--dry-run"]) == 1
    captured = capsys.readouterr()
    record = json.loads(captured.err.strip())
    assert record["error"] == "ValueError"
    assert record["message"].startswith(f"config file {cfg_path}: ")
    assert reason in record["message"]
    assert captured.out == ""


def test_run_bytes_independent_of_blas_threads(tmp_path):
    # the fidelity overlap was a BLAS zdotc, whose sum splits over the BLAS threads:
    # at n = 4 (a state of 65,536 entries) one and two threads wrote different bytes
    src = Path(elastoq.__file__).resolve().parent.parent
    outputs = []
    for threads in ("1", "2"):
        cwd = tmp_path / f"blas{threads}"
        cwd.mkdir()
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads}
        argv = ["run", "--n", "4", "--init", "p", "--T", "2", "--tau", "0.5", "--out", "out"]
        done = subprocess.run([sys.executable, "-m", "elastoq", *argv], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        out = cwd / "out"
        outputs.append({path.relative_to(out): path.read_bytes()
                        for path in out.rglob("*") if path.is_file()})
    assert len(outputs[0]) == 22  # one CSV, twenty field records and the manifest
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("argv", [
    ["bounds", "--n", "1", "--T", "0.05"],
    ["compare", "--n", "1", "--T", "0.25"],
])
def test_model_commands_take_no_run_config(argv, capsys):
    # n = 1 has no run initial state and T is off the default tau grid; neither
    # matters to a command that only builds the model
    assert main(argv) == 0
    assert "scheme first-norm" in capsys.readouterr().out


class TestBounds:
    def test_reports_all_schemes(self, capsys):
        assert main(["bounds", "--n", "5", "--T", "10", "--eps", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "per_step_cnot 11178" in out
        assert "per_step_cnot 22356" in out
        assert "qubits 19" in out
        for scheme in ("first-norm", "first-commutator", "second"):
            assert f"scheme {scheme}" in out

    def test_single_scheme(self, capsys):
        assert main(["bounds", "--n", "2", "--scheme", "first-commutator"]) == 0
        out = capsys.readouterr().out
        assert out.count("scheme ") == 1

    def test_defaults_are_the_run_config_defaults(self, capsys):
        # the model flags default to the ExperimentConfig fields
        assert main(["bounds"]) == 0
        implicit = capsys.readouterr().out
        assert main(["bounds", "--n", "2", "--h", "1.0", "--rho", "1.0", "--E", "0.646",
                     "--nu", "0.255", "--T", "10.0"]) == 0
        assert capsys.readouterr().out == implicit


class TestRun:
    def test_full_run_and_rerun_identical(self, tmp_path, capsys):
        out = tmp_path / "exp"
        argv = ["run", "--n", "2", "--T", "2", "--tau", "0.5", "--tau", "1.0",
                "--out", str(out)]
        assert main(argv) == 0
        first = {p.relative_to(out): p.read_bytes()
                 for p in out.rglob("*") if p.is_file()}
        assert (out / "manifest.json").exists()
        assert (out / "fidelity_tau0.5.csv").exists()
        assert main(argv) == 0
        second = {p.relative_to(out): p.read_bytes()
                  for p in out.rglob("*") if p.is_file()}
        assert first == second

    def test_invalid_tau_rejected_with_record(self, tmp_path, capsys):
        argv = ["run", "--n", "2", "--T", "2", "--tau", "0.3",
                "--out", str(tmp_path / "x")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        record = json.loads(err.strip())
        assert record["error"] == "ValueError"
        assert "0.3" in record["message"]
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("taus", [("0.5", "0.5"), ("0.5", "0.5000000001")])
    def test_repeated_tau_refused(self, taus, tmp_path, capsys):
        # both would write one fidelity_tau0.5.csv; the run used to walk twice
        argv = ["run", "--n", "2", "--T", "1", "--tau", taus[0], "--tau", taus[1],
                "--out", str(tmp_path / "r")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        record = json.loads(captured.err.strip())
        assert record["error"] == "ValueError"
        assert record["message"].startswith("taus ")
        assert captured.out == ""
        assert not (tmp_path / "r").exists()

    def test_dry_run_refuses_repeated_tau(self, tmp_path, capsys):
        argv = ["run", "--n", "2", "--T", "1", "--tau", "0.5", "--tau", "0.5", "--dry-run"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "taus" in json.loads(captured.err.strip())["message"]
        assert captured.out == ""

    def test_dry_run(self, tmp_path, capsys):
        argv = ["run", "--n", "3", "--T", "2", "--tau", "0.5",
                "--out", str(tmp_path / "d"), "--dry-run"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "qubits=13" in out
        assert f"per_step_cnot={432 * 9 + 378}" in out
        assert not (tmp_path / "d").exists()

    def test_dry_run_prints_gate_census(self, capsys):
        # the emitted gates by kind next to the 432n^2 + 378 account, at the paper's n = 5
        assert main(["run", "--n", "5", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert f"per_step_cnot={432 * 25 + 378}" in out
        assert ("u1 program: 906 gates (180 h, 90 s, 90 sdg, 360 cnot, 90 pcrz, "
                "48 v4, 48 v4dg); simulate folds 90 of 90 rotations") in out

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = {"n": 2, "T": 2.0, "taus": [1.0], "E": 1.0, "nu": 0.0,
               "out_dir": str(tmp_path / "from_file")}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        override = tmp_path / "from_flag"
        assert main(["run", "--config", str(cfg_path), "--out", str(override)]) == 0
        assert override.exists()
        assert not Path(cfg["out_dir"]).exists()
        manifest = json.loads((override / "manifest.json").read_text())
        assert manifest["config"]["E"] == 1.0  # from file, not the default

    def test_config_file_unknown_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"bogus": 1}))
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_oracle_flag_refused(self, tmp_path, capsys):
        # the propagator is the only exact reference of a run
        argv = ["run", "--n", "2", "--T", "2", "--tau", "1.0", "--oracle", "dense",
                "--out", str(tmp_path / "o")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--oracle" in capsys.readouterr().err
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"oracle": "dense"}))
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert "oracle" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestCertify:
    def test_certificates_pass(self, capsys):
        argv = ["certify", "--n", "1", "--T", "2", "--tau", "0.25",
                "--eta", "1.0", "--steps", "200"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "certificate power-bound" in out
        assert "certificate local-error" in out
        assert "certificate global-error" in out
        assert "passed False" not in out

    def test_runs_at_n4(self, capsys):
        # the local and global defects are spectral, so no 9 N^3 dense matrix is built
        argv = ["certify", "--n", "4", "--T", "1", "--tau", "0.1", "--steps", "2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.count("certificate ") == 3
        assert out.count("method spectral") == 2
        assert "passed False" not in out

    @pytest.mark.parametrize("steps", ["0", "-5"])
    def test_no_power_bound_steps_refused(self, steps, capsys):
        argv = ["certify", "--n", "1", "--T", "2", "--tau", "0.25", "--steps", steps]
        assert main(argv) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValueError"
        assert "m_max" in record["message"]

    def test_partial_step_refused_before_the_probes_walk(self, monkeypatch, capsys):
        # the whole-steps error used to come after the 1000-step probe walk
        def no_walk(*args, **kwargs):
            raise AssertionError("probes walked")
        monkeypatch.setattr(cli, "power_bound_certificate", no_walk)
        assert main(["certify", "--n", "1", "--T", "2.05", "--tau", "0.1"]) == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ValueError"
        assert "does not divide T=2.05" in record["message"]

    def test_one_coupling_svd_per_certify(self, monkeypatch, capsys):
        # the config holds the singular values; the three certificates read them there
        calls = _count_coupling_svds(monkeypatch)
        argv = ["certify", "--n", "2", "--T", "2", "--tau", "0.1", "--steps", "2"]
        assert main(argv) == 0
        assert capsys.readouterr().out.count("certificate ") == 3
        assert len(calls) == 1

    def test_skipped_certificates_named(self, capsys):
        # tau*||L|| = 1.338 > 1: the spectral certificates do not apply, and the
        # skip is said on stderr, while stdout and the exit code stay the power bound's
        argv = ["certify", "--n", "2", "--T", "1.8", "--tau", "0.9", "--eta", "1.9",
                "--steps", "20"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.count("certificate ") == 1
        assert "certificate power-bound" in captured.out
        warning, = captured.err.splitlines()
        assert warning.startswith("warning: ")
        assert "local-error" in warning and "global-error" in warning
        assert "tau*||L|| <= 1" in warning

    def test_unstable_tau_fails(self, capsys):
        argv = ["certify", "--n", "1", "--T", "2", "--tau", "5.0"]
        assert main(argv) == 1
        assert "stability" in capsys.readouterr().err


class TestCompare:
    def test_report_structure(self, capsys):
        assert main(["compare", "--n", "2", "--T", "5", "--eps", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "fault-tolerance overhead" in out  # exclusions stated up front
        assert "partitioned-leapfrog" in out
        assert "m_cl" in out
        for scheme in ("first-norm", "first-commutator", "second"):
            assert f"scheme {scheme}" in out

    def test_one_coupling_svd_per_compare(self, monkeypatch, capsys):
        calls = _count_coupling_svds(monkeypatch)
        assert main(["compare", "--n", "2", "--T", "10"]) == 0
        assert "partitioned-leapfrog" in capsys.readouterr().out
        assert len(calls) == 1

    @pytest.mark.parametrize("argv", [["compare", "--n", "2", "--T", "1e200"],
                                      ["bounds", "--n", "2", "--T", "1e200"]])
    def test_failing_budget_prints_nothing(self, argv, capsys):
        # compare printed its header and the classical block before the quantum
        # budget failed; every block is now built before any is printed
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        record = json.loads(captured.err.strip())
        assert record["error"] == "ValueError"
        assert re.search(r"\bT\b.*\bepsilon\b", record["message"])


#: The exact stdout of `bounds --n 5 --T 30`, the paper's three bound rows at its n and T:
#: pure float arithmetic, so any change to a bound, order or CNOT account shows here.
PAPER_BOUNDS_N5_T30 = (
    "scheme first-norm\n"
    "n 5\n"
    "h 1.0\n"
    "T 30.0\n"
    "epsilon 0.1\n"
    "rho 1.0\n"
    "E 0.646\n"
    "nu 0.255\n"
    "C 1334.8469387755104\n"
    "p 2\n"
    "m 12013623\n"
    "m_formula 12013622.448979592\n"
    "applicable True\n"
    "qubits 19\n"
    "per_step_cnot 11178\n"
    "total_cnot 134288277894\n"
    "formula_total_cnot 134288271734.69388\n"
    "\n"
    "scheme first-commutator\n"
    "n 5\n"
    "h 1.0\n"
    "T 30.0\n"
    "epsilon 0.1\n"
    "rho 1.0\n"
    "E 0.646\n"
    "nu 0.255\n"
    "C 71.19183673469388\n"
    "p 2\n"
    "m 640727\n"
    "m_formula 640726.5306122449\n"
    "applicable True\n"
    "qubits 19\n"
    "per_step_cnot 11178\n"
    "total_cnot 7162046406\n"
    "formula_total_cnot 7162041159.183673\n"
    "\n"
    "scheme second\n"
    "n 5\n"
    "h 1.0\n"
    "T 30.0\n"
    "epsilon 0.1\n"
    "rho 1.0\n"
    "E 0.646\n"
    "nu 0.255\n"
    "C 1130009623049.1997\n"
    "p 3\n"
    "m 552360932\n"
    "m_formula 552360931.1159542\n"
    "applicable True\n"
    "qubits 19\n"
    "per_step_cnot 22356\n"
    "total_cnot 12348580995792\n"
    "formula_total_cnot 12348580976028.271\n"
)

#: The exact stdout of `run --n 5 --T 2 --tau 0.5 --dry-run`: CNOT account, gate census
#: and step plan of the paper's n = 5 u1 step.
PAPER_DRY_RUN_N5 = (
    "dry run: qubits=19 scheme=u1 per_step_cnot=11178\n"
    "  u1 program: 906 gates (180 h, 90 s, 90 sdg, 360 cnot, 90 pcrz, 48 v4, 48 v4dg); "
    "simulate folds 90 of 90 rotations\n"
    "  tau=0.5: steps=4 total_cnot=44712\n"
)


class TestPaperAccounts:
    def test_bounds_stdout_pinned(self, capsys):
        assert main(["bounds", "--n", "5", "--T", "30"]) == 0
        assert capsys.readouterr().out == PAPER_BOUNDS_N5_T30

    def test_dry_run_stdout_pinned(self, capsys):
        assert main(["run", "--n", "5", "--T", "2", "--tau", "0.5", "--dry-run"]) == 0
        assert capsys.readouterr().out == PAPER_DRY_RUN_N5
