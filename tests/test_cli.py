import io
import json
import math
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from tempfile import TemporaryDirectory
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosehub import circuit as qc
from bosehub import cli, neural
from bosehub import readout as ro
from bosehub.variational import DAMPING, MIN_DAMPING


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_basis_command(tmp_path, capsys):
    out = tmp_path / "basis.csv"
    code, stdout, _ = run(capsys, "basis", "--kind", "reduced",
                          "--out", str(out))
    assert code == 0
    assert "classes=26" in stdout and "states=252" in stdout
    assert len(out.read_text().strip().splitlines()) == 27


def test_exact_table1(capsys):
    code, stdout, _ = run(capsys, "exact", "--t", "1", "--U", "2")
    assert code == 0
    assert stdout.splitlines()[0] == "-7.54752"


def test_exact_t_zero(capsys):
    code, stdout, _ = run(capsys, "exact", "--t", "0", "--U", "5")
    assert code == 0
    assert stdout.splitlines()[0] == "0.00000"


def test_exact_translation_basis(capsys):
    code, stdout, _ = run(capsys, "exact", "--U", "5", "--basis",
                          "translation")
    assert code == 0
    assert stdout.splitlines()[0] == "-5.46241"


def test_exact_deformed(capsys):
    code, stdout, _ = run(capsys, "exact", "--t", "1", "--U", "5",
                          "--phi", "1.5707963267948966", "--basis", "reduced")
    assert code == 0
    assert stdout.splitlines()[0] == "-4.65903"


def test_exact_refuses_the_deformed_model_in_the_full_basis(tmp_path,
                                                          capsys):
    code, stdout, err = run(capsys, "exact", "--basis", "full", "--U", "5",
                            "--phi", "1", "--out-prefix",
                            str(tmp_path / "deformed"))
    assert code == 1 and stdout == ""
    assert err == "error: the deformed model lives in the reduced basis\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["exact", "train"])
def test_the_deformed_model_is_refused_before_its_basis_is_built(
        command, capsys, monkeypatch):
    # the 12/10 full basis and its dense Hamiltonian would need 927 GiB;
    # the basis rule refuses the flags before any size is counted
    def enumerate_fock(sites, bosons):
        raise RuntimeError(f"enumerated {sites}/{bosons}")

    monkeypatch.setattr(cli.basis_mod, "enumerate_fock", enumerate_fock)
    code, stdout, err = run(capsys, command, *(
        ("--ansatz", "quat") if command == "train" else ()),
        "--sites", "12", "--bosons", "10", "--basis", "full", "--phi", "1",
        "--U", "5")
    assert (code, stdout) == (1, "")
    assert err == "error: the deformed model lives in the reduced basis\n"


def test_exact_deformed_needs_no_basis_flag(capsys):
    # the reduced basis is the default, and the deformed model lives there
    code, stdout, _ = run(capsys, "exact", "--t", "1", "--U", "5",
                          "--phi", "1.5707963267948966")
    assert code == 0
    assert stdout.splitlines()[0] == "-4.65903"


def test_exact_defaults_to_the_reduced_basis(tmp_path, capsys):
    prefix = tmp_path / "run"
    code, _, _ = run(capsys, "exact", "--U", "5", "--out-prefix", str(prefix))
    assert code == 0
    # header plus one row per symmetry class: 26 at 6 sites, 5 bosons
    assert len((tmp_path / "run_ground.csv").read_text().splitlines()) == 27


@pytest.mark.parametrize("argv", [
    ["exact", "--sites", "16", "--bosons", "16", "--U", "5"],
    ["exact", "--sites", "14", "--bosons", "14", "--U", "5", "--basis",
     "full"],
    ["train", "--ansatz", "nn", "--sites", "16", "--bosons", "16", "--U",
     "5"],
    ["basis", "--sites", "30", "--bosons", "30"],
])
def test_oversized_basis_fails_before_enumerating(argv, capsys):
    import tracemalloc

    tracemalloc.start()
    try:
        code, _, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert "Traceback" not in err
    sites, bosons = argv[argv.index("--sites") + 1], argv[
        argv.index("--bosons") + 1]
    assert f"--sites {sites} --bosons {bosons}" in err
    assert "GiB" in err and "physical memory" in err
    assert peak < 1e6


def test_size_check_lets_12_sites_10_bosons_through(monkeypatch):
    # 14,938 classes: a 1.78 GB matrix, which the check must not refuse
    built = []
    monkeypatch.setattr(cli.basis_mod, "reduced_basis",
                        lambda *args: built.append(args))
    args = cli._build_parser(command="exact").parse_args(
        ["exact", "--sites", "12", "--bosons", "10", "--U", "5"])
    cli._basis(args, args.basis)
    assert built == [(12, 10, cli.basis_mod.BasisKind.REDUCED)]


def test_exact_writes_artifacts(tmp_path, capsys):
    prefix = tmp_path / "run"
    code, _, _ = run(capsys, "exact", "--U", "5", "--basis", "reduced",
                     "--out-prefix", str(prefix), "--dump-matrix")
    assert code == 0
    assert (tmp_path / "run_ground.csv").exists()
    assert (tmp_path / "run_matrix.txt").exists()


def test_exact_dump_matrix_needs_out_prefix(capsys, monkeypatch):
    # fails before any solve, instead of exiting 0 with nothing written
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking the flags")

    monkeypatch.setattr(cli, "ground_state", no_solve)
    code, _, err = run(capsys, "exact", "--U", "5", "--dump-matrix")
    assert code == 1
    assert "missing required option --out-prefix" in err


@pytest.mark.parametrize("command", [["basis"], ["exact", "--U", "5"]])
def test_seed_flag_only_where_it_acts(command, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--seed", "3"])
    assert exc.value.code == 2
    # a config file's seed key is still accepted, and ignored
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3}))
    code, _, _ = run(capsys, "--config", str(cfg), *command)
    assert code == 0


def test_train_writes_artifacts_and_is_deterministic(tmp_path, capsys):
    out = tmp_path / "artifacts"
    argv = ["train", "--ansatz", "quat", "--layers", "2", "--U", "5",
            "--steps", "40", "--seed", "1", "--out-dir", str(out)]
    code, stdout, _ = run(capsys, *argv)
    assert code == 0
    ckpt = out / "quat_U5_checkpoint.json"
    trace = out / "quat_U5_trace.csv"
    summary = out / "quat_U5_summary.json"
    assert ckpt.exists() and trace.exists() and summary.exists()

    doc = json.loads(summary.read_text())
    assert doc["command"] == "train"
    assert doc["config"]["steps"] == 40
    assert doc["results"]["exact_energy"] == pytest.approx(-5.46241, abs=1e-5)
    assert f"{doc['results']['final_energy']:.5f}" == stdout.splitlines()[0]

    first = (ckpt.read_bytes(), trace.read_bytes(), summary.read_bytes())
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert (ckpt.read_bytes(), trace.read_bytes(),
            summary.read_bytes()) == first


@pytest.mark.parametrize("steps,stopped_on", [("1200", "certificate"),
                                              ("40", "step cap")])
def test_train_summary_carries_the_certificate(steps, stopped_on, tmp_path,
                                               capsys):
    out = tmp_path / "artifacts"
    code, _, _ = run(capsys, "train", "--ansatz", "quat", "--U", "5",
                     "--steps", steps, "--out-dir", str(out))
    assert code == 0
    results = json.loads((out / "quat_U5_summary.json").read_text())[
        "results"]
    taken = results["steps_taken"]
    assert results["stopped_on"] == stopped_on
    assert (taken < 1200) if stopped_on == "certificate" else taken == 40
    # a header and the energy before each step plus the final one
    trace = (out / "quat_U5_trace.csv").read_text().splitlines()
    assert len(trace) == 1 + taken + 1
    energy, lower = results["final_energy"], results["temple_lower_bound"]
    assert results["energy_variance"] > 0.0
    # ell is the first excited energy of the 26 classes at U=5
    assert results["excited_lower"] == pytest.approx(-0.46195235, abs=1e-8)
    assert lower <= results["exact_energy"] <= energy
    if stopped_on == "certificate":
        assert energy - lower <= 1e-5


def test_train_summary_records_the_rate_and_the_bound(tmp_path, capsys):
    out = tmp_path / "artifacts"
    code, _, _ = run(capsys, "train", "--ansatz", "quat", "--U", "5",
                     "--steps", "3", "--out-dir", str(out))
    assert code == 0
    doc = json.loads((out / "quat_U5_summary.json").read_text())
    results = doc["results"]
    # Gershgorin's bound at U=5 is the row of five bosons on one site: its
    # interaction energy 50 plus its one hop, sqrt(10), in the 26 classes
    upper = results["energy_upper_bound"]
    assert upper == pytest.approx(50.0 + math.sqrt(10.0), abs=1e-12)
    # the damping of the last step never exceeds its cap
    assert 0.0 < results["damping"] <= DAMPING
    assert results["learning_rate"] == 1.8 / (upper - results["exact_energy"])


def test_train_on_a_spectrum_of_zero_width(tmp_path, capsys):
    # t = 0 and U = 0 give the zero matrix: G = E0 = 0, every state is a
    # ground state, sigma = 0, and the run certifies at its first iterate
    out = tmp_path / "artifacts"
    for ansatz in ("quat", "nn"):
        code, stdout, err = run(capsys, "train", "--ansatz", ansatz, "--t",
                                "0", "--U", "0", "--out-dir", str(out))
        assert (code, err) == (0, "")
        assert stdout.splitlines()[0] == "0.00000"
        results = json.loads(
            (out / f"{ansatz}_U0_summary.json").read_text())["results"]
        assert results["energy_upper_bound"] == 0.0
        assert math.isfinite(results["learning_rate"])
        assert results["learning_rate"] > 0.0
        assert results["stopped_on"] == "certificate"
        # its one step took the least damping instead of a singular solve
        assert 0.0 < results["damping"] == MIN_DAMPING


def test_train_compressed_rejects_feature_count(tmp_path, capsys):
    # 4 sites give 4 occupation features, which the compressed circuit
    # cannot group into Euler triples
    out = tmp_path / "artifacts"
    code, _, err = run(capsys, "train", "--ansatz", "compressed", "--sites",
                       "4", "--bosons", "3", "--U", "2", "--out-dir", str(out))
    assert code == 1
    assert "feature count divisible by 3, got 4" in err
    assert not out.exists()


def test_train_rejects_negative_layers(tmp_path, capsys):
    out = tmp_path / "artifacts"
    code, _, err = run(capsys, "train", "--ansatz", "quat", "--layers", "-1",
                       "--U", "2", "--out-dir", str(out))
    assert code == 1
    assert "--layers must be an integer >= 0, got -1" in err
    assert not out.exists()


def test_layers_is_a_circuit_flag(tmp_path, capsys):
    out = tmp_path / "artifacts"
    code, stdout, err = run(capsys, "train", "--ansatz", "nn", "--layers",
                            "3", "--U", "2", "--out-dir", str(out))
    assert code == 1 and stdout == ""
    assert err == ("error: --layers sets a circuit's layer count; "
                   "--ansatz nn has no layers\n")
    assert not out.exists()
    # a circuit without the flag has the default six layers
    code, _, _ = run(capsys, "train", "--ansatz", "quat", "--U", "5",
                     "--steps", "2", "--out-dir", str(out))
    assert code == 0
    doc = json.loads((out / "quat_U5_summary.json").read_text())
    assert doc["config"]["layers"] == 6
    # study layers takes its layer counts from --layer-grid alone
    with pytest.raises(SystemExit) as exc:
        cli.main(["study", "layers", "--ansatz", "quat", "--U", "5",
                  "--layers", "3"])
    assert exc.value.code == 2
    assert "--layers" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "study layers"])
def test_training_commands_take_no_learning_rate(command, tmp_path, capsys):
    # eta comes from the spectrum alone; a rate on the command line is an
    # unknown flag
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main([*command.split(), "--ansatz", "quat", "--U", "5",
                  "--steps", "2", "--lr", "0.02",
                  "--out-dir" if command == "train" else "--out", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: unrecognized arguments: --lr 0.02" in captured.err
    assert not out.exists()


def test_train_nn(tmp_path, capsys):
    code, stdout, _ = run(capsys, "train", "--ansatz", "nn", "--U", "2",
                          "--steps", "200", "--out-dir", str(tmp_path))
    assert code == 0
    assert (tmp_path / "nn_U2_checkpoint.json").exists()
    assert float(stdout.splitlines()[0]) < -7.3


@pytest.mark.parametrize("ansatz", ["nn", "quat"])
def test_train_on_raw_features(ansatz, tmp_path, capsys):
    checkpoints = []
    for flags in ([], ["--raw-features"]):
        out = tmp_path / ("raw" if flags else "default")
        code, stdout, err = run(capsys, "train", "--ansatz", ansatz,
                                "--U", "5", "--steps", "20", "--seed", "2",
                                "--out-dir", str(out), *flags)
        assert (code, err) == (0, "")
        results = json.loads((out / f"{ansatz}_U5_summary.json").read_text())[
            "results"]
        assert stdout.splitlines()[0] == f"{results['final_energy']:.5f}"
        assert results["final_energy"] >= results["exact_energy"]
        checkpoints.append((out / f"{ansatz}_U5_checkpoint.json").read_bytes())
    assert checkpoints[0] != checkpoints[1]


def test_study_layers(tmp_path, capsys):
    out = tmp_path / "layers.csv"
    code, stdout, _ = run(capsys, "study", "layers", "--ansatz", "quat",
                          "--U", "5", "--layer-grid", "0,1", "--steps", "30",
                          "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "layers,energy"
    assert len(lines) == 3


def test_study_shots_needs_checkpoint(tmp_path, capsys):
    code, _, err = run(capsys, "study", "shots", "--checkpoint",
                       str(tmp_path / "missing.json"), "--U", "5")
    assert code == 1
    assert "error" in err.lower() or err


def test_study_shots(tmp_path, capsys):
    run(capsys, "train", "--ansatz", "compressed", "--layers", "2", "--U", "5",
        "--steps", "60", "--out-dir", str(tmp_path))
    ckpt = tmp_path / "compressed_U5_checkpoint.json"
    out = tmp_path / "shots.csv"
    code, stdout, _ = run(capsys, "study", "shots", "--checkpoint", str(ckpt),
                          "--U", "5", "--grid", "100,1000", "--trials", "10",
                          "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "shots,median_frac_dev,std"
    assert len(lines) == 3


@pytest.mark.parametrize("flags,message", [
    (["--grid", "0,100"], "shots must be >= 1"),
    (["--grid", "100,-5"], "shots must be >= 1"),
    (["--trials", "0"], "--trials must be an integer >= 1, got 0"),
    # t = U = 0: every energy is 0, so no fractional deviation exists
    (["--t", "0", "--U", "0"], "ideal energy is 0, so |dE/E| is undefined"),
])
def test_study_shots_rejects_bad_counts(flags, message, tmp_path, capsys):
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(qc.to_json(qc.CircuitParams("compressed", 1,
                                                np.zeros(7))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no nan from an empty mean
        code, stdout, err = run(capsys, "study", "shots", "--checkpoint",
                                str(ckpt), "--U", "5", *flags)
    assert code == 1 and stdout == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("grid,message", [
    ("", "--grid must be comma-separated integers, got ''"),
    ("100,abc", "--grid must be comma-separated integers, got '100,abc'"),
    ("100,100", "--grid repeats a value: '100,100'"),
])
def test_study_shots_rejects_a_bad_grid(grid, message, tmp_path, capsys):
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(qc.to_json(qc.CircuitParams("compressed", 1,
                                                np.zeros(7))))
    out = tmp_path / "shots.csv"
    code, stdout, err = run(capsys, "study", "shots", "--checkpoint",
                            str(ckpt), "--U", "5", "--grid", grid,
                            "--out", str(out))
    assert code == 1 and stdout == ""
    assert err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("grid,message", [
    ("3,3", "--layer-grid repeats a value: '3,3'"),
    ("2,x", "--layer-grid must be comma-separated integers, got '2,x'"),
    ("1,-1", "layer count must be >= 0"),
])
def test_study_layers_rejects_a_bad_grid(grid, message, tmp_path, capsys):
    out = tmp_path / "layers.csv"
    code, stdout, err = run(capsys, "study", "layers", "--ansatz", "quat",
                            "--U", "5", "--layer-grid", grid, "--steps", "2",
                            "--out", str(out))
    assert code == 1 and stdout == ""
    assert err == f"error: {message}\n"
    assert not out.exists()


def test_study_shots_is_the_same_at_one_and_two_blas_threads(tmp_path):
    # the trials' Rayleigh quotients are one matrix product, so BLAS runs them
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(qc.to_json(qc.init_params("compressed", 6, 3, scale=1.0)))
    src = str(Path(__file__).resolve().parents[1] / "src")
    csvs = []
    for threads in ("1", "2"):
        out = tmp_path / f"shots_{threads}.csv"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-m", "bosehub.cli", "study", "shots",
                        "--checkpoint", str(ckpt), "--U", "5", "--grid",
                        "1,100,20000", "--trials", "1100", "--seed", "2",
                        "--out", str(out)], env=env, check=True,
                       capture_output=True)
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]
    assert len(csvs[0].splitlines()) == 4


def test_training_is_the_same_at_one_and_two_blas_threads(tmp_path):
    # the circuit angles are one matrix product over all rows, and the
    # Jacobians and a population's network pass go through BLAS too: each
    # dot product must come out the same whether one thread or two compute it
    src = str(Path(__file__).resolve().parents[1] / "src")
    commands = [["--ansatz", "nn", "--U", "2"],
                ["--ansatz", "quat", "--U", "5"],
                ["--ansatz", "compressed", "--U", "8", "--restarts", "2"],
                ["--ansatz", "nn", "--U", "5", "--complex", "--restarts", "2"]]
    script = ("import json, sys\n"
              "from bosehub.cli import main\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    assert main(argv) == 0\n")
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}"
        argvs = [["train", *flags, "--steps", "60", "--out-dir", str(out)]
                 for flags in commands]
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                       env=env, check=True, capture_output=True)
        outputs.append({path.name: path.read_bytes()
                        for path in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]
    # a checkpoint, a trace and a summary per command
    assert len(outputs[0]) == 12


@pytest.mark.parametrize("missing_first", [False, True],
                         ids=["missing second", "missing first"])
def test_study_noise_reads_every_checkpoint_first(missing_first, tmp_path,
                                                  capsys):
    good = tmp_path / "good.json"
    good.write_text(qc.to_json(qc.init_params("compressed", 2, 0)))
    missing = tmp_path / "missing.json"
    paths = [missing, good] if missing_first else [good, missing]
    out, cal = tmp_path / "noise.csv", tmp_path / "cal.csv"
    # neither the device nor the basis may be built before the check
    with mock.patch.object(cli, "_noise_device", side_effect=AssertionError(
            "built the device")), mock.patch.object(
            cli, "_basis", side_effect=AssertionError("built the basis")):
        code, stdout, err = run(capsys, "study", "noise", "--checkpoint",
                                *map(str, paths), "--U", "2,5", "--trials",
                                "25", "--out", str(out),
                                "--calibration-out", str(cal))
    assert code == 1 and stdout == ""
    assert err == (f"error: --checkpoint {missing}: cannot read it "
                   f"(No such file or directory)\n")
    assert not out.exists() and not cal.exists()


@pytest.mark.parametrize("content,reason", [
    (None, "cannot read it (No such file or directory)"),
    ("[]", "not a circuit parameter document"),
    ("{", "not JSON (Expecting property name enclosed in double quotes: "
          "line 1 column 2 (char 1))"),
    ("mlp", "not a circuit parameter document"),
    ('{"format": "bosehub-circuit", "version": 1}', "no 'kind' field"),
], ids=["missing", "a list", "not JSON", "a network", "no kind"])
@pytest.mark.parametrize("command", [
    ["study", "shots", "--grid", "100", "--trials", "2"], ["noise-run"]],
    ids=["study shots", "noise-run"])
def test_a_bad_checkpoint_fails_before_any_work(command, content, reason,
                                                tmp_path, capsys):
    path = tmp_path / "ckpt.json"
    if content == "mlp":
        content = neural.to_json(neural.MlpParams.initialize())
    if content is not None:
        path.write_text(content)
    out = tmp_path / "out.csv"
    argv = [*command, "--checkpoint", str(path), "--U", "5"]
    if command[0] == "study":
        argv += ["--out", str(out)]
    with mock.patch.object(cli, "_noise_device", side_effect=AssertionError(
            "built the device")), mock.patch.object(
            cli, "_basis", side_effect=AssertionError("built the basis")):
        code, stdout, err = run(capsys, *argv)
    assert code == 1 and stdout == ""
    assert err == f"error: --checkpoint {path}: {reason}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["study", "shots", "--out", "out.csv"],
    ["study", "noise", "--out", "out.csv", "--calibration-out", "cal.csv"],
    ["noise-run"]], ids=["study shots", "study noise", "noise-run"])
def test_a_checkpoint_of_other_features_than_sites_fails_before_any_work(
        command, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "ckpt.json"
    path.write_text(qc.to_json(qc.init_params("compressed", 2, 0)))
    with mock.patch.object(cli, "_noise_device", side_effect=AssertionError(
            "built the device")), mock.patch.object(
            cli, "_basis", side_effect=AssertionError("built the basis")):
        code, stdout, err = run(capsys, *command, "--checkpoint", str(path),
                                "--U", "5", "--sites", "9", "--bosons", "2")
    assert code == 1 and stdout == ""
    assert err == (f"error: --checkpoint {path}: a circuit of 6 features, "
                   "but --sites is 9\n")
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]


def test_study_noise_rejects_zero_trials(tmp_path, capsys):
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(qc.to_json(qc.CircuitParams("compressed", 1,
                                                np.zeros(7))))
    out, cal = tmp_path / "noise.csv", tmp_path / "cal.csv"
    code, stdout, err = run(capsys, "study", "noise", "--checkpoint",
                            str(ckpt), "--U", "5", "--trials", "0",
                            "--out", str(out), "--calibration-out", str(cal))
    assert code == 1 and stdout == ""
    assert err == "error: --trials must be an integer >= 1, got 0\n"
    assert not out.exists() and not cal.exists()


@pytest.mark.parametrize("command", [
    ["noise-run", "--mode", "uncorrected"],
    ["study", "noise", "--modes", "uncorrected"]],
    ids=["noise-run", "study noise"])
def test_a_one_shot_uncorrected_run_inverts_nothing(command, tmp_path,
                                                    capsys):
    # a one-shot calibration is singular on most qubits, but uncorrected
    # reads no inverse
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(qc.to_json(qc.CircuitParams("compressed", 1,
                                                np.zeros(7))))
    code, stdout, err = run(capsys, *command, "--checkpoint", str(ckpt),
                            "--U", "5", "--shots", "1")
    assert (code, err) == (0, "")
    energy = stdout.split("energy=")[-1].split()[0]  # either command's form
    assert math.isfinite(float(energy))


@pytest.mark.parametrize("command,shots,qubit", [
    (["noise-run", "--mode", "corrected"], 2, 77),
    (["noise-run", "--mode", "postselected"], 2, 77),
    (["study", "noise", "--modes", "uncorrected"], 3, 13)],
    ids=["noise-run corrected", "noise-run postselected",
         "study noise calibration-out"])
def test_a_singular_calibration_is_refused_before_it_is_read(
        command, shots, qubit, tmp_path, capsys):
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(qc.to_json(qc.CircuitParams("compressed", 1,
                                                np.zeros(7))))
    cal = tmp_path / "cal.csv"
    if command[0] == "study":  # the report is built before the first trial
        command = command + ["--calibration-out", str(cal)]
    code, stdout, err = run(capsys, *command, "--checkpoint", str(ckpt),
                            "--U", "5", "--shots", str(shots))
    assert code == 1 and stdout == ""
    assert err == (f"error: calibration with {shots} shots leaves qubit "
                   f"{qubit} with p00 + p11 <= 1, so its readout cannot be "
                   "inverted; calibrate with more shots\n")
    assert not cal.exists()


@pytest.mark.parametrize("low,high", [
    ("0.05", "0.01"), ("0.3", "0.6"), ("-0.01", "0.05"), ("0.01", "0.5"),
    ("nan", "0.05")])
@pytest.mark.parametrize("command", ["study noise", "noise-run"])
def test_readout_commands_check_the_error_range(command, low, high, tmp_path,
                                                capsys):
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(qc.to_json(qc.CircuitParams("compressed", 1,
                                                np.zeros(7))))
    argv = [*command.split(), "--checkpoint", str(ckpt), "--U", "5",
            "--error-min", low, "--error-max", high]
    if command == "study noise":
        argv += ["--out", str(tmp_path / "noise.csv"),
                 "--calibration-out", str(tmp_path / "cal.csv")]
    code, stdout, err = run(capsys, *argv)
    assert code == 1 and stdout == ""
    assert err == (f"error: --error-min and --error-max need 0 <= "
                   f"--error-min <= --error-max < 0.5, got {float(low)!r} "
                   f"and {float(high)!r}\n")
    assert not list(tmp_path.glob("*.csv"))


def test_study_noise_and_noise_run(tmp_path, capsys):
    run(capsys, "train", "--ansatz", "compressed", "--layers", "2", "--U", "5",
        "--steps", "60", "--out-dir", str(tmp_path))
    ckpt = tmp_path / "compressed_U5_checkpoint.json"
    out = tmp_path / "noise.csv"
    cal = tmp_path / "cal.csv"
    code, stdout, _ = run(capsys, "study", "noise", "--checkpoint", str(ckpt),
                          "--U", "5", "--shots", "500", "--trials", "2",
                          "--modes", "uncorrected,corrected",
                          "--out", str(out), "--calibration-out", str(cal))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "run,mode,U,energy,ideal_energy"
    assert len(lines) == 5  # 2 trials x 2 modes
    cal_lines = cal.read_text().strip().splitlines()
    assert len(cal_lines) == 126
    # one postselected qubit per coefficient group
    assert sum(int(line.split(",")[-1]) for line in cal_lines[1:]) == 25

    code, stdout, _ = run(capsys, "noise-run", "--checkpoint", str(ckpt),
                          "--U", "5", "--mode", "corrected", "--shots", "500")
    assert code == 0
    float(stdout.splitlines()[0])  # a bare 5-decimal energy


def test_noise_commands_size_the_layout_by_the_basis(tmp_path, capsys):
    # 6 sites, 4 bosons: 16 classes, so 15 measured coefficients
    run(capsys, "train", "--ansatz", "compressed", "--layers", "2", "--U", "5",
        "--sites", "6", "--bosons", "4", "--steps", "30",
        "--out-dir", str(tmp_path))
    ckpt = str(tmp_path / "compressed_U5_checkpoint.json")
    out, cal = tmp_path / "noise.csv", tmp_path / "cal.csv"
    code, _, err = run(capsys, "study", "noise", "--checkpoint", ckpt,
                       "--U", "5", "--sites", "6", "--bosons", "4",
                       "--shots", "500", "--out", str(out),
                       "--calibration-out", str(cal))
    assert (code, err) == (0, "")
    assert len(out.read_text().splitlines()) == 4  # header + 3 modes
    cal_lines = cal.read_text().splitlines()
    assert len(cal_lines) == 126
    assert sum(int(line.split(",")[-1]) for line in cal_lines[1:]) == 15
    code, stdout, err = run(capsys, "noise-run", "--checkpoint", ckpt,
                            "--U", "5", "--sites", "6", "--bosons", "4",
                            "--shots", "500", "--qubits", "75")
    assert (code, err) == (0, "")
    float(stdout)


@pytest.mark.parametrize("flags,message", [
    (["--qubits", "10"],
     "--qubits must be >= 125 for 25 coefficients x 5 replicas, got 10"),
    (["--sites", "2", "--bosons", "1"],
     "a noisy readout needs 2 or more basis classes, since one is pinned"),
])
@pytest.mark.parametrize("command", ["study noise", "noise-run"])
def test_noise_commands_check_the_device_holds_the_layout(command, flags,
                                                          message, tmp_path,
                                                          capsys):
    # a circuit of --sites features, so that the checkpoint fits the model
    sites = int(flags[flags.index("--sites") + 1]) if "--sites" in flags else 6
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(qc.to_json(qc.init_params("quat", 1, 0,
                                              n_features=sites)))
    argv = [*command.split(), "--checkpoint", str(ckpt), "--U", "5", *flags]
    if command == "study noise":
        argv += ["--out", str(tmp_path / "noise.csv")]
    code, stdout, err = run(capsys, *argv)
    assert code == 1 and stdout == ""
    assert err == f"error: {message}\n"
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("flags,message", [
    (["--U", "2,,5"], "--U must be comma-separated numbers, got '2,,5'"),
    (["--U", "5,5"], "--U repeats a value: '5,5'"),
    (["--U", "5", "--modes", "bogus"],
     "--modes must be comma-separated modes of uncorrected, corrected, "
     "postselected, postselected-corrected, got 'bogus'"),
])
def test_study_noise_lists_name_their_option(flags, message, tmp_path,
                                             capsys):
    ckpt = str(tmp_path / "ckpt.json")
    Path(ckpt).write_text(qc.to_json(qc.CircuitParams("compressed", 1,
                                                      np.zeros(7))))
    code, stdout, err = run(capsys, "study", "noise", "--checkpoint", ckpt,
                            *flags)
    assert code == 1 and stdout == ""
    assert err == f"error: {message}\n"


def test_study_noise_checkpoint_count_mismatch(tmp_path, capsys):
    run(capsys, "train", "--ansatz", "compressed", "--layers", "2", "--U", "5",
        "--steps", "30", "--out-dir", str(tmp_path))
    ckpt = tmp_path / "compressed_U5_checkpoint.json"
    code, _, err = run(capsys, "study", "noise", "--checkpoint", str(ckpt),
                       "--U", "2,5")
    assert code == 1


def test_study_noise_deterministic(tmp_path, capsys):
    run(capsys, "train", "--ansatz", "quat", "--layers", "2", "--U", "5",
        "--steps", "30", "--out-dir", str(tmp_path))
    ckpt = tmp_path / "quat_U5_checkpoint.json"
    outs = []
    for attempt in ("a", "b"):
        out = tmp_path / f"noise_{attempt}.csv"
        code, _, _ = run(capsys, "study", "noise", "--checkpoint", str(ckpt),
                         "--U", "5", "--shots", "300", "--trials", "3",
                         "--out", str(out))
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_study_noise_evaluates_the_ideal_circuit_once_per_u(tmp_path, capsys,
                                                            monkeypatch):
    from bosehub import _kernels

    run(capsys, "train", "--ansatz", "quat", "--layers", "2", "--U", "5",
        "--steps", "30", "--out-dir", str(tmp_path))
    ckpt = str(tmp_path / "quat_U5_checkpoint.json")
    calls = []
    kernel = _kernels.circuit_batch

    def spy(*args, **kwargs):
        calls.append(args[0])
        return kernel(*args, **kwargs)

    monkeypatch.setattr(_kernels, "circuit_batch", spy)
    code, _, _ = run(capsys, "study", "noise", "--checkpoint", ckpt, ckpt,
                     "--U", "2,5", "--shots", "300", "--trials", "4")
    assert code == 0
    # one evaluation per U, shared by its four trials
    assert calls == ["quat", "quat"]


def test_study_noise_rejects_threads_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["study", "noise", "--checkpoint", str(tmp_path / "c.json"),
                  "--U", "5", "--threads", "2"])
    assert exc.value.code == 2


def test_check_flag(capsys):
    code, stdout, _ = run(capsys, "--check")
    assert code == 0
    assert "[PASS] full vs reduced ground energy (U=2)" in stdout
    assert "FAIL" not in stdout


def test_seed_env_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BOSEHUB_SEED", "17")
    out = tmp_path / "s"
    code, _, _ = run(capsys, "train", "--ansatz", "quat", "--layers", "1",
                     "--U", "5", "--steps", "5", "--out-dir", str(out))
    assert code == 0
    doc = json.loads((out / "quat_U5_summary.json").read_text())
    assert doc["config"]["seed"] == 17


def test_no_command_prints_help(capsys):
    code, stdout, _ = run(capsys)
    assert code == 2
    assert "usage" in stdout.lower()


def test_config_file_defaults_overridable_by_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"U": 5.0, "steps": 8, "ansatz": "quat",
                               "layers": 1}))
    out = tmp_path / "from_config"
    code, _, _ = run(capsys, "--config", str(cfg), "train",
                     "--out-dir", str(out))
    assert code == 0
    doc = json.loads((out / "quat_U5_summary.json").read_text())
    assert doc["config"]["steps"] == 8
    assert doc["config"]["U"] == 5.0

    # explicit flag beats the config value
    code, _, _ = run(capsys, "--config", str(cfg), "train", "--steps", "4",
                     "--out-dir", str(out))
    assert code == 0
    doc = json.loads((out / "quat_U5_summary.json").read_text())
    assert doc["config"]["steps"] == 4


def test_missing_required_option_errors(capsys):
    code, _, err = run(capsys, "exact")
    assert code == 1
    assert "--U" in err


def _trained_seed(capsys, out):
    code, _, _ = run(capsys, "train", "--ansatz", "quat", "--layers", "1",
                     "--U", "5", "--steps", "2", "--out-dir", str(out))
    assert code == 0
    return json.loads((out / "quat_U5_summary.json").read_text())["config"][
        "seed"]


def test_seed_env_read_on_every_call(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BOSEHUB_SEED", "17")
    assert _trained_seed(capsys, tmp_path) == 17
    monkeypatch.setenv("BOSEHUB_SEED", "23")
    assert _trained_seed(capsys, tmp_path) == 23
    monkeypatch.delenv("BOSEHUB_SEED")
    assert _trained_seed(capsys, tmp_path) == 0


def test_bad_seed_env_fails_cleanly_where_a_seed_is_used(tmp_path, capsys,
                                                        monkeypatch):
    monkeypatch.setenv("BOSEHUB_SEED", "abc")
    code, _, err = run(capsys, "train", "--ansatz", "quat", "--layers", "1",
                       "--U", "5", "--steps", "2",
                       "--out-dir", str(tmp_path / "out"))
    assert code == 1
    assert err == "error: BOSEHUB_SEED must be an integer, got 'abc'\n"
    assert not (tmp_path / "out").exists()
    # an explicit flag needs no environment value
    code, _, _ = run(capsys, "train", "--ansatz", "quat", "--layers", "1",
                     "--U", "5", "--steps", "2", "--seed", "4")
    assert code == 0
    # basis and exact take no seed, so they ignore the variable
    assert run(capsys, "basis")[0] == 0
    code, stdout, _ = run(capsys, "exact", "--U", "5")
    assert code == 0 and stdout.splitlines()[0] == "-5.46241"


@pytest.mark.parametrize("document,message", [
    ("[1, 2]", "expected a JSON object, got list"),
    ('{"stpes": 8}', "key 'stpes' is no option of any command"),
    ('{"check": true}', "key 'check' is no option of any command"),
    # the step rate comes from the spectrum; no command takes one
    ('{"lr": 0.02}', "key 'lr' is no option of any command"),
    ("{", "Expecting"),
])
def test_bad_config_fails_cleanly(document, message, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(document)
    code, stdout, err = run(capsys, "--config", str(cfg), "exact", "--U", "5")
    assert code == 1
    assert stdout == ""
    assert err.startswith(f"error: config file {cfg}: ")
    assert message in err


def test_config_defaults_do_not_leak_into_a_later_call(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    # one file may hold defaults for several commands: steps is train's
    cfg.write_text(json.dumps({"U": 5.0, "t": 0.0, "bosons": 4, "steps": 8}))
    code, stdout, _ = run(capsys, "--config", str(cfg), "exact")
    assert code == 0 and stdout.splitlines()[0] == "0.00000"
    code, _, err = run(capsys, "exact")
    assert code == 1 and "missing required option --U" in err
    code, stdout, _ = run(capsys, "exact", "--U", "5")
    assert code == 0 and stdout.splitlines()[0] == "-5.46241"


def test_patched_command_is_run(capsys, monkeypatch):
    assert run(capsys, "exact", "--U", "5")[0] == 0
    seen = []

    def spy(args):
        seen.append(args.U)
        return 0

    monkeypatch.setattr(cli, "cmd_exact", spy)
    code, stdout, _ = run(capsys, "exact", "--U", "2")
    assert code == 0 and stdout == ""
    assert seen == [2.0]


@pytest.mark.parametrize("argv", [
    ["basis", "--kind", "translation"],
    ["exact", "--U", "5", "--basis", "reduced"],
    ["train", "--ansatz", "quat", "--seed", "3"],
    ["study", "noise", "--U", "2,5"],
    ["study", "layers"],
    ["noise-run", "--mode", "uncorrected"],
])
def test_parser_for_one_command_parses_it_like_the_full_parser(argv):
    full, lean = cli._build_parser(), cli._build_parser(None, argv[0])
    assert vars(lean.parse_args(argv)) == vars(full.parse_args(argv))


@pytest.mark.parametrize("argv", [
    ["study", "noise", "--U", "2,5", "--checkpoint", "a.json", "b.json"],
    ["study", "layers", "--ansatz", "quat"],
    ["study", "shots", "--trials", "3"],
])
def test_parser_for_one_study_parses_it_like_the_full_parser(argv):
    full, lean = cli._build_parser(), cli._build_parser(None, " ".join(
        argv[:2]))
    assert vars(lean.parse_args(argv)) == vars(full.parse_args(argv))


def _printed(capsys, parse, argv):
    """Exit status, stdout and stderr of ``parse(argv)``, which exits."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["--help", "exact"],
    ["exact", "--help"],
    ["study", "--help"],
    ["study", "noise", "--help"],
    ["bogus", "--U", "5"],  # an unknown command
    ["--bogus", "exact", "--U", "5"],  # a bad top-level flag
    ["exact", "--U", "abc"],  # a bad value
    ["exact", "--U", "5", "extra"],
    ["study"],  # no study kind
    ["study", "bogus"],
])
def test_main_prints_what_the_full_parser_prints(argv, capsys):
    expected = _printed(capsys, cli._build_parser().parse_args, argv)
    assert expected[1] or expected[2]
    assert _printed(capsys, cli.main, argv) == expected


def test_parser_for_one_command_prints_nothing(capsys):
    # its messages would list one command, so the full parser prints them
    lean = cli._build_parser(None, "exact")
    for argv in (["--help"], ["exact", "--help"], ["exact", "--U", "abc"]):
        with pytest.raises(cli._Reparse):
            lean.parse_args(argv)
    assert capsys.readouterr() == ("", "")


def test_main_names_the_study_kind_to_the_parser(tmp_path, monkeypatch):
    built, build = [], cli._build_parser

    def spy(config, command):
        built.append(command)
        return build(config, command)

    monkeypatch.setattr(cli, "_build_parser", spy)
    monkeypatch.setattr(cli, "cmd_study_shots", lambda args: 0)
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}")
    assert cli.main(["--config", str(cfg), "study", "shots", "--checkpoint",
                     "a.json", "--U", "5"]) == 0
    assert cli.main(["exact", "--U", "5", "--t", "0"]) == 0
    assert built == ["study shots", "exact"]


def test_command_help_lists_its_options(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["exact", "--help"])
    assert exc.value.code == 0
    stdout = capsys.readouterr().out
    assert "--out-prefix" in stdout and "--dump-matrix" in stdout


def test_config_file_paths(tmp_path, capsys):
    """Path options set by a --config file are Paths, as from a flag: one
    string each, and a list for study noise's one checkpoint per U."""
    run(capsys, "train", "--ansatz", "quat", "--layers", "1", "--U", "5",
        "--steps", "3", "--out-dir", str(tmp_path))
    ckpt = str(tmp_path / "quat_U5_checkpoint.json")
    cases = [
        ({"out_dir": str(tmp_path / "train")},
         ["train", "--ansatz", "quat", "--layers", "1", "--U", "5",
          "--steps", "3"], "out_dir", tmp_path / "train" / "quat_U5_trace.csv"),
        ({"out_prefix": str(tmp_path / "ed" / "run")},
         ["exact", "--U", "5"], "out_prefix", tmp_path / "ed" / "run_ground.csv"),
        ({"checkpoint": ckpt, "out": str(tmp_path / "shots.csv")},
         ["study", "shots", "--U", "5", "--grid", "10", "--trials", "2"],
         "checkpoint", tmp_path / "shots.csv"),
    ]
    for config, argv, dest, written in cases:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        args = cli._build_parser(config, argv[0]).parse_args(argv)
        assert getattr(args, dest) == Path(config[dest])
        assert run(capsys, "--config", str(cfg), *argv)[0] == 0
        assert written.exists()

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "checkpoint": [ckpt, ckpt], "out": str(tmp_path / "noise.csv"),
        "calibration_out": str(tmp_path / "cal.csv")}))
    code, _, _ = run(capsys, "--config", str(cfg), "study", "noise",
                     "--U", "2,5", "--shots", "100", "--trials", "1")
    assert code == 0
    # header, then 2 U values x the 3 default modes
    assert len((tmp_path / "noise.csv").read_text().splitlines()) == 7
    assert len((tmp_path / "cal.csv").read_text().splitlines()) == 126


def test_size_check_counts_the_enumeration(capsys, monkeypatch):
    # on an 8 GiB machine the 16/16 table (4.48 GiB) fits, but the last
    # growth step of the enumeration sums an 18.4 GiB int64 array
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**21}
    monkeypatch.setattr(cli.os, "sysconf", pages.__getitem__)

    def enumerate_fock(sites, bosons):
        raise RuntimeError(f"enumerated {sites}/{bosons}")

    monkeypatch.setattr(cli.basis_mod, "enumerate_fock", enumerate_fock)
    code, stdout, err = run(capsys, "basis", "--sites", "16", "--bosons", "16")
    assert code == 1 and stdout == "" and "Traceback" not in err
    assert err == ("error: --sites 16 --bosons 16 needs at least 18.4 GiB "
                   "for the reduced basis, more than the 8 GiB of physical "
                   "memory\n")
    for argv in (["exact", "--sites", "12", "--bosons", "10", "--U", "5"],
                 ["basis", "--sites", "14", "--bosons", "12"]):
        code, _, err = run(capsys, *argv)
        assert (code, err) == (1, f"error: enumerated {argv[2]}/{argv[4]}\n")


def test_orientation_needs_a_phase(capsys):
    code, stdout, err = run(capsys, "exact", "--U", "5", "--orientation",
                            "lex")
    assert code == 1 and stdout == ""
    assert err == ("error: --orientation lex orders the phases of --phi, "
                   "which is 0\n")
    code, stdout, _ = run(capsys, "exact", "--U", "5", "--phi", "0.7",
                          "--orientation", "lex")
    assert code == 0


# --- the option table ------------------------------------------------------

# per command, the options that make a fast, valid call writing only into
# {out}; {ckpt} is a checkpoint outside it
BASE = {
    "basis": {"out": "{out}/basis.csv"},
    "exact": {"U": "5", "out_prefix": "{out}/run"},
    "train": {"ansatz": "quat", "U": "5", "layers": "1", "steps": "2",
              "out_dir": "{out}"},
    "study layers": {"ansatz": "quat", "U": "5", "steps": "2",
                     "layer_grid": "1", "out": "{out}/layers.csv"},
    "study shots": {"checkpoint": "{ckpt}", "U": "5", "grid": "10",
                    "trials": "2", "out": "{out}/shots.csv"},
    "study noise": {"checkpoint": "{ckpt}", "U": "5", "shots": "100",
                    "out": "{out}/noise.csv",
                    "calibration_out": "{out}/cal.csv"},
    "noise-run": {"checkpoint": "{ckpt}", "U": "5", "shots": "100"},
}


def command_options():
    """(command, function, dest, option) for every option of every
    command, as the command's parser holds them."""
    for name, _, func, _ in cli._commands():
        if func is not None:
            args = cli._build_parser(None, name.split()[0]).parse_args(
                name.split())
            for dest, option in args.options.items():
                yield name, func, dest, option


NUMERIC = [(name, func, dest, option)
           for name, func, dest, option in command_options()
           if option.type in (int, float)]
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def out_of_bound(option):
    """Strategies for a value past the option's bound, and for a float
    option a non-finite one."""
    if option.type is int:
        return [st.integers(max_value=int(option.bound.split()[1]) - 1)]
    return [NON_FINITE]


def in_bound(option):
    if option.type is int:
        return st.integers(min_value=int(option.bound.split()[1]))
    return st.floats(allow_nan=False, allow_infinity=False)


def call(name, dest, value, via_config, root):
    """Run command ``name`` with ``dest`` set to ``value`` by a flag or a
    config file; (exit code, stdout, stderr)."""
    out = root / "out"
    out.mkdir()
    ckpt = root / "ckpt.json"
    if "checkpoint" in BASE[name]:
        ckpt.write_text(qc.to_json(qc.CircuitParams("compressed", 1,
                                                    np.zeros(7))))
    argv = name.split()
    for key, text in BASE[name].items():
        if key != dest:
            argv += [cli._OPTIONS[key].flag,
                     text.format(out=out, ckpt=ckpt)]
    if via_config:
        cfg = root / "cfg.json"
        cfg.write_text(json.dumps({dest: value}))
        argv = ["--config", str(cfg), *argv]
    else:
        argv.append(f"{cli._OPTIONS[dest].flag}={value!r}")
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


CASES = pytest.mark.parametrize(
    "name,func,dest,option", NUMERIC,
    ids=[f"{name}-{dest}" for name, _, dest, _ in NUMERIC])


@CASES
@given(data=st.data())
@settings(max_examples=3, deadline=None)
def test_out_of_bound_values_fail_naming_their_option(name, func, dest,
                                                      option, data):
    values = [data.draw(strategy) for strategy in out_of_bound(option)]
    calls = [(value, via_config) for value in values
             for via_config in (False, True)]
    # a config value of the wrong type, which no flag can give
    calls.append((data.draw(st.sampled_from(
        [True, False, 1.5, 2.0, [1]] if option.type is int
        else [True, [1.0]])), True))
    for value, via_config in calls:
        with TemporaryDirectory() as tmp:
            code, stdout, err = call(name, dest, value, via_config,
                                     Path(tmp))
            assert code == 1 and stdout == ""
            assert option.flag in err and "Traceback" not in err
            assert not any((Path(tmp) / "out").iterdir())


@CASES
@given(data=st.data())
@settings(max_examples=2, deadline=None)
def test_in_bound_values_reach_the_command(name, func, dest, option, data):
    value = data.draw(in_bound(option))
    for via_config in (False, True):
        seen = []
        with TemporaryDirectory() as tmp, mock.patch.object(
                cli, func.__name__, lambda args: seen.append(args) or 0):
            code, _, err = call(name, dest, value, via_config, Path(tmp))
        assert (code, err) == (0, "")
        assert len(seen) == 1 and getattr(seen[0], dest) == value


@pytest.mark.parametrize("argv,config,message", [
    (["exact"], {"U": True}, "--U must be a finite number, got True"),
    (["exact"], {"U": [5]}, "--U must be a finite number, got [5]"),
    (["train", "--ansatz", "quat", "--U", "5"], {"steps": True},
     "--steps must be an integer >= 0, got True"),
    (["train", "--ansatz", "quat", "--U", "5"], {"steps": 1.5},
     "--steps must be an integer >= 0, got 1.5"),
    (["train", "--ansatz", "quat", "--U", "5"], {"layers": 2.0},
     "--layers must be an integer >= 0, got 2.0"),
    (["train", "--ansatz", "quat", "--U", "5", "--seed", "-1"], {},
     "--seed must be an integer >= 0, got -1"),
    (["train", "--ansatz", "quat", "--U", "5", "--steps", "-1"], {},
     "--steps must be an integer >= 0, got -1"),
    (["train", "--ansatz", "quat", "--U", "5", "--restarts", "0"], {},
     "--restarts must be an integer >= 1, got 0"),
    (["basis", "--sites", "0"], {}, "--sites must be an integer >= 1, got 0"),
    (["exact", "--U", "5", "--sites", "0"], {},
     "--sites must be an integer >= 1, got 0"),
    (["exact", "--U", "5"], {"basis": "bogus"},
     "--basis must be one of full, translation, reduced, got 'bogus'"),
    (["train", "--ansatz", "quat", "--U", "5"], {"complex_mode": "false"},
     "--complex must be true or false, got 'false'"),
    (["basis"], {"out": 1.5}, "--out must be a path, got 1.5"),
])
def test_bad_values_fail_before_any_work(argv, config, message, tmp_path,
                                         capsys):
    out = tmp_path / "out"
    out.mkdir()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**config, "out_dir": str(out)}))
    code, stdout, err = run(capsys, "--config", str(cfg), *argv)
    assert (code, stdout, err) == (1, "", f"error: {message}\n")
    assert not any(out.iterdir())


def test_seed_env_is_checked_like_the_flag(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BOSEHUB_SEED", "-1")
    out = tmp_path / "out"
    code, stdout, err = run(capsys, "train", "--ansatz", "quat", "--U", "5",
                            "--steps", "2", "--out-dir", str(out))
    assert (code, stdout) == (1, "")
    assert err == "error: BOSEHUB_SEED must be an integer >= 0, got -1\n"
    assert not out.exists()


def test_every_table_option_belongs_to_a_command():
    used = {dest for _, _, dest, _ in command_options()}
    assert used == set(cli._OPTIONS)


@pytest.mark.parametrize("command", ["study noise", "noise-run"])
def test_error_range_fails_before_any_basis(command, tmp_path, capsys,
                                            monkeypatch):
    def no_basis(*args):
        raise AssertionError("built a basis before checking the rates")

    monkeypatch.setattr(cli.basis_mod, "reduced_basis", no_basis)
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(qc.to_json(qc.CircuitParams("compressed", 1,
                                                np.zeros(7))))
    code, stdout, err = run(capsys, *command.split(), "--checkpoint",
                            str(ckpt), "--U", "5", "--error-min", "nan")
    assert (code, stdout) == (1, "")
    assert err.startswith("error: --error-min and --error-max need ")


# A fresh interpreter, since pytest's own process has imported every module.
# The "basis" command runs in the same process as "exact".
_LOADED_SCRIPT = """\
import contextlib, io, json, sys
from bosehub.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        assert main(argv) == 0, argv
print(json.dumps(sorted(sys.modules)))
"""


@pytest.mark.parametrize("argvs, absent", [
    ([["exact", "--U", "5"], ["basis", "--kind", "full"]],
     ("circuit", "_kernels", "neural", "variational", "readout")),
    ([["train", "--ansatz", "quat", "--U", "5", "--steps", "0"]],
     ("readout",)),
], ids=["exact and basis", "train"])
def test_a_command_loads_only_the_modules_it_runs(argvs, absent):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _LOADED_SCRIPT,
                           json.dumps(argvs)], env=env, check=True,
                          capture_output=True, text=True)
    loaded = set(json.loads(done.stdout))
    assert "bosehub.hamiltonian" in loaded
    assert {f"bosehub.{name}" for name in absent} & loaded == set()


def test_the_option_table_holds_the_readout_values():
    options = cli._OPTIONS
    assert options["mode"].type == tuple(m.value for m in ro.CorrectionMode)
    # the replica layout of the reference basis, which readout documents
    dim = cli.basis_mod.reduced_basis(cli.DEFAULT_SITES,
                                      cli.DEFAULT_BOSONS).dim
    qubits = options["qubits"].default
    assert qubits == (dim - 1) * ro.REPLICAS
    low, high = options["error_min"].default, options["error_max"].default
    doc = " ".join(ro.__doc__.split())
    assert f"has those {qubits} qubits" in doc
    assert f"drawn uniformly from [{low!r}, {high!r}]" in doc
