"""Tests of the benchmark's own code: the oracle, the tracer and the checks.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

run.use_checkout_program()

import layers  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("u", sorted(oracle.PUBLISHED))
def test_oracle_reproduces_published_energies(u):
    assert abs(oracle.ground_energy(6, 5, u) - oracle.PUBLISHED[u]) < 5e-6


def test_oracle_basis_sizes():
    assert len(oracle.fock_states(6, 5)) == 252
    assert len(oracle.symmetry_classes(6, 5)) == 26
    assert len(oracle.fock_states(8, 8)) == 6435
    assert len(oracle.symmetry_classes(8, 8)) == 440


def test_oracle_symmetric_ground_state_has_the_ground_energy():
    # the lowest eigenvector of the 26-class matrix built from the oracle's
    # classes, expanded, has the full-space ground energy
    classes = oracle.symmetry_classes(6, 5)
    h = oracle.hamiltonian(6, 5, 5.0).toarray()
    proj = np.zeros((h.shape[0], len(classes)))
    for c, members in enumerate(classes):
        proj[list(members), c] = 1.0 / np.sqrt(len(members))
    _, vectors = np.linalg.eigh(proj.T @ h @ proj)
    full = oracle.expand(vectors[:, 0], 6, 5, reduced=True)
    assert abs(oracle.rayleigh(full, 6, 5, 5.0)
               - oracle.ground_energy(6, 5, 5.0)) < 1e-10


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def _namespaces():
    """Every bosehub module and class namespace, name -> object id."""
    found = {}
    for name in layers.MODULES:
        module = importlib.import_module(f"bosehub.{name}")
        found[name] = dict(vars(module))
        for attr, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == module.__name__:
                found[f"{name}.{attr}"] = dict(vars(value))
    return {space: {k: id(v) for k, v in d.items()}
            for space, d in found.items()}


def test_tracer_restores_every_wrapped_attribute():
    from bosehub import cli, hamiltonian

    before = _namespaces()
    original = hamiltonian.build_full
    with layers.Tracer() as tracer:
        assert cli.build_full is not original
        assert hamiltonian.build_full is cli.build_full
        assert workloads.invoke(["exact", "--basis", "reduced", "--U", "5"])[0] == 0
        assert workloads.invoke(["train", "--ansatz", "quat", "--U", "5",
                                 "--layers", "2", "--steps", "3"])[0] == 0
    assert tracer.missing == []
    assert _namespaces() == before
    assert hamiltonian.build_full is original and cli.build_full is original


def test_tracer_restores_after_an_exception():
    before = _namespaces()
    with pytest.raises(RuntimeError):
        with layers.Tracer():
            raise RuntimeError("inside the traced region")
    assert _namespaces() == before


def test_self_times_add_up_to_the_covered_time(tmp_path):
    ckpt = workloads.CHECKPOINTS / "compressed_U5_checkpoint.json"
    with layers.Tracer() as tracer:
        workloads.invoke(["train", "--ansatz", "nn", "--U", "2",
                          "--steps", "5", "--out-dir", str(tmp_path)])
        workloads.invoke(["study", "noise", "--checkpoint", str(ckpt),
                          "--U", "5", "--trials", "1",
                          "--modes", workloads.NOISE_MODES])
    totals = tracer.snapshot()
    timed = sum(totals[m] for m in layers.TIME_METRICS)
    assert timed == pytest.approx(totals["covered_s"], rel=1e-9)
    assert totals["variational.steps"] == 5
    assert totals["readout.correct_calls"] == 25 * 6  # 5 replicas + 1 best
    assert totals["kernels.forward_s"] > 0 and totals["neural.backward_s"] > 0


# ---------------------------------------------------------------------------
# checks reject wrong outputs
# ---------------------------------------------------------------------------

def _train_record(**change):
    record = {"ansatz": "quat", "U": 5.0, "tolerance": 5e-3,
              "final_energy": -5.4620,
              "exact_energy": oracle.ground_energy(6, 5, 5.0)}
    record.update(change)
    return record


def test_check_train():
    assert workloads.check_train(_train_record()) == []
    below = oracle.ground_energy(6, 5, 5.0) - 1e-6
    assert workloads.check_train(_train_record(final_energy=below))
    assert workloads.check_train(_train_record(final_energy=-5.45))
    assert workloads.check_train(_train_record(exact_energy=-5.4623))


@pytest.fixture(scope="module")
def exact_records(tmp_path_factory):
    ed = workloads.Ed(0, tmp_path_factory.mktemp("ed"))
    ed.out.mkdir(parents=True)
    ops = [op for op in ed.operations(0) if op.label.startswith("exact 6/5")]
    records = []
    for op in ops:
        code, stdout = workloads.invoke(op.argv)
        assert code == 0
        records.append(op.read(stdout))
    return records


def test_check_exact_accepts_the_program(exact_records):
    assert len(exact_records) == 7
    assert all(workloads.check_exact(r) == [] for r in exact_records)


def test_check_exact_rejects_wrong_outputs(exact_records):
    for record in exact_records:
        shifted = dict(record, energy=record["energy"] + 2e-5)
        assert workloads.check_exact(shifted), record
        amps = record["amplitudes"].copy()
        k = int(np.argmax(np.abs(amps)))
        amps[[0, k]] = amps[[k, 0]]  # two amplitudes swapped
        assert workloads.check_exact(dict(record, amplitudes=amps)), record
        assert workloads.check_exact(
            dict(record, amplitudes=record["amplitudes"][:-1])), record


def _noise_rows(change=None):
    rows = []
    for u in (2.0, 5.0):
        ideal = oracle.ground_energy(6, 5, u) + 0.01
        for trial in range(3):
            for mode, err in (("uncorrected", 0.05), ("corrected", 0.01),
                              ("postselected", 0.04),
                              ("postselected-corrected", 0.02)):
                rows.append({"run": str(trial), "mode": mode, "U": repr(u),
                             "energy": repr(ideal + err),
                             "ideal_energy": repr(ideal)})
    if change:
        change(rows)
    return rows


CALIBRATION = [{"figure_of_merit": "1.02"}] * workloads.NOISE_QUBITS


def test_check_noise():
    assert workloads.check_noise(_noise_rows(), CALIBRATION) == []

    def below_exact(rows):
        rows[0]["energy"] = repr(oracle.ground_energy(6, 5, 2.0) - 1e-6)

    def correction_hurts(rows):
        for row in rows:
            if row["mode"] == "corrected" and row["U"] == "5.0":
                row["energy"] = repr(float(row["ideal_energy"]) + 0.09)

    for change in (below_exact, correction_hurts,
                   lambda rows: rows.pop(1)):
        assert workloads.check_noise(_noise_rows(change), CALIBRATION)
    assert workloads.check_noise(_noise_rows(), CALIBRATION[:-1])
    assert workloads.check_noise(
        _noise_rows(), [{"figure_of_merit": "0.99"}] * workloads.NOISE_QUBITS)


def test_check_shots():
    def rows(medians):
        return [{"shots": str(s), "median_frac_dev": repr(m), "std": "0"}
                for s, m in zip(workloads.SHOT_GRID, medians)]

    assert workloads.check_shots(rows([3e-2, 1e-2, 9e-4, 6e-4, 3e-4])) == []
    assert workloads.check_shots(rows([3e-2, 1e-2, 9e-4, 9.5e-4, 3e-4]))
    assert workloads.check_shots(rows([3e-2, 1e-2, 3e-3, 1.1e-3, 3e-4]))


# ---------------------------------------------------------------------------
# the command
# ---------------------------------------------------------------------------

def test_fails_without_the_program(tmp_path):
    bench = Path(run.__file__).resolve().parent
    shutil.copytree(bench, tmp_path / bench.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{bench.name}/run.py", "--workload", "noise",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_every_metric():
    spec = json.loads(
        (Path(run.__file__).resolve().parent.parent / "BENCHMARK.json")
        .read_text())
    layer_names = {m["name"] for m in spec["per_layer"]}
    assert layer_names == set(layers.TIME_METRICS) | set(
        layers.COUNT_METRICS) | {"kernels.rows_per_call", "trace.overhead",
                                 "trace.coverage"}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
