"""The benchmark's three workloads and the checks on their outputs.

Every operation is one ``bosehub.cli.main(argv)`` call, the code path of a
``bosehub ...`` command line. A workload gives the operations of one round;
rounds repeat the same operations, so every run attempts whole rounds. Each
output is checked right after its operation, outside the timed call,
against ``oracle`` (computed apart from the program) or against properties
the method must have; never against stored copies of earlier output.
"""
from __future__ import annotations

import csv
import io
import json
import math
import statistics
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

CHECKPOINTS = Path(__file__).resolve().parent / "checkpoints"
NOISE_MODES = "uncorrected,corrected,postselected,postselected-corrected"
NOISE_TRIALS = 25
NOISE_QUBITS = 125
SHOT_GRID = (100, 1000, 10000, 20000, 100000)
SHOT_TRIALS = 100


@dataclass
class Operation:
    """One command. ``label`` names it across rounds; after the timed call,
    ``read`` turns its output (stdout text in) into a record and ``check``
    returns what is wrong with that record."""

    label: str
    argv: list[str]
    read: Callable[[str], dict]
    check: Callable[[dict], list[str]]


def invoke(argv: list[str]) -> tuple[int, str]:
    """Run one bosehub command in-process; (exit code, captured stdout)."""
    from bosehub import cli

    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def round_seed(seed: int, round_index: int) -> int:
    """Program seed of one round, derived from the benchmark seed."""
    return int(np.random.SeedSequence([seed, round_index]).generate_state(1)[0])


def _order(seed: int, round_index: int, items: list) -> list:
    """The round's items in an order drawn from the benchmark seed."""
    rng = np.random.default_rng([seed, round_index, 1])
    return [items[i] for i in rng.permutation(len(items))]


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _first_float(stdout: str) -> float:
    return float(stdout.split()[0])


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

# (ansatz, U, flags, tolerance to the published energy). The tolerances are
# those of the acceptance suite. Training runs at the reference seed 0: with
# other seeds single-start nn and quat training miss these tolerances on
# some seeds (local minima), so a seed-dependent init would make the checks
# depend on the seed.
TRAIN_COMMANDS = (
    ("nn", 2.0, ["--steps", "1500"], 2e-3),
    ("quat", 5.0, ["--layers", "6", "--steps", "1200"], 5e-3),
    ("compressed", 8.0,
     ["--layers", "6", "--steps", "1200", "--restarts", "2"], 2e-2),
)


def check_train(record: dict) -> list[str]:
    """Variational bound and published-energy tolerance of one training."""
    from oracle import PUBLISHED, ground_energy

    u, final = record["U"], record["final_energy"]
    exact = ground_energy(6, 5, u)
    name = f"train {record['ansatz']} U={u:g}"
    failures = []
    if not final >= exact - 1e-9:
        failures.append(f"{name}: energy {final!r} below the exact "
                        f"ground energy {exact!r}")
    if not abs(final - PUBLISHED[u]) < record["tolerance"]:
        failures.append(f"{name}: energy {final!r} misses {PUBLISHED[u]} "
                        f"by more than {record['tolerance']:g}")
    if not abs(record["exact_energy"] - exact) < 1e-8:
        failures.append(f"{name}: reported exact energy "
                        f"{record['exact_energy']!r}, oracle {exact!r}")
    return failures


class Train:
    """The paper's headline computation at the reference 6/5 basis."""

    name = "train"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.out = workdir / "train"

    def setup(self) -> None:
        for ansatz, u, flags, _ in TRAIN_COMMANDS:
            invoke(["train", "--ansatz", ansatz, "--U", f"{u:g}", *flags,
                    "--steps", "2", "--seed", "0",
                    "--out-dir", str(self.out / "warm")])

    def operations(self, round_index: int) -> list[Operation]:
        ops = []
        for ansatz, u, flags, tolerance in TRAIN_COMMANDS:
            summary = self.out / f"{ansatz}_U{u:g}_summary.json"

            def read(stdout, ansatz=ansatz, u=u, tolerance=tolerance,
                     summary=summary):
                results = json.loads(summary.read_text())["results"]
                return {"ansatz": ansatz, "U": u, "tolerance": tolerance,
                        "final_energy": results["final_energy"],
                        "exact_energy": results["exact_energy"]}

            ops.append(Operation(
                f"train {ansatz}",
                ["train", "--ansatz", ansatz, "--U", f"{u:g}", *flags,
                 "--seed", "0", "--out-dir", str(self.out)],
                read, check_train))
        return _order(self.seed, round_index, ops)


# ---------------------------------------------------------------------------
# ed
# ---------------------------------------------------------------------------

def read_ground_csv(path: Path) -> np.ndarray:
    rows = _read_csv(path)
    return np.array([complex(float(r["amplitude_re"]), float(r["amplitude_im"]))
                     for r in rows])


def check_exact(record: dict) -> list[str]:
    """One ``exact`` solve against the oracle and the published energy.

    The printed energy carries 5 decimals. The ground-state vector the
    program writes is expanded into the full Fock space (or, for the
    deformed model, taken on the oracle's classes) and its Rayleigh quotient
    compared with the oracle's lowest eigenvalue to 1e-8.
    """
    from oracle import (PUBLISHED, PUBLISHED_DEFORMED, deformed_ground_energy,
                        deformed_rayleigh, expand, ground_energy, rayleigh)

    sites, bosons, u = record["sites"], record["bosons"], record["U"]
    printed, amps, phi = record["energy"], record["amplitudes"], record["phi"]
    reduced = record["basis"] == "reduced"
    name = f"exact {sites}/{bosons} {record['basis']} U={u:g} phi={phi:g}"
    failures = []
    if phi:
        exact = deformed_ground_energy(sites, bosons, u, phi)
        published = PUBLISHED_DEFORMED if (sites, bosons, u) == (6, 5, 5.0) \
            else None
        published_tol = 5e-5  # published to 4 decimals
    else:
        exact = ground_energy(sites, bosons, u)
        published = PUBLISHED.get(u) if (sites, bosons) == (6, 5) else None
        published_tol = 1.01e-5  # both rounded to 5 decimals
    if published is not None and not abs(printed - published) <= published_tol:
        failures.append(f"{name}: energy {printed!r}, published {published}")
    if not abs(printed - exact) <= 5.01e-6:
        failures.append(f"{name}: energy {printed!r}, oracle {exact!r}")
    try:
        if phi:
            vector_energy = deformed_rayleigh(amps, sites, bosons, u, phi)
        else:
            vector_energy = rayleigh(expand(amps.real, sites, bosons, reduced),
                                     sites, bosons, u)
    except ValueError as exc:
        return failures + [f"{name}: {exc}"]
    if not abs(np.linalg.norm(amps) - 1.0) < 1e-8:
        failures.append(f"{name}: ground vector norm {np.linalg.norm(amps)!r}")
    if not abs(vector_energy - exact) < 1e-8:
        failures.append(f"{name}: ground vector energy {vector_energy!r}, "
                        f"oracle {exact!r}")
    return failures


class Ed:
    """Exact diagonalization at 8 sites/8 bosons, then the reference solves."""

    name = "ed"
    LARGE = (8, 8)
    U_VALUES = (2.0, 5.0, 8.0)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.out = workdir / "ed"

    def _op(self, sites, bosons, basis, u, phi=0.0) -> Operation:
        prefix = self.out / f"{sites}x{bosons}_{basis}_U{u:g}" \
            f"{'_phi' if phi else ''}"
        argv = ["exact", "--sites", str(sites), "--bosons", str(bosons),
                "--basis", basis, "--t", "1", "--U", f"{u:g}",
                "--out-prefix", str(prefix)]
        if phi:
            argv += ["--phi", repr(phi)]

        def read(stdout):
            return {"sites": sites, "bosons": bosons, "basis": basis, "U": u,
                    "phi": phi, "energy": _first_float(stdout),
                    "amplitudes": read_ground_csv(
                        Path(f"{prefix}_ground.csv"))}

        label = f"exact {sites}/{bosons} {basis} U={u:g}" + (
            " phi" if phi else "")
        return Operation(label, argv, read, check_exact)

    def setup(self) -> None:
        self.out.mkdir(parents=True, exist_ok=True)
        for basis in ("full", "reduced"):
            invoke(["exact", "--basis", basis, "--U", "5", "--out-prefix",
                    str(self.out / f"warm_{basis}")])
        invoke(["exact", "--basis", "reduced", "--U", "5",
                "--phi", repr(math.pi / 2)])

    def operations(self, round_index: int) -> list[Operation]:
        large = [self._op(*self.LARGE, "reduced", u) for u in self.U_VALUES]
        small = [self._op(6, 5, basis, u) for basis in ("full", "reduced")
                 for u in self.U_VALUES]
        small.append(self._op(6, 5, "reduced", 5.0, phi=math.pi / 2))
        return (_order(self.seed, round_index, large)
                + _order(self.seed, round_index, small))


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------

def check_noise(rows: list[dict], calibration: list[dict]) -> list[str]:
    """Noisy-device energies: variational bound and a useful correction."""
    from oracle import ground_energy

    failures = []
    by_u: dict[float, dict[str, list[float]]] = {}
    for row in rows:
        u = float(row["U"])
        energy, ideal = float(row["energy"]), float(row["ideal_energy"])
        exact = ground_energy(6, 5, u)
        if not (energy >= exact - 1e-9 and ideal >= exact - 1e-9):
            failures.append(f"noise U={u:g} {row['mode']}: energy {energy!r}"
                            f" or ideal {ideal!r} below exact {exact!r}")
        by_u.setdefault(u, {}).setdefault(row["mode"], []).append(
            abs(energy - ideal))
    for u, errors in sorted(by_u.items()):
        if set(errors) != set(NOISE_MODES.split(",")):
            failures.append(f"noise U={u:g}: modes {sorted(errors)}")
            continue
        if len({len(v) for v in errors.values()}) != 1:
            failures.append(f"noise U={u:g}: unequal trial counts")
        raw = statistics.fmean(errors["uncorrected"])
        fixed = statistics.fmean(errors["corrected"])
        if not fixed < raw:
            failures.append(f"noise U={u:g}: corrected mean |E - ideal| "
                            f"{fixed:.3g} not below uncorrected {raw:.3g}")
    if len(calibration) != NOISE_QUBITS:
        failures.append(f"calibration: {len(calibration)} qubits")
    elif not all(float(r["figure_of_merit"]) >= 1.0 - 1e-12
                 for r in calibration):
        failures.append("calibration: a figure of merit below 1")
    return failures


def check_shots(rows: list[dict]) -> list[str]:
    """Shot-noise study: the median |dE/E| falls as the shots grow."""
    shots = [int(r["shots"]) for r in rows]
    medians = [float(r["median_frac_dev"]) for r in rows]
    if shots != sorted(shots) or 20000 not in shots:
        return [f"shots: grid {shots}"]
    failures = []
    if not all(a > b for a, b in zip(medians, medians[1:])):
        failures.append(f"shots: medians {medians} do not fall")
    if not medians[shots.index(20000)] < 1e-3:
        failures.append(f"shots: median {medians[shots.index(20000)]!r} "
                        "at 20000 shots is not below 1e-3")
    return failures


class Noise:
    """Readout noise and mitigation from committed compressed checkpoints."""

    name = "noise"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.out = workdir / "noise"
        self.checkpoints = [CHECKPOINTS / f"compressed_U{u}_checkpoint.json"
                            for u in (2, 5)]

    def setup(self) -> None:
        self.out.mkdir(parents=True, exist_ok=True)
        for path in self.checkpoints:
            json.loads(path.read_text())  # fail early on a missing input
        invoke(["study", "noise", "--checkpoint", str(self.checkpoints[0]),
                "--U", "2", "--modes", NOISE_MODES, "--trials", "1",
                "--calibration-out", str(self.out / "warm_calibration.csv")])
        invoke(["study", "shots", "--checkpoint", str(self.checkpoints[1]),
                "--U", "5", "--grid", "100", "--trials", "1",
                "--out", str(self.out / "warm_shots.csv")])

    def operations(self, round_index: int) -> list[Operation]:
        seed = str(round_seed(self.seed, round_index))
        energies = self.out / "noise.csv"
        calibration = self.out / "calibration.csv"
        shots = self.out / "shots.csv"
        ops = [
            Operation(
                "study noise",
                ["study", "noise", "--checkpoint",
                 *map(str, self.checkpoints), "--U", "2,5",
                 "--modes", NOISE_MODES, "--trials", str(NOISE_TRIALS),
                 "--shots", "20000", "--qubits", str(NOISE_QUBITS),
                 "--seed", seed,
                 "--out", str(energies),
                 "--calibration-out", str(calibration)],
                lambda stdout: {"rows": _read_csv(energies),
                                "calibration": _read_csv(calibration)},
                lambda record: check_noise(**record)),
            Operation(
                "study shots",
                ["study", "shots", "--checkpoint", str(self.checkpoints[1]),
                 "--U", "5", "--grid", ",".join(map(str, SHOT_GRID)),
                 "--trials", str(SHOT_TRIALS), "--seed", seed,
                 "--out", str(shots)],
                lambda stdout: {"rows": _read_csv(shots)},
                lambda record: check_shots(**record)),
        ]
        return _order(self.seed, round_index, ops)


WORKLOADS = {w.name: w for w in (Train, Ed, Noise)}
