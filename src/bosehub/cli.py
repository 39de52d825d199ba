"""Command-line harness: one subcommand per experiment family.

Every table and figure of the study maps to one invocation emitting CSV/JSON
artifacts; every command that trains or samples is deterministic for a fixed
--seed (default from the BOSEHUB_SEED environment variable). Energies echo
with 5 decimals; files carry full precision.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import basis as basis_mod
from . import circuit as qc
from . import readout as ro
from . import variational as vr
from ._table import write_csv
from .hamiltonian import (
    HamiltonianMatrix,
    ModelParams,
    build_deformed,
    build_full,
    build_reduced,
    ground_state,
    min_eigenvalue_power,
    write_ground_state_csv,
    write_matrix_coo,
)

DEFAULT_SITES = 6
DEFAULT_BOSONS = 5
DEFAULT_LAYERS = 6


def main(argv=None) -> int:
    bootstrap = argparse.ArgumentParser(add_help=False)
    bootstrap.add_argument("--config", type=Path, default=None)
    bootstrap.add_argument("command", nargs="?")
    known, _ = bootstrap.parse_known_args(argv)
    try:
        parser = _build_parser(_read_config(known.config), known.command)
    except (OSError, ValueError) as exc:
        print(f"error: config file {known.config}: {exc}", file=sys.stderr)
        return 1
    args = parser.parse_args(argv)
    if args.check:
        failures = run_oracle_checks()
        if failures:
            return 1
        if args.command is None:
            return 0
    if args.command is None:
        parser.print_help()
        return 2
    try:
        _seed_from_env(args)
        return args.func(args)
    except Exception as exc:  # surfaced with nonzero status per contract
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _read_config(path: Path | None) -> dict:
    """The defaults a --config file sets ({} without one)."""
    if path is None:
        return {}
    config = json.loads(path.read_text())
    if not isinstance(config, dict):
        raise ValueError(
            f"expected a JSON object, got {type(config).__name__}")
    return config


def _seed_from_env(args) -> None:
    """Give a seeded command whose --seed came from neither a flag nor the
    config file the value of BOSEHUB_SEED (then 0), read on every call."""
    if getattr(args, "seed", 0) is not None:
        return
    text = os.environ.get("BOSEHUB_SEED", "0")
    try:
        args.seed = int(text)
    except ValueError:
        raise ValueError(
            f"BOSEHUB_SEED must be an integer, got {text!r}") from None


def _build_parser(config: dict | None = None,
                  command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser with ``config``'s defaults. Every subcommand
    is listed, but only ``command``'s options are added (None: all of
    them); a config file is checked against every command's options."""
    parser = argparse.ArgumentParser(
        prog="bosehub",
        description="Bose-Hubbard ground states: exact, neural and "
                    "single-qubit variational pipelines.")
    parser.add_argument("--check", action="store_true",
                        help="run oracle self-checks before the command")
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON file of flag defaults, overridden by "
                             "explicit flags")
    sub = parser.add_subparsers(dest="command")
    leaves = []
    for name, help, add_options in _COMMANDS:
        p = sub.add_parser(name, help=help)
        if config or command in (None, name):
            leaves += add_options(p)

    if config:
        options = set().union(*(vars(leaf.parse_known_args([])[0])
                                for leaf in leaves)) - {"func"}
        for key in config:
            if key not in options:
                raise ValueError(f"key {key!r} is no option of any command")
        for leaf in leaves:
            leaf.set_defaults(**config)
    return parser


def _basis_options(p) -> list:
    _common(p, seeded=False)
    p.add_argument("--kind", default="reduced",
                   choices=[k.value for k in basis_mod.BasisKind])
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=cmd_basis)
    return [p]


def _exact_options(p) -> list:
    _common(p, seeded=False)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--U", type=float, default=None)
    p.add_argument("--phi", type=float, default=0.0)
    p.add_argument("--basis", default="reduced",
                   choices=[k.value for k in basis_mod.BasisKind])
    p.add_argument("--orientation", default="interaction",
                   choices=["interaction", "lex"])
    p.add_argument("--out-prefix", type=Path, default=None,
                   help="write <prefix>_ground.csv (and _matrix.txt)")
    p.add_argument("--dump-matrix", action="store_true")
    p.set_defaults(func=cmd_exact)
    return [p]


def _train_options(p) -> list:
    _common(p)
    _train_flags(p)
    p.add_argument("--layers", type=int, default=None,
                   help=f"circuit layers (default {DEFAULT_LAYERS}); "
                        "not for --ansatz nn")
    p.add_argument("--basis", default="reduced",
                   choices=[k.value for k in basis_mod.BasisKind],
                   help="full reproduces the network's 252-state baseline")
    p.add_argument("--out-dir", type=Path, default=None)
    p.set_defaults(func=cmd_train)
    return [p]


def _study_options(p) -> list:
    study = p.add_subparsers(dest="study_kind", required=True)

    layers = study.add_parser("layers", help="energy vs layer count")
    _common(layers)
    _train_flags(layers, ansatz_choices=("compressed", "quat"))
    layers.add_argument("--layer-grid", default="3,4,5,6",
                        help="comma-separated layer counts")
    layers.add_argument("--out", type=Path, default=None)
    layers.set_defaults(func=cmd_study_layers)

    ps = study.add_parser("shots", help="finite-shot energy deviations")
    _common(ps)
    ps.add_argument("--checkpoint", type=Path, default=None)
    ps.add_argument("--t", type=float, default=1.0)
    ps.add_argument("--U", type=float, default=None)
    ps.add_argument("--grid", default="100,1000,10000,20000,100000")
    ps.add_argument("--trials", type=int, default=100)
    ps.add_argument("--out", type=Path, default=None)
    ps.set_defaults(func=cmd_study_shots)

    pn = study.add_parser("noise", help="noisy-device energies per mode")
    _common(pn)
    pn.add_argument("--checkpoint", type=Path, nargs="+", default=None,
                    help="one trained circuit checkpoint per U value")
    pn.add_argument("--t", type=float, default=1.0)
    pn.add_argument("--U", default=None, help="comma-separated U values")
    pn.add_argument("--modes",
                    default="uncorrected,corrected,postselected-corrected")
    pn.add_argument("--shots", type=int, default=20000)
    pn.add_argument("--trials", type=int, default=1)
    pn.add_argument("--qubits", type=int, default=ro.DEFAULT_QUBITS)
    pn.add_argument("--error-min", type=float, default=ro.DEFAULT_ERROR_RANGE[0])
    pn.add_argument("--error-max", type=float, default=ro.DEFAULT_ERROR_RANGE[1])
    pn.add_argument("--out", type=Path, default=None)
    pn.add_argument("--calibration-out", type=Path, default=None,
                    help="write an independent calibration of every qubit "
                    "at --shots/--seed; its selected column is what that "
                    "calibration would postselect, not what any trial chose")
    pn.set_defaults(func=cmd_study_noise)
    return [layers, ps, pn]


def _noise_run_options(p) -> list:
    _common(p)
    p.add_argument("--checkpoint", type=Path, default=None)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--U", type=float, default=None)
    p.add_argument("--mode", default="corrected",
                   choices=[m.value for m in ro.CorrectionMode])
    p.add_argument("--shots", type=int, default=20000)
    p.add_argument("--qubits", type=int, default=ro.DEFAULT_QUBITS)
    p.add_argument("--error-min", type=float, default=ro.DEFAULT_ERROR_RANGE[0])
    p.add_argument("--error-max", type=float, default=ro.DEFAULT_ERROR_RANGE[1])
    p.set_defaults(func=cmd_noise_run)
    return [p]


# (name, help, function adding the options and returning the leaf parsers)
_COMMANDS = (
    ("basis", "enumerate and dump a basis", _basis_options),
    ("exact", "exact diagonalization", _exact_options),
    ("train", "train a variational ansatz", _train_options),
    ("study", "layer / shots / noise studies", _study_options),
    ("noise-run", "single noisy energy evaluation", _noise_run_options),
)


def _common(p, seeded: bool = True) -> None:
    p.add_argument("--sites", type=int, default=DEFAULT_SITES)
    p.add_argument("--bosons", type=int, default=DEFAULT_BOSONS)
    if seeded:
        p.add_argument("--seed", type=int, default=None,
                       help="default: BOSEHUB_SEED, then 0")


def _train_flags(p, ansatz_choices=("nn", "compressed", "quat")) -> None:
    p.add_argument("--ansatz", default=None, choices=list(ansatz_choices))
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--U", type=float, default=None)
    p.add_argument("--steps", type=int, default=None,
                   help="default: 1500 for nn, 1200 for circuits, "
                        "2400 in complex mode")
    p.add_argument("--lr", type=float, default=0.02)
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--phi", type=float, default=0.0)
    p.add_argument("--complex", dest="complex_mode", action="store_true",
                   help="complex coefficients (required when phi != 0)")
    p.add_argument("--raw-features", action="store_true",
                   help="feed occupations without mean subtraction")


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise ValueError(
                f"missing required option --{name.replace('_', '-')} "
                f"(flag or config file)")


def _resolve_hamiltonian(args, kind="reduced", orientation="interaction",
                         phi=None) -> HamiltonianMatrix:
    phi = getattr(args, "phi", 0.0) if phi is None else phi
    params = ModelParams(args.t, args.U, args.sites, args.bosons, phi)
    descriptor = _basis(args, kind)
    if phi != 0.0:
        if basis_mod.BasisKind(kind) is not basis_mod.BasisKind.REDUCED:
            raise ValueError("the deformed model lives in the reduced basis")
        return build_deformed(params, descriptor, orientation)
    if basis_mod.BasisKind(kind) is basis_mod.BasisKind.FULL:
        return build_full(params, descriptor)
    return build_reduced(params, descriptor)


def _basis(args, kind="reduced",
           matrix: bool = True) -> basis_mod.BasisDescriptor:
    """The --sites/--bosons basis of ``kind``, built only once a lower bound
    on what the command must hold fits in physical memory: the Fock table,
    C(N+M-1, N) states of M one-byte occupations, and with ``matrix`` a
    dense D x D Hamiltonian, D at least the states over the largest class
    size of ``kind`` (1, M or 2M)."""
    kind = basis_mod.BasisKind(kind)
    sites, bosons = args.sites, args.bosons
    if sites >= 1 and bosons >= 0:  # else the basis names the bad size
        states = math.comb(bosons + sites - 1, bosons)
        need = states * sites
        if matrix:
            largest = {basis_mod.BasisKind.FULL: 1,
                       basis_mod.BasisKind.TRANSLATION: sites,
                       basis_mod.BasisKind.REDUCED: 2 * sites}[kind]
            need += 8 * (-(-states // largest)) ** 2  # ceil, in integers
        budget = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if need > budget:
            what = " and its dense Hamiltonian" if matrix else ""
            raise ValueError(
                f"--sites {sites} --bosons {bosons} needs at least "
                f"{min(need, 2**1000) / 2**30:.3g} GiB for the {kind.value} "
                f"basis{what}, more than the {budget / 2**30:.3g} GiB of "
                f"physical memory")
    return basis_mod.reduced_basis(sites, bosons, kind)


def cmd_basis(args) -> int:
    descriptor = _basis(args, args.kind, matrix=False)
    print(f"kind={descriptor.kind.value} classes={descriptor.dim} "
          f"states={int(descriptor.multiplicities().sum())}")
    if args.out:
        basis_mod.write_basis_csv(descriptor, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_exact(args) -> int:
    _require(args, "U")
    if args.dump_matrix:
        _require(args, "out_prefix")
    h = _resolve_hamiltonian(args, kind=args.basis,
                             orientation=args.orientation)
    state = ground_state(h)
    print(f"{state.energy:.5f}")
    if args.out_prefix:
        args.out_prefix.parent.mkdir(parents=True, exist_ok=True)
        write_ground_state_csv(state, f"{args.out_prefix}_ground.csv")
        if args.dump_matrix:
            write_matrix_coo(h, f"{args.out_prefix}_matrix.txt")
    return 0


def _default_steps(args) -> int:
    if args.steps is not None:
        return args.steps
    if getattr(args, "complex_mode", False) or args.phi != 0.0:
        return 2400
    return 1500 if args.ansatz == "nn" else 1200


def _circuit_layers(args) -> int | None:
    """The circuit layer count of ``train``; None for the network, which
    takes no --layers."""
    if args.ansatz == "nn":
        if args.layers is not None:
            raise ValueError("--layers sets a circuit's layer count; "
                             "--ansatz nn has no layers")
        return None
    return DEFAULT_LAYERS if args.layers is None else args.layers


def _train_config(args) -> vr.TrainConfig:
    if not 0.0 < args.lr < math.inf:
        raise ValueError(f"--lr must be a finite number > 0, got {args.lr!r}")
    return vr.TrainConfig(steps=_default_steps(args), learning_rate=args.lr,
                          seed=args.seed, restarts=args.restarts)


def _comma_list(args, name: str, convert=int, what: str = "integers") -> list:
    """Option ``name`` as distinct comma-separated items, each through
    ``convert``; a bad or repeated item fails naming the option (``what``
    says what it takes)."""
    option, text = "--" + name.replace("_", "-"), str(getattr(args, name))
    try:
        values = [convert(item) for item in text.split(",")]
    except ValueError:
        raise ValueError(f"{option} must be comma-separated {what}, "
                         f"got {text!r}") from None
    if len(set(values)) < len(values):
        raise ValueError(f"{option} repeats a value: {text!r}")
    return values


def _noise_setup(args, dim: int):
    """The simulated device of --qubits qubits with flip rates in
    [--error-min, --error-max], and the replica layout that measures all
    ``dim`` basis classes but the pinned anchor on it."""
    low, high = args.error_min, args.error_max
    if not 0.0 <= low <= high < 0.5:
        raise ValueError(
            f"--error-min and --error-max need 0 <= --error-min <= "
            f"--error-max < 0.5, got {low!r} and {high!r}")
    if dim < 2:
        raise ValueError("a noisy readout needs 2 or more basis classes, "
                         "since one is pinned")
    need = (dim - 1) * ro.DEFAULT_REPLICAS
    if args.qubits < need:
        raise ValueError(f"--qubits must be >= {need} for {dim - 1} "
                         f"coefficients x {ro.DEFAULT_REPLICAS} replicas, "
                         f"got {args.qubits}")
    device = ro.SimulatedDevice.random(args.qubits, (low, high),
                                       seed=args.seed)
    return device, ro.replica_layout(dim - 1, n_qubits=args.qubits)


def cmd_train(args) -> int:
    _require(args, "ansatz", "U")
    layers = _circuit_layers(args)
    cfg = _train_config(args)
    complex_mode = args.complex_mode or args.phi != 0.0
    h = _resolve_hamiltonian(args, kind=args.basis)
    exact = ground_state(h).energy
    if layers is None:
        ansatz = vr.MlpAnsatz(h, complex_mode=complex_mode,
                              raw_features=args.raw_features)
    else:
        ansatz = vr.CircuitAnsatz(h, args.ansatz, layers,
                                  complex_mode=complex_mode,
                                  raw_features=args.raw_features)
    result = vr.train(ansatz, h, cfg)
    print(f"{result.final_energy:.5f}")

    if args.out_dir:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{args.ansatz}_U{args.U:g}" + (
            f"_phi{args.phi:g}" if args.phi else "")
        (args.out_dir / f"{stem}_checkpoint.json").write_text(
            ansatz.export(result.theta))
        vr.write_trace_csv(result, exact, args.out_dir / f"{stem}_trace.csv")
        summary = _summary("train", {
            "ansatz": args.ansatz,
            "layers": layers,
            "t": args.t, "U": args.U, "phi": args.phi,
            "complex": complex_mode,
            "steps": cfg.steps, "learning_rate": cfg.learning_rate,
            "seed": args.seed, "restarts": args.restarts,
        }, {
            "final_energy": result.final_energy,
            "exact_energy": exact,
            "loss": exact - result.final_energy,
            "winning_seed": result.seed,
        })
        (args.out_dir / f"{stem}_summary.json").write_text(summary)
        print(f"wrote artifacts to {args.out_dir}")
    return 0


def cmd_study_layers(args) -> int:
    _require(args, "ansatz", "U")
    cfg = _train_config(args)
    counts = _comma_list(args, "layer_grid")
    if min(counts) < 0:
        raise ValueError("layer count must be >= 0")
    h = _resolve_hamiltonian(args)
    rows = vr.layer_study(args.ansatz, counts, h, cfg,
                          complex_mode=args.complex_mode or args.phi != 0.0,
                          raw_features=args.raw_features)
    for layers, energy in rows:
        print(f"{layers} {energy:.5f}")
    if args.out:
        write_csv(args.out, ("layers", "energy"), rows)
        print(f"wrote {args.out}")
    return 0


def cmd_study_shots(args) -> int:
    _require(args, "checkpoint", "U")
    grid = _comma_list(args, "grid")
    params = qc.from_json(args.checkpoint.read_text())
    h = _resolve_hamiltonian(args, phi=0.0)
    rows = ro.shot_study(params, h, grid, trials=args.trials, seed=args.seed)
    for shots, median, std in rows:
        print(f"{shots} {median:.5f} {std:.5f}")
    if args.out:
        ro.write_shot_study_csv(rows, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_study_noise(args) -> int:
    _require(args, "checkpoint", "U")
    if args.trials < 1:
        raise ValueError("trials must be >= 1")
    u_values = _comma_list(args, "U", float, "numbers")
    checkpoints = (args.checkpoint if isinstance(args.checkpoint, list)
                   else [args.checkpoint])
    if len(checkpoints) != len(u_values):
        raise ValueError("need one checkpoint per U value")
    modes = _comma_list(args, "modes", ro.CorrectionMode, "modes of " +
                        ", ".join(m.value for m in ro.CorrectionMode))
    descriptor = _basis(args)
    device, layout = _noise_setup(args, descriptor.dim)
    rows = []
    for ui, (u, ckpt) in enumerate(zip(u_values, checkpoints)):
        params = qc.from_json(Path(ckpt).read_text())
        h = build_reduced(ModelParams(args.t, u, args.sites, args.bosons),
                          descriptor)
        # the ideal circuit is evaluated once per U, for every trial
        weights = qc.batch_weights(params, basis_mod.feature_matrix(h.basis))
        ideal = vr.rayleigh_energy(weights, h)
        for trial in range(args.trials):
            rng = np.random.default_rng(
                np.random.SeedSequence((args.seed, ui, trial)))
            energies = ro.noisy_energies(params, h, device, layout,
                                         args.shots, modes, rng,
                                         ideal=weights)
            rows.extend((trial, mode.value, u, energies[mode], ideal)
                        for mode in modes)
    rows.sort(key=lambda r: (r[0], r[2], r[1]))
    for trial, mode, u, energy, ideal in rows:
        print(f"run={trial} mode={mode} U={u:g} energy={energy:.5f} "
              f"ideal={ideal:.5f}")
    if args.out:
        ro.write_energy_report_csv(rows, args.out)
        print(f"wrote {args.out}")
    if args.calibration_out:
        report = ro.calibration_report(device, args.shots, args.seed, layout)
        ro.write_calibration_csv(report, args.calibration_out)
        print(f"wrote {args.calibration_out}")
    return 0


def cmd_noise_run(args) -> int:
    _require(args, "checkpoint", "U")
    params = qc.from_json(args.checkpoint.read_text())
    h = _resolve_hamiltonian(args, phi=0.0)
    device, layout = _noise_setup(args, h.dim)
    energy = ro.noisy_energy_run(params, h, device, layout, args.shots,
                                 ro.CorrectionMode(args.mode), args.seed)
    print(f"{energy:.5f}")
    return 0


def run_oracle_checks() -> list[str]:
    """Cross-validate the core numerics; prints one pass/fail line each."""
    failures = []

    def check(name: str, ok: bool, detail: str = ""):
        print(f"[{'PASS' if ok else 'FAIL'}] {name}" +
              (f" ({detail})" if detail else ""))
        if not ok:
            failures.append(name)

    full = basis_mod.full_basis(DEFAULT_SITES, DEFAULT_BOSONS)
    reduced = basis_mod.reduced_basis(DEFAULT_SITES, DEFAULT_BOSONS)
    for u in (2.0, 5.0, 8.0):
        params = ModelParams(1.0, u, DEFAULT_SITES, DEFAULT_BOSONS)
        e_full = ground_state(build_full(params, full)).energy
        hr = build_reduced(params, reduced)
        e_red = ground_state(hr).energy
        check(f"full vs reduced ground energy (U={u:g})",
              abs(e_full - e_red) < 1e-9, f"{e_full:.9f} vs {e_red:.9f}")
        e_power = min_eigenvalue_power(hr)
        check(f"Lanczos vs power iteration (U={u:g})",
              abs(e_power - e_red) < 1e-7, f"delta={abs(e_power - e_red):.2e}")

    rng = np.random.default_rng(0)
    for kind in ("compressed", "quat"):
        params = qc.init_params(kind, 3, rng, scale=1.0)
        x = rng.uniform(-1.0, 1.0, 6)
        analytic = qc.gradient(params, x)
        worst = 0.0
        for k in range(params.n_params):
            step = np.zeros(params.n_params)
            step[k] = 1e-5
            plus = qc.CircuitParams(kind, 3, params.values + step)
            minus = qc.CircuitParams(kind, 3, params.values - step)
            fd = (qc.weight_of(plus, x) - qc.weight_of(minus, x)) / 2e-5
            # 1e-6 relative with a 1e-9 absolute floor under the FD noise
            worst = max(worst,
                        abs(fd - analytic[k]) - 1e-6 * abs(fd) - 1e-9)
        check(f"{kind} gradient vs finite differences", worst <= 0.0,
              f"worst excess {worst:.2e}")
    return failures


def _summary(command: str, config: dict, results: dict) -> str:
    return json.dumps({
        "command": command,
        "config": config,
        "version": __version__,
        "results": results,
    }, indent=2, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main())
