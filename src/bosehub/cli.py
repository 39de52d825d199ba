"""Command-line harness: one subcommand per experiment family.

Every table and figure of the study maps to one invocation emitting CSV/JSON
artifacts; every command that trains or samples is deterministic for a fixed
--seed (default from the BOSEHUB_SEED environment variable). Energies echo
with 5 decimals; files carry full precision. A command imports only the
modules it runs: ``exact`` and ``basis`` load no circuit, network, training
or readout code.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import namedtuple
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from . import basis as basis_mod
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

if TYPE_CHECKING:  # each command imports what it runs
    from . import circuit as qc
    from . import readout as ro
    from . import variational as vr

DEFAULT_SITES = 6
DEFAULT_BOSONS = 5
DEFAULT_LAYERS = 6


# --config and the command words, read before the parser is built
_BOOTSTRAP = argparse.ArgumentParser(add_help=False)
_BOOTSTRAP.add_argument("--config", type=Path, default=None)
_BOOTSTRAP.add_argument("command", nargs="*")


def main(argv=None) -> int:
    known, _ = _BOOTSTRAP.parse_known_args(argv)
    try:
        config = json.loads(known.config.read_text()) if known.config else {}
        if not isinstance(config, dict):
            raise ValueError(
                f"expected a JSON object, got {type(config).__name__}")
        parser = _build_parser(config, " ".join(known.command) or None)
    except (OSError, ValueError) as exc:
        print(f"error: config file {known.config}: {exc}", file=sys.stderr)
        return 1
    try:
        args = parser.parse_args(argv)
    except _Reparse:  # the full parser prints the message and exits
        args = _build_parser(config, None).parse_args(argv)
    if args.command is None and not args.check:
        parser.print_help()
        return 2
    try:
        _check_values(args)
        if args.check and run_oracle_checks():
            return 1
        return args.func(args) if args.command else 0
    except Exception as exc:  # surfaced with nonzero status per contract
        print(f"error: {exc}", file=sys.stderr)
        return 1


# One command-line option. ``type`` is int, float, str, Path, bool (a
# switch) or the tuple of a str option's choices. ``bound`` is the rule a
# number meets beyond its type (">= 0", ">= 1"); a float must also be
# finite, except the error rates, whose rule needs both of them. A
# ``required`` option must be given, by a flag or the config file.
_Option = namedtuple("_Option", "flag type default help bound nargs required",
                     defaults=(None, None, None, None, False))
_ERROR_RANGE = "0 <= --error-min <= --error-max < 0.5"
_BASIS_KINDS = tuple(k.value for k in basis_mod.BasisKind)

# every option of every command, keyed by the dest it sets
_OPTIONS = {
    "sites": _Option("--sites", int, DEFAULT_SITES, bound=">= 1"),
    "bosons": _Option("--bosons", int, DEFAULT_BOSONS, bound=">= 0"),
    "seed": _Option("--seed", int, help="default: BOSEHUB_SEED, then 0",
                    bound=">= 0"),
    "kind": _Option("--kind", _BASIS_KINDS, "reduced"),
    "basis": _Option("--basis", _BASIS_KINDS, "reduced"),
    "t": _Option("--t", float, 1.0),
    "U": _Option("--U", float, required=True),
    "phi": _Option("--phi", float, 0.0),
    "orientation": _Option("--orientation", ("interaction", "lex"),
                           "interaction"),
    "out": _Option("--out", Path),
    "out_prefix": _Option("--out-prefix", Path, help="write "
                          "<prefix>_ground.csv (and _matrix.txt)"),
    "out_dir": _Option("--out-dir", Path),
    "dump_matrix": _Option("--dump-matrix", bool, False),
    "ansatz": _Option("--ansatz", ("nn", "compressed", "quat"),
                      required=True),
    "steps": _Option("--steps", int, help="the most steps before a "
                     "certified stop; default: 1500 for nn, 1200 for "
                     "circuits, 2400 in complex mode", bound=">= 0"),
    "restarts": _Option("--restarts", int, 1, bound=">= 1"),
    "complex_mode": _Option("--complex", bool, False, help="complex "
                            "coefficients (implied by a nonzero --phi)"),
    "raw_features": _Option("--raw-features", bool, False, help="feed "
                            "occupations without mean subtraction"),
    "layers": _Option("--layers", int, help=f"circuit layers (default "
                      f"{DEFAULT_LAYERS}); not for --ansatz nn", bound=">= 0"),
    "layer_grid": _Option("--layer-grid", str, "3,4,5,6",
                          help="comma-separated layer counts"),
    "checkpoint": _Option("--checkpoint", Path, required=True),
    "grid": _Option("--grid", str, "100,1000,10000,20000,100000"),
    "trials": _Option("--trials", int, 100, bound=">= 1"),
    "modes": _Option("--modes", str,
                     "uncorrected,corrected,postselected-corrected"),
    # readout.CorrectionMode's values, in its order
    "mode": _Option("--mode", ("uncorrected", "corrected", "postselected",
                               "postselected-corrected"), "corrected"),
    "shots": _Option("--shots", int, 20000, bound=">= 1"),
    # the device readout documents
    "qubits": _Option("--qubits", int, 125, bound=">= 1"),
    "error_min": _Option("--error-min", float, 0.005, bound=_ERROR_RANGE),
    "error_max": _Option("--error-max", float, 0.05, bound=_ERROR_RANGE),
    "calibration_out": _Option(
        "--calibration-out", Path, help="write an independent calibration "
        "of every qubit at --shots/--seed; its selected column is what that "
        "calibration would postselect, not what any trial chose"),
}


def _commands() -> tuple:
    """(name, help, function, options) of every command, "study <kind>" for
    a study; the study group itself has no function. An option is a key of
    _OPTIONS, or a key and the fields that differ for this command. Built on
    each call, so a ``cmd_*`` patched on this module is the one run."""
    seeded = ("sites", "bosons", "seed")
    training = ("t", "U", "steps", "restarts", "phi", "complex_mode",
                "raw_features")
    return (
        ("basis", "enumerate and dump a basis", cmd_basis,
         ("sites", "bosons", "kind", "out")),
        ("exact", "exact diagonalization", cmd_exact,
         ("sites", "bosons", "t", "U", "phi", "basis", "orientation",
          "out_prefix", "dump_matrix")),
        ("train", "train a variational ansatz", cmd_train,
         (*seeded, "ansatz", *training, "layers",
          ("basis", {"help": "full reproduces the network's 252-state "
                             "baseline"}), "out_dir")),
        ("study", "layer / shots / noise studies", None, ()),
        ("study layers", "energy vs layer count", cmd_study_layers,
         (*seeded, ("ansatz", {"type": ("compressed", "quat")}), *training,
          "layer_grid", "out")),
        ("study shots", "finite-shot energy deviations", cmd_study_shots,
         (*seeded, "checkpoint", "t", "U", "grid", "trials", "out")),
        ("study noise", "noisy-device energies per mode", cmd_study_noise,
         (*seeded, ("checkpoint", {
             "nargs": "+",
             "help": "one trained circuit checkpoint per U value"}),
          "t", ("U", {"type": str, "help": "comma-separated U values"}),
          "modes", "shots", ("trials", {"default": 1}), "qubits",
          "error_min", "error_max", "out", "calibration_out")),
        ("noise-run", "single noisy energy evaluation", cmd_noise_run,
         (*seeded, "checkpoint", "t", "U", "mode", "shots", "qubits",
          "error_min", "error_max")),
    )


class _Reparse(Exception):
    """Raised by a _LeanParser that would print a help or usage message."""


class _LeanParser(argparse.ArgumentParser):
    """A parser that holds only the running command, so its help and usage
    messages would list only that one: it prints none of them, but raises
    _Reparse for the full parser to print."""

    def print_help(self, *args, **kwargs):
        raise _Reparse

    print_usage = error = exit = print_help


def _build_parser(config: dict | None = None,
                  command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser with ``config``'s defaults. Where the words
    of ``command`` ("exact", "study noise") begin with a command's name, it
    is a _LeanParser that holds only that command; otherwise (None, "study",
    an unknown word) it holds every command. A config key must be an option
    of some command."""
    config = config or {}
    for key in config:
        if key not in _OPTIONS:
            raise ValueError(f"key {key!r} is no option of any command")
    words = command.split() if command else []
    commands = _commands()
    named = [name.split() for name, _, func, _ in commands
             if func and name.split() == words[:len(name.split())]]
    if named:  # the command and the study group it belongs to
        commands = [c for c in commands
                    if c[0].split() == named[0][:len(c[0].split())]]
    parser = (_LeanParser if named else argparse.ArgumentParser)(
        prog="bosehub",
        description="Bose-Hubbard ground states: exact, neural and "
                    "single-qubit variational pipelines.")
    parser.add_argument("--check", action="store_true",
                        help="run oracle self-checks before the command")
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON file of flag defaults, overridden by "
                             "explicit flags")
    groups = {"": parser.add_subparsers(dest="command")}
    for name, help, func, items in commands:
        group, _, leaf = name.rpartition(" ")
        p = groups[group].add_parser(leaf, help=help)
        if func is None:
            groups[name] = p.add_subparsers(dest="study_kind", required=True)
            continue
        options = {}
        for item in items:
            dest, changes = (item, {}) if isinstance(item, str) else item
            options[dest] = option = _OPTIONS[dest]._replace(**changes)
            kind = option.type
            p.add_argument(option.flag, dest=dest, default=option.default,
                           help=option.help, **(
                               {"action": "store_true"} if kind is bool else
                               {"choices": kind} if isinstance(kind, tuple)
                               else {"type": kind, "nargs": option.nargs}))
        p.set_defaults(func=func, options=options, **{
            key: value for key, value in config.items() if key in options})
    return parser


def _check_values(args) -> None:
    """Refuse, before any work, a missing required option of the running
    command, or a value of its options that the flag could not give or that
    breaks the option's bound, whether it came from a flag, the config file
    or (for --seed) BOSEHUB_SEED."""
    for dest, option in getattr(args, "options", {}).items():
        value, name, kind = getattr(args, dest), option.flag, option.type
        if dest == "seed" and value is None:
            name, text = "BOSEHUB_SEED", os.environ.get("BOSEHUB_SEED", "0")
            try:
                value = args.seed = int(text)
            except ValueError:
                raise ValueError(f"BOSEHUB_SEED must be an integer, "
                                 f"got {text!r}") from None
        if value is None and option.required:
            raise ValueError(f"missing required option {name} (flag or "
                             f"config file)")
        if value is None and option.default is None or kind is str:
            continue  # unset, or a comma list, which parses its own text
        if isinstance(kind, tuple):
            ok, rule = value in kind, "one of " + ", ".join(kind)
        elif kind is bool:
            ok, rule = type(value) is bool, "true or false"
        elif kind is Path:  # a list only for nargs; a config gives strings
            items = value if option.nargs and isinstance(value, list) \
                else [value]
            ok = all(isinstance(item, (str, Path)) for item in items)
            rule = "a path"
        elif option.bound == _ERROR_RANGE:  # _noise_device checks the range
            ok, rule = type(value) in (int, float), "a number"
        else:  # no bool, and no float for an int
            low = float((option.bound or ">= -inf").split()[1])
            ok = (type(value) in (int, kind) and abs(value) < math.inf
                  and value >= low)
            rule = " ".join(filter(None, (
                "an integer" if kind is int else "a finite number",
                option.bound)))
        if not ok:
            raise ValueError(f"{name} must be {rule}, got {value!r}")


def _resolve_hamiltonian(args) -> HamiltonianMatrix:
    """The running command's Hamiltonian, in its --basis, --orientation and
    --phi, or each one's _OPTIONS default where the command has no such
    option."""
    kind, orientation, phi = (getattr(args, dest, _OPTIONS[dest].default)
                              for dest in ("basis", "orientation", "phi"))
    params = ModelParams(args.t, args.U, args.sites, args.bosons, phi)
    kind = basis_mod.BasisKind(kind)
    if phi != 0.0 and kind is not basis_mod.BasisKind.REDUCED:
        raise ValueError("the deformed model lives in the reduced basis")
    descriptor = _basis(args, kind)
    if phi != 0.0:
        return build_deformed(params, descriptor, orientation)
    build = build_full if kind is basis_mod.BasisKind.FULL else build_reduced
    return build(params, descriptor)


def _basis(args, kind="reduced",
           matrix: bool = True) -> basis_mod.BasisDescriptor:
    """The --sites/--bosons basis of ``kind``, built only once a lower bound
    on what the command must hold fits in physical memory: the larger of
    enumerate_fock's last growth step, an int64 array of (N+1) x
    C(N+M-2, N) sums, and the Fock table, C(N+M-1, N) states of M one-byte
    occupations, plus with ``matrix`` a dense D x D Hamiltonian, D at least
    the states over the largest class size of ``kind`` (1, M or 2M)."""
    kind = basis_mod.BasisKind(kind)
    sites, bosons = args.sites, args.bosons
    states = math.comb(bosons + sites - 1, bosons)
    need = states * sites
    if matrix:
        largest = {basis_mod.BasisKind.FULL: 1,
                   basis_mod.BasisKind.TRANSLATION: sites,
                   basis_mod.BasisKind.REDUCED: 2 * sites}[kind]
        need += 8 * (-(-states // largest)) ** 2  # ceil, in integers
    if sites > 1:
        need = max(need, 8 * (bosons + 1) * math.comb(bosons + sites - 2,
                                                      bosons))
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
    if args.dump_matrix and args.out_prefix is None:
        raise ValueError("missing required option --out-prefix (flag or "
                         "config file)")
    if args.orientation != _OPTIONS["orientation"].default and args.phi == 0:
        raise ValueError(f"--orientation {args.orientation} orders the "
                         f"phases of --phi, which is 0")
    h = _resolve_hamiltonian(args)
    state = ground_state(h)
    print(f"{state.energy:.5f}")
    if args.out_prefix:
        args.out_prefix.parent.mkdir(parents=True, exist_ok=True)
        write_ground_state_csv(state, f"{args.out_prefix}_ground.csv")
        if args.dump_matrix:
            write_matrix_coo(h, f"{args.out_prefix}_matrix.txt")
    return 0


def _circuit_layers(args) -> int | None:
    """The circuit layer count of ``train``; None for the network, which
    takes no --layers."""
    if args.ansatz == "nn":
        if args.layers is not None:
            raise ValueError("--layers sets a circuit's layer count; "
                             "--ansatz nn has no layers")
        return None
    return DEFAULT_LAYERS if args.layers is None else args.layers


def _read_checkpoint(path, sites: int) -> qc.CircuitParams:
    """The circuit of ``sites`` features a ``--checkpoint`` file holds; any
    other file fails naming the option and the path."""
    from . import circuit as qc

    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"--checkpoint {path}: cannot read it "
                         f"({exc.strerror or exc})") from None
    try:
        params = qc.from_json(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"--checkpoint {path}: not JSON ({exc})") from None
    except KeyError as exc:
        raise ValueError(f"--checkpoint {path}: no {exc} field") from None
    except (ValueError, TypeError) as exc:
        raise ValueError(f"--checkpoint {path}: {exc}") from None
    if params.n_features != sites:
        raise ValueError(f"--checkpoint {path}: a circuit of "
                         f"{params.n_features} features, but --sites is {sites}")
    return params


def _train_config(args) -> tuple[vr.TrainConfig, bool]:
    """The training settings and complex mode, which --complex or a nonzero
    --phi turns on; --steps, the step cap, defaults to 1500 for the
    network, 1200 for a circuit and 2400 in complex mode."""
    from . import variational as vr

    complex_mode = args.complex_mode or args.phi != 0.0
    steps = args.steps
    if steps is None:
        steps = 2400 if complex_mode else 1500 if args.ansatz == "nn" else 1200
    return vr.TrainConfig(steps=steps, seed=args.seed,
                          restarts=args.restarts), complex_mode


def _comma_list(args, name: str, convert=int, what: str = "integers") -> list:
    """Option ``name`` as distinct comma-separated items, each through
    ``convert``; a bad or repeated item fails naming the option (``what``
    says what it takes)."""
    option, text = _OPTIONS[name].flag, str(getattr(args, name))
    try:
        values = [convert(item) for item in text.split(",")]
    except ValueError:
        raise ValueError(f"{option} must be comma-separated {what}, "
                         f"got {text!r}") from None
    if len(set(values)) < len(values):
        raise ValueError(f"{option} repeats a value: {text!r}")
    return values


def _noise_device(args) -> ro.SimulatedDevice:
    """The simulated device of --qubits qubits with flip rates in
    [--error-min, --error-max], checked before any basis is built."""
    from . import readout as ro

    low, high = args.error_min, args.error_max
    if not 0.0 <= low <= high < 0.5:
        raise ValueError(f"--error-min and --error-max need {_ERROR_RANGE}, "
                         f"got {low!r} and {high!r}")
    return ro.SimulatedDevice.random(args.qubits, (low, high),
                                     seed=args.seed)


def _noise_layout(args, dim: int) -> None:
    """Refuse a readout that cannot measure all ``dim`` basis classes but
    the pinned anchor on replica qubits of the --qubits qubits."""
    from . import readout as ro

    if dim < 2:
        raise ValueError("a noisy readout needs 2 or more basis classes, "
                         "since one is pinned")
    need = (dim - 1) * ro.REPLICAS
    if args.qubits < need:
        raise ValueError(f"--qubits must be >= {need} for {dim - 1} "
                         f"coefficients x {ro.REPLICAS} replicas, "
                         f"got {args.qubits}")


def cmd_train(args) -> int:
    from . import variational as vr

    layers = _circuit_layers(args)
    cfg, complex_mode = _train_config(args)
    h = _resolve_hamiltonian(args)
    state = ground_state(h)
    exact = state.energy
    if layers is None:
        ansatz = vr.MlpAnsatz(h, complex_mode=complex_mode,
                              raw_features=args.raw_features)
    else:
        ansatz = vr.CircuitAnsatz(h, args.ansatz, layers,
                                  complex_mode=complex_mode,
                                  raw_features=args.raw_features)
    result = vr.train(ansatz, h, cfg, state)
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
            "steps": cfg.steps, "seed": args.seed, "restarts": args.restarts,
        }, {
            "final_energy": result.final_energy,
            "exact_energy": exact,
            "loss": exact - result.final_energy,
            "winning_seed": result.seed,
            "steps_taken": result.steps_taken,
            "stopped_on": result.stopped_on,
            "energy_variance": result.energy_variance,
            # JSON has no infinities: null where there is no bound
            "temple_lower_bound": _finite(result.temple_lower_bound),
            "excited_lower": _finite(result.excited_lower),
            "learning_rate": result.learning_rate,
            "energy_upper_bound": result.energy_upper_bound,
            "damping": _finite(result.damping),
        })
        (args.out_dir / f"{stem}_summary.json").write_text(summary)
        print(f"wrote artifacts to {args.out_dir}")
    return 0


def cmd_study_layers(args) -> int:
    from . import variational as vr

    cfg, complex_mode = _train_config(args)
    counts = _comma_list(args, "layer_grid")
    if min(counts) < 0:
        raise ValueError("layer count must be >= 0")
    h = _resolve_hamiltonian(args)
    rows = vr.layer_study(args.ansatz, counts, h, cfg,
                          complex_mode=complex_mode,
                          raw_features=args.raw_features)
    for layers, energy in rows:
        print(f"{layers} {energy:.5f}")
    if args.out:
        write_csv(args.out, ("layers", "energy"), rows)
        print(f"wrote {args.out}")
    return 0


def cmd_study_shots(args) -> int:
    from . import readout as ro

    grid = _comma_list(args, "grid")
    params = _read_checkpoint(args.checkpoint, args.sites)
    h = _resolve_hamiltonian(args)
    rows = ro.shot_study(params, h, grid, trials=args.trials, seed=args.seed)
    for shots, median, std in rows:
        print(f"{shots} {median:.5f} {std:.5f}")
    if args.out:
        ro.write_shot_study_csv(rows, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_study_noise(args) -> int:
    from . import circuit as qc
    from . import readout as ro
    from . import variational as vr

    u_values = _comma_list(args, "U", float, "numbers")
    checkpoints = (args.checkpoint if isinstance(args.checkpoint, list)
                   else [args.checkpoint])
    if len(checkpoints) != len(u_values):
        raise ValueError("need one checkpoint per U value")
    circuits = [_read_checkpoint(path, args.sites) for path in checkpoints]
    modes = _comma_list(args, "modes", ro.CorrectionMode, "modes of " +
                        ", ".join(m.value for m in ro.CorrectionMode))
    device = _noise_device(args)
    descriptor = _basis(args)
    _noise_layout(args, descriptor.dim)
    # an independent calibration (its own seed), refused before any trial
    report = (ro.calibration_report(device, args.shots, args.seed,
                                    descriptor.dim - 1)
              if args.calibration_out else None)
    rows = []
    for ui, (u, params) in enumerate(zip(u_values, circuits)):
        h = build_reduced(ModelParams(args.t, u, args.sites, args.bosons),
                          descriptor)
        # the ideal circuit is evaluated once per U, for every trial
        weights = qc.batch_weights(params, basis_mod.feature_matrix(h.basis))
        ideal = vr.rayleigh_energy(weights, h)
        for trial in range(args.trials):
            rng = np.random.default_rng(
                np.random.SeedSequence((args.seed, ui, trial)))
            energies = ro.noisy_energies(params, h, device, args.shots,
                                         modes, rng, ideal=weights)
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
        ro.write_calibration_csv(report, args.calibration_out)
        print(f"wrote {args.calibration_out}")
    return 0


def cmd_noise_run(args) -> int:
    from . import readout as ro

    params = _read_checkpoint(args.checkpoint, args.sites)
    device = _noise_device(args)
    h = _resolve_hamiltonian(args)
    _noise_layout(args, h.dim)
    energy = ro.noisy_energy_run(params, h, device, args.shots,
                                 ro.CorrectionMode(args.mode), args.seed)
    print(f"{energy:.5f}")
    return 0


def run_oracle_checks() -> list[str]:
    """Cross-validate the core numerics; prints one pass/fail line each."""
    from . import circuit as qc

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


def _finite(value: float) -> float | None:
    return value if math.isfinite(value) else None


def _summary(command: str, config: dict, results: dict) -> str:
    return json.dumps({
        "command": command,
        "config": config,
        "version": __version__,
        "results": results,
    }, indent=2, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main())
