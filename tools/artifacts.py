#!/usr/bin/env python3
"""Byte-compare the artifacts of a parent commit and the working tree.

    python3 tools/artifacts.py --parent <sha> [--threads N]

Run from anywhere inside the repository. The parent commit is exported with
``git archive`` and the working tree's files are copied, as
``tools/pairs.py`` does, each into a fresh temporary directory that is
removed afterwards. ``COMMANDS`` is then run once per side, one command after
another, with ``OPENBLAS_NUM_THREADS=N`` (default 1), ``COLUMNS=80`` and the
side's own ``src/`` on ``PYTHONPATH``. Every command runs in the side's output
directory, so the paths it prints and the files it writes are the same on
both sides; its stdout, stderr and exit status go to ``<name>.log``, which
for the help and usage-error commands holds the CLI's messages.

Every file of the two output directories is compared byte for byte. The
script prints each file that differs or exists on one side only and exits
1, or prints how many files matched and exits 0.
"""
from __future__ import annotations

import argparse
import filecmp
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from pairs import export_parent, export_working_tree, git

SIDES = ("parent", "change")
CKPT = "../tree/perfbench/checkpoints/compressed_U{}_checkpoint.json"
MODES = "uncorrected,corrected,postselected,postselected-corrected"

# name -> bosehub arguments; every file a command writes lands beside its log
COMMANDS = {
    "basis_6_5": ["basis", "--out", "basis_6_5.csv"],
    "basis_8_8": ["basis", "--sites", "8", "--bosons", "8",
                  "--out", "basis_8_8.csv"],
    "exact_full": ["exact", "--U", "5", "--basis", "full", "--dump-matrix",
                   "--out-prefix", "exact_full"],
    "exact_reduced": ["exact", "--U", "5", "--dump-matrix",
                      "--out-prefix", "exact_reduced"],
    "exact_deformed": ["exact", "--U", "5", "--phi", "1.5707963",
                       "--dump-matrix", "--out-prefix", "exact_deformed"],
    "exact_8_8": ["exact", "--sites", "8", "--bosons", "8", "--U", "5",
                  "--out-prefix", "exact_8_8"],
    "exact_8_8_deformed": ["exact", "--sites", "8", "--bosons", "8",
                           "--U", "5", "--phi", "0.7", "--dump-matrix",
                           "--out-prefix", "exact_8_8_deformed"],
    "exact_10_8": ["exact", "--sites", "10", "--bosons", "8", "--U", "5",
                   "--out-prefix", "exact_10_8"],
    "exact_t0": ["exact", "--t", "0", "--U", "5", "--basis", "full",
                 "--out-prefix", "exact_t0"],
    "train_nn": ["train", "--ansatz", "nn", "--U", "5",
                 "--out-dir", "train_nn"],
    "train_nn_restarts": ["train", "--ansatz", "nn", "--U", "5",
                          "--restarts", "2", "--out-dir", "train_nn_restarts"],
    "train_quat": ["train", "--ansatz", "quat", "--U", "5",
                   "--out-dir", "train_quat"],
    "train_quat_steps0": ["train", "--ansatz", "quat", "--U", "5",
                          "--steps", "0", "--out-dir", "train_quat_steps0"],
    "train_quat_steps1": ["train", "--ansatz", "quat", "--U", "5",
                          "--steps", "1", "--out-dir", "train_quat_steps1"],
    "train_quat_restarts3": ["train", "--ansatz", "quat", "--U", "5",
                             "--restarts", "3",
                             "--out-dir", "train_quat_restarts3"],
    "train_compressed": ["train", "--ansatz", "compressed", "--U", "5",
                         "--restarts", "2", "--out-dir", "train_compressed"],
    "train_quat_complex": ["train", "--ansatz", "quat", "--U", "5",
                           "--complex", "--out-dir", "train_quat_complex"],
    "train_compressed_phi": ["train", "--ansatz", "compressed", "--U", "5",
                             "--phi", "1.5707963", "--complex",
                             "--out-dir", "train_compressed_phi"],
    "train_nn_complex": ["train", "--ansatz", "nn", "--U", "5", "--complex",
                         "--out-dir", "train_nn_complex"],
    "train_nn_full": ["train", "--ansatz", "nn", "--U", "5", "--basis",
                      "full", "--steps", "40", "--out-dir", "train_nn_full"],
    # the network baseline on all 252 states, run to its certificate
    "train_nn_full_u2": ["train", "--ansatz", "nn", "--U", "2", "--basis",
                         "full", "--out-dir", "train_nn_full_u2"],
    "train_nn_raw": ["train", "--ansatz", "nn", "--U", "5", "--raw-features",
                     "--out-dir", "train_nn_raw"],
    "train_quat_raw": ["train", "--ansatz", "quat", "--U", "5",
                       "--raw-features", "--out-dir", "train_quat_raw"],
    "train_nn_lr": ["train", "--ansatz", "nn", "--U", "5", "--lr", "0.02",
                    "--out-dir", "train_nn_lr"],
    "train_quat_lr": ["train", "--ansatz", "quat", "--U", "5", "--lr", "0.02",
                      "--out-dir", "train_quat_lr"],
    "study_layers": ["study", "layers", "--ansatz", "quat", "--U", "5",
                     "--layer-grid", "3,4", "--steps", "300",
                     "--out", "layers.csv"],
    "study_shots": ["study", "shots", "--checkpoint", CKPT.format(5),
                    "--U", "5", "--trials", "50", "--out", "shots.csv"],
    "study_noise": ["study", "noise", "--checkpoint", CKPT.format(2),
                    CKPT.format(5), "--U", "2,5", "--modes", MODES,
                    "--trials", "5", "--seed", "3", "--out", "noise.csv",
                    "--calibration-out", "calibration.csv"],
    "study_noise_postselected": [
        "study", "noise", "--checkpoint", CKPT.format(5), "--U", "5",
        "--modes", "postselected", "--trials", "5", "--seed", "3",
        "--out", "noise_postselected.csv",
        "--calibration-out", "calibration_postselected.csv"],
    # 6 sites, 4 bosons: 16 classes, so a layout of 15 coefficients
    "study_noise_6_4": ["study", "noise", "--sites", "6", "--bosons", "4",
                        "--checkpoint", CKPT.format(5), "--U", "5",
                        "--modes", MODES, "--trials", "3", "--seed", "3",
                        "--out", "noise_6_4.csv",
                        "--calibration-out", "calibration_6_4.csv"],
    "noise_run": ["noise-run", "--checkpoint", CKPT.format(5), "--U", "5"],
    "noise_run_6_4": ["noise-run", "--sites", "6", "--bosons", "4",
                      "--checkpoint", CKPT.format(5), "--U", "5"],
    "noise_run_postselected": ["noise-run", "--checkpoint", CKPT.format(5),
                               "--U", "5", "--mode", "postselected"],
    "noise_run_postselected_corrected": [
        "noise-run", "--checkpoint", CKPT.format(5), "--U", "5",
        "--mode", "postselected-corrected"],
    "check": ["--check"],
    # help and usage errors: the messages the full parser prints
    "help": ["--help"],
    "help_exact": ["--help", "exact"],
    "exact_help": ["exact", "--help"],
    "train_help": ["train", "--help"],
    "study_help": ["study", "--help"],
    "study_noise_help": ["study", "noise", "--help"],
    "no_command": [],
    "unknown_command": ["bogus", "--U", "5"],
    "bad_top_level_flag": ["--bogus", "exact", "--U", "5"],
    "bad_value": ["exact", "--U", "abc"],
    "bad_choice": ["train", "--ansatz", "bogus", "--U", "5"],
    "extra_argument": ["exact", "--U", "5", "extra"],
    "study_without_kind": ["study"],
    "unknown_study": ["study", "bogus"],
    # a 6-feature checkpoint for a 9-site model
    "checkpoint_sites_mismatch": ["study", "shots", "--sites", "9",
                                  "--bosons", "2", "--checkpoint",
                                  CKPT.format(5), "--U", "5"],
}


def run_commands(side: Path, threads: int) -> Path:
    """Run every command in ``side``/out against ``side``/tree."""
    out = side / "out"
    out.mkdir()
    # COLUMNS fixes the width argparse wraps its messages to
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": str(side / "tree" / "src"), "COLUMNS": "80"}
    for name, argv in COMMANDS.items():
        proc = subprocess.run([sys.executable, "-m", "bosehub.cli", *argv],
                              cwd=out, env=env, capture_output=True,
                              text=True)
        (out / f"{name}.log").write_text(
            f"exit {proc.returncode}\n--- stdout\n{proc.stdout}"
            f"--- stderr\n{proc.stderr}")
    return out


def differing(parent: Path, change: Path) -> list[str]:
    """Relative paths of the files that differ or exist on one side only."""
    files = {side: {p.relative_to(root) for p in root.rglob("*")
                    if p.is_file()}
             for side, root in (("parent", parent), ("change", change))}
    return sorted(
        str(name) for name in files["parent"] | files["change"]
        if name not in files["parent"] or name not in files["change"]
        or not filecmp.cmp(parent / name, change / name, shallow=False))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="parent commit")
    parser.add_argument("--threads", type=int, default=1,
                        help="OPENBLAS_NUM_THREADS for every command")
    args = parser.parse_args(argv)

    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel")
                .decode().strip())
    parent_sha = git(root, "rev-parse", "--verify",
                     f"{args.parent}^{{commit}}").decode().strip()
    with tempfile.TemporaryDirectory(prefix="artifacts-") as tmp:
        sides = {side: Path(tmp) / side for side in SIDES}
        for side in sides.values():
            (side / "tree").mkdir(parents=True)
        export_parent(root, parent_sha, sides["parent"] / "tree")
        export_working_tree(root, sides["change"] / "tree")
        outs = {name: run_commands(side, args.threads)
                for name, side in sides.items()}
        names = {p.relative_to(outs["change"]) for p in
                 outs["change"].rglob("*") if p.is_file()}
        diff = differing(outs["parent"], outs["change"])
    for name in diff:
        print(f"differs: {name}")
    print(f"{len(names) - len(diff)} of {len(names)} files identical at "
          f"OPENBLAS_NUM_THREADS={args.threads} ({parent_sha[:7]} vs the "
          f"working tree)")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
