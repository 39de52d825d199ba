"""Per-layer tracing of bosehub from outside the package.

``Tracer`` replaces the layer entry points listed in ``GROUPS`` with timing
wrappers while it is active and puts every original back when it exits. A
function imported into several modules (``from .hamiltonian import
build_full``) is replaced under every name that refers to it. Per-element
helpers such as ``basis.translate`` are left alone: they run inside the
spans of their callers and wrapping them would cost more than they do.

Each wrapped call is a span. A span's self time is its duration minus the
time its child spans cover; the self times of one group add up to the
group's metric, so the time metrics of all groups add up to the time the
outermost spans cover.
"""
from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

PACKAGE = "bosehub"
MODULES = ("basis", "hamiltonian", "_kernels", "circuit", "neural",
           "variational", "readout", "cli")

# metric -> the "module:qualname" entry points whose self time it sums
GROUPS = {
    "basis.enumerate_s": ["basis:enumerate_fock"],
    "basis.reduce_s": ["basis:translation_orbits", "basis:parity_reduce"],
    "basis.build_self_s": ["basis:full_basis", "basis:reduced_basis",
                           "basis:feature_matrix"],
    "hamiltonian.build_full_s": ["hamiltonian:build_full"],
    "hamiltonian.build_reduced_self_s": ["hamiltonian:build_reduced"],
    "hamiltonian.build_deformed_self_s": ["hamiltonian:build_deformed"],
    "hamiltonian.ground_state_s": ["hamiltonian:ground_state",
                                   "hamiltonian:min_eigenvalue_power"],
    # split into kernels.grad_s and kernels.forward_s by want_grad
    "kernels": ["_kernels:circuit_batch"],
    "circuit.glue_self_s": [
        "circuit:weight_of", "circuit:complex_weight_of", "circuit:gradient",
        "circuit:batch_weights", "circuit:batch_complex_weights",
        "circuit:batch_weights_and_jacobian", "circuit:sample",
        "circuit:init_params", "circuit:from_json"],
    "neural.forward_s": ["neural:mlp_forward", "neural:output_to_coefficient"],
    "neural.backward_s": ["neural:mlp_backward"],
    "variational.residual_s": ["variational:rayleigh_residual",
                               "variational:rayleigh_energy"],
    "variational.chain_self_s": [
        "variational:MlpAnsatz.energy_gradient",
        "variational:CircuitAnsatz.energy_gradient",
        "variational:MlpAnsatz.coefficients",
        "variational:CircuitAnsatz.coefficients",
        "variational:MlpAnsatz.initial_vector",
        "variational:CircuitAnsatz.initial_vector"],
    "variational.adam_self_s": ["variational:train"],
    "readout.calibrate_s": ["readout:calibrate", "readout:calibration_report"],
    "readout.measure_s": ["readout:SimulatedDevice.measure"],
    "readout.correct_s": ["readout:correct"],
    "readout.noisy_energies_self_s": ["readout:noisy_energies",
                                      "readout:noisy_energy_run"],
    "readout.device_s": ["readout:SimulatedDevice.random",
                         "readout:replica_layout"],
    "readout.shot_study_s": ["readout:shot_study"],
    "cli.artifacts_s": [
        "basis:write_basis_csv", "hamiltonian:write_matrix_coo",
        "hamiltonian:write_ground_state_csv", "circuit:to_json",
        "neural:to_json", "variational:write_trace_csv",
        "variational:MlpAnsatz.export", "variational:CircuitAnsatz.export",
        "readout:write_calibration_csv", "readout:write_shot_study_csv",
        "readout:write_energy_report_csv"],
    "cli.self_s": ["cli:main", "cli:cmd_basis", "cli:cmd_exact",
                   "cli:cmd_train", "cli:cmd_study_layers",
                   "cli:cmd_study_shots", "cli:cmd_study_noise",
                   "cli:cmd_noise_run", "cli:run_oracle_checks"],
}

def _count_states(counts, args, kwargs, result):
    counts["basis.states"] += len(result)


def _count_full(counts, args, kwargs, result):
    counts["hamiltonian.build_full_calls"] += 1
    counts["hamiltonian.dense_full_mb"] += result.matrix.nbytes / 1e6


def _count_ground(counts, args, kwargs, result):
    counts["hamiltonian.ground_state_calls"] += 1


def _count_kernel(counts, args, kwargs, result):
    counts["kernels.calls"] += 1
    counts["kernels.rows"] += len(result[0])


def _count_step(counts, args, kwargs, result):
    counts["variational.steps"] += 1


def _count_measure(counts, args, kwargs, result):
    counts["readout.measure_calls"] += 1


def _count_correct(counts, args, kwargs, result):
    counts["readout.correct_calls"] += 1
    observed = args[0] if args else kwargs["observed"]
    inv = args[1] if len(args) > 1 else kwargs["inv"]
    f0 = observed.frequency0
    raw0 = float(inv.matrix[0, 0]) * f0 + float(inv.matrix[0, 1]) * (1.0 - f0)
    if raw0 < 0.0 or raw0 > 1.0:
        counts["readout.correct_clamped"] += 1


# counts recorded at the same boundaries: entry point -> counter
COUNTERS = {
    "basis:enumerate_fock": _count_states,
    "hamiltonian:build_full": _count_full,
    "hamiltonian:ground_state": _count_ground,
    "_kernels:circuit_batch": _count_kernel,
    "variational:MlpAnsatz.energy_gradient": _count_step,
    "variational:CircuitAnsatz.energy_gradient": _count_step,
    "readout:SimulatedDevice.measure": _count_measure,
    "readout:correct": _count_correct,
}


def _kernel_group(args, kwargs):
    want_grad = args[3] if len(args) > 3 else kwargs.get("want_grad", True)
    return "kernels.grad_s" if want_grad else "kernels.forward_s"


TIME_METRICS = [m for m in GROUPS if m != "kernels"] + [
    "kernels.grad_s", "kernels.forward_s"]
COUNT_METRICS = ["basis.states", "hamiltonian.build_full_calls",
                 "hamiltonian.dense_full_mb", "hamiltonian.ground_state_calls",
                 "kernels.calls", "kernels.rows", "variational.steps",
                 "readout.measure_calls", "readout.correct_calls",
                 "readout.correct_clamped"]


class Tracer:
    """Context manager that wraps the layer entry points of bosehub.

    ``self_s`` and ``counts`` accumulate over everything run inside the
    context; ``covered_s`` is the time the outermost spans cover. With
    ``keep_spans`` set, ``spans`` lists (operation, name, start, end,
    parent index) for every span, for ``write_spans``.
    """

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.covered_s = 0.0
        self.operation = 0
        self.keep_spans = False
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._patches: list[tuple] = []

    # -- installing and removing the wrappers --------------------------------

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _install(self) -> None:
        self.missing = []
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}")
                   for name in MODULES}
        for group, targets in GROUPS.items():
            for target in targets:
                module_name, qualname = target.split(":")
                owner = modules[module_name]
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                raw = vars(owner).get(attr) if owner is not None else None
                if raw is None:
                    self.missing.append(target)
                    continue
                chooser = _kernel_group if group == "kernels" else group
                counter = COUNTERS.get(target)
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrap(raw.__func__, target,
                                                   chooser, counter))
                else:
                    wrapped = self._wrap(raw, target, chooser, counter)
                self._patch(owner, attr, raw, wrapped)
                if not path:  # the same function under other module names
                    for other in modules.values():
                        for name, value in list(vars(other).items()):
                            if value is raw and other is not owner:
                                self._patch(other, name, raw, wrapped)

    def _patch(self, owner, name, original, wrapped) -> None:
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapped)

    def _restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- the spans -----------------------------------------------------------

    def _wrap(self, fn, target, group, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = group(args, kwargs) if callable(group) else group
            stack = tracer._stack
            index = None
            if tracer.keep_spans:
                index = len(tracer.spans)
                parent = stack[-1][1] if stack else None
                tracer.spans.append(None)
            frame = [0.0, index]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                tracer.self_s[name] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                else:
                    tracer.covered_s += duration
                if index is not None:
                    tracer.spans[index] = (tracer.operation, target, start,
                                           end, parent)
            if counter is not None:
                counter(tracer.counts, args, kwargs, result)
            return result

        return traced

    # -- results -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Totals so far: every time metric and every count, by name."""
        values = {m: self.self_s.get(m, 0.0) for m in TIME_METRICS}
        values.update({m: self.counts.get(m, 0.0) for m in COUNT_METRICS})
        values["covered_s"] = self.covered_s
        return values

    def write_spans(self, path) -> None:
        """One JSON line per span: operation, name, start, end, parent."""
        with open(path, "w") as fh:
            for op, name, start, end, parent in self.spans:
                fh.write(json.dumps({"op": op, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
