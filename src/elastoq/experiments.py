"""Experiment pipeline: initial states, fidelity sweeps, field reconstruction.

States are prepared in the physical frame (uniform excitation of one velocity
component on a centered index block), transformed to the Schroedinger frame by
the blockwise square root of the material matrix, and normalized; the norm
factor is carried along so fields can be mapped back.  Fidelity compares the
Trotterized walk against the exact propagator at every step.
"""
from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .circuits import GATE_KINDS, ROTATIONS, TrotterStep, build_program, folded_rotations
from .hamiltonian import SWEEPS, HamiltonianModel, Propagator, check_state, qubit_count, step_cnots
from .lattice import LatticeShape
from .media import MaterialParams, STATE_DIM, check_choice, check_count, check_real, whole_steps

THREADS_ENV_VAR = "ELASTOQ_THREADS"

#: The initial states, a central pulse and P and S waves on the bulk, each as (velocity
#: component excited, least n, whether y and z span the bulk 2..N-3 or the central pair).
INITS = {"pulse": (2, 2, False), "p": (2, 3, True), "s": (0, 3, True)}

#: State-register component indices of the reconstructed fields.
FIELD_COMPONENTS = {"v_z": 2, "sigma_zz": 5}


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment run; validated on construction, also by replace."""

    n: int
    h: float = 1.0
    rho: float = 1.0
    E: float = 0.646
    nu: float = 0.255
    T: float = 10.0
    taus: tuple[float, ...] = (0.1,)
    init: str = "pulse"
    scheme: str = "u1"
    out_dir: str = "elastoq-out"
    clip: float = 0.02

    def __post_init__(self):
        # the grid and medium refuse a bad value or type by name, also for plan_experiment
        LatticeShape(n=self.n, h=self.h)
        MaterialParams(rho=self.rho, E=self.E, nu=self.nu)
        check_real("T", self.T)
        if not isinstance(self.taus, tuple):
            raise ValueError(f"taus must be a tuple of real numbers, got {self.taus!r}")
        # init and scheme are refused below unless they are one of their strings
        if not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a string, got {self.out_dir!r}")
        check_choice("init", self.init, INITS)
        check_choice("scheme", self.scheme, SWEEPS)
        least_n = INITS[self.init][1]
        if self.n < least_n:
            raise ValueError(f"{self.init} initial state needs n >= {least_n}")
        if not self.taus:
            raise ValueError("at least one tau is required")
        for tau in self.taus:  # before the %g below formats it
            check_real("taus", tau)
            whole_steps(self.T, tau)
        # one fidelity_tau{tau:g}.csv, manifest curve and summary row per tau
        if len({f"{tau:g}" for tau in self.taus}) < len(self.taus):
            raise ValueError(f"taus must name distinct step sizes, got {list(self.taus)}")
        check_real("clip", self.clip, -math.inf, math.inf)  # its type; its range is [0, 1)
        if not 0 <= self.clip < 1:
            raise ValueError(f"clip fraction must lie in [0, 1), got {self.clip}")


def config_model(config: ExperimentConfig) -> HamiltonianModel:
    params = MaterialParams(rho=config.rho, E=config.E, nu=config.nu)
    return HamiltonianModel.build(LatticeShape(n=config.n, h=config.h), params)


def central_indices(n: int) -> list[int]:
    """The two center grid indices N/2 - 1 and N/2."""
    points = 1 << n
    return [points // 2 - 1, points // 2]


def bulk_indices(n: int) -> list[int]:
    """Interior indices 2 .. N-3 (empty below n = 3)."""
    points = 1 << n
    return list(range(2, points - 2))


@dataclass(frozen=True, eq=False)
class PreparedState:
    """Normalized Schroedinger-frame state plus the recorded norm factor."""

    psi: np.ndarray
    norm_factor: float


def _apply_cell(mat16: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Blockwise 16x16 action on the component axis of (16, N, N, N)."""
    return np.tensordot(mat16, grid, axes=(1, 0))


def build_initial_state(config: ExperimentConfig, model: HamiltonianModel) -> PreparedState:
    """Uniform velocity excitation on the config's grid, transformed by model's medium."""
    if model.shape.n != config.n:
        raise ValueError(f"n of the model ({model.shape.n}) differs from config n ({config.n})")
    points = model.shape.points
    component, _, bulk = INITS[config.init]
    center = central_indices(config.n)
    span = bulk_indices(config.n) if bulk else center
    w = np.zeros((STATE_DIM, points, points, points))
    w[np.ix_([component], center, span, span)] = 1.0
    w /= np.linalg.norm(w)
    u_tilde = _apply_cell(model.cell.b_sqrt, w)
    factor = float(np.linalg.norm(u_tilde))
    psi = (u_tilde / factor).reshape(-1)
    return PreparedState(psi=psi, norm_factor=factor)


# ---------------------------------------------------------------------------
# field reconstruction
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FieldSlice:
    """One reconstructed physical field on a 2D plane, raw (unclipped) values."""

    component: str
    plane_axis: str
    plane_index: int
    data: np.ndarray
    norm_factor: float
    max_imag: float


def _field_plane(n: int) -> tuple[str, int]:
    """The plane every field is cut on: x at the first central index N/2 - 1."""
    return "x", central_indices(n)[0]


def _physical_field(model: HamiltonianModel, psi: np.ndarray, norm_factor: float) -> np.ndarray:
    """The physical-frame field (16, N, N, N) of a full-register state."""
    check_state(psi, model.dim, batch=False)
    check_real("norm_factor", norm_factor)
    points = model.shape.points
    return norm_factor * _apply_cell(model.cell.b_inv_sqrt,
                                     psi.reshape(STATE_DIM, points, points, points))


def reconstruct_fields(model: HamiltonianModel, psi: np.ndarray,
                       norm_factor: float) -> dict[str, FieldSlice]:
    """Map a state back to the physical frame and slice out v_z and sigma_zz."""
    w = _physical_field(model, psi, norm_factor)
    plane_axis, plane_index = _field_plane(model.shape.n)
    slices = {}
    for name, comp in FIELD_COMPONENTS.items():
        cube = w[comp, plane_index]  # x is the first grid axis
        slices[name] = FieldSlice(
            component=name, plane_axis=plane_axis, plane_index=plane_index,
            data=np.real(cube).copy(), norm_factor=norm_factor,
            max_imag=float(np.max(np.abs(np.imag(cube)))))
    return slices


def clip_values(data: np.ndarray, fraction: float) -> tuple[np.ndarray, float | None]:
    """Clip the top fraction of magnitudes; returns (clipped, threshold)."""
    if fraction <= 0:
        return data, None
    threshold = float(np.quantile(np.abs(data), 1.0 - fraction))
    return np.clip(data, -threshold, threshold), threshold


def b_weighted_norm_sq(model: HamiltonianModel, psi: np.ndarray,
                       norm_factor: float) -> float:
    """Conserved energy-style quantity <w, B w> of the reconstructed field."""
    w = _physical_field(model, psi, norm_factor)
    bw = _apply_cell(model.cell.b_cell, w)
    return float((w.conj() * bw).sum().real)  # not vdot: BLAS splits its sum by thread count


# ---------------------------------------------------------------------------
# fidelity sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FidelityCurve:
    """Fidelity time series of one Trotter step size against the exact flow."""

    tau: float
    times: np.ndarray
    fidelities: np.ndarray
    snapshots: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    @property
    def final_fidelity(self) -> float:
        return float(self.fidelities[-1])


def fidelity_curve(exact: Propagator, prepared: PreparedState, scheme: str,
                   tau: float, T: float,
                   snapshot_steps: tuple[int, ...] = ()) -> FidelityCurve:
    """Walk one step size to the horizon, recording fidelity at every step.

    The Trotter walk steps exact.model, so one factored propagator serves
    every tau.  At each step m in snapshot_steps (0..T/tau) the (trotter, exact)
    state pair is kept, keyed by m, for field reconstruction.  Before any step,
    ValueError if T is not a whole number of tau steps (whole_steps), a snapshot
    step is not one of 0..T/tau, or prepared.psi is not finite.
    """
    steps = whole_steps(T, tau)
    for m in snapshot_steps:
        check_count("snapshot_steps", m, 0, steps)
    # checked once per walk, not per step: a NaN would spread over every entry
    if not np.isfinite(prepared.psi).all():
        raise ValueError("psi must be finite: the prepared state holds NaN or inf entries")
    trotter = TrotterStep(exact.model, scheme, tau)
    psi_trotter = prepared.psi.copy()
    # The exact walk stays in spectral coordinates, c(m tau) = e^{-i lambda m tau} c(0),
    # so a step transforms only the Trotter state; the overlap is basis-free.
    coeffs = exact.to_spectral(prepared.psi)
    step_phases = exact.phases(tau)
    times = np.arange(steps + 1) * tau
    fidelities = np.empty(steps + 1)
    # Both walks start from the identical prepared state, so F(0) = 1 exactly.
    fidelities[0] = 1.0
    snapshots: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    if 0 in snapshot_steps:
        snapshots[0] = (psi_trotter.copy(), prepared.psi.copy())
    for m in range(1, steps + 1):
        psi_trotter = trotter.apply(psi_trotter)
        # in place, and rounded as step_phases * coeffs (coeffs *= step_phases is not)
        np.multiply(step_phases, coeffs, out=coeffs)
        # summed by numpy, not BLAS zdotc, whose sum depends on the BLAS thread count;
        # |<c, s>| = |<s, c>|, so the fresh array s is conjugated in place, and it is
        # freed here, not held through the next step's transforms
        spectral = exact.to_spectral(psi_trotter)
        np.multiply(np.conjugate(spectral, out=spectral), coeffs, out=spectral)
        fidelities[m] = abs(spectral.sum()) ** 2
        del spectral
        if m in snapshot_steps:
            snapshots[m] = (psi_trotter.copy(), exact.from_spectral(coeffs))
    return FidelityCurve(tau=tau, times=times, fidelities=fidelities,
                         snapshots=snapshots)


def _worker_count(n_jobs: int) -> int:
    raw = os.environ.get(THREADS_ENV_VAR) or "1"  # unset or empty: one worker
    workers = int(raw) if raw.isdecimal() else raw
    check_count(THREADS_ENV_VAR, workers)
    return min(n_jobs, workers)


def run_fidelity_sweep(config: ExperimentConfig, model: HamiltonianModel, prepared: PreparedState,
                       snapshot_steps: tuple[int, ...] = ()) -> dict[float, FidelityCurve]:
    """All configured step sizes from one propagator of model; snapshots on the smallest tau."""
    workers = _worker_count(len(config.taus))
    exact = Propagator(model)
    tau_min = min(config.taus)

    def job(tau: float) -> FidelityCurve:
        snaps = snapshot_steps if tau == tau_min else ()
        return fidelity_curve(exact, prepared, config.scheme, tau, config.T, snaps)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            curves = list(pool.map(job, config.taus))
    else:
        curves = [job(tau) for tau in config.taus]
    return {curve.tau: curve for curve in curves}


# ---------------------------------------------------------------------------
# output bundle
# ---------------------------------------------------------------------------

def _fidelity_csv(curve: FidelityCurve) -> str:
    lines = ["t,F"]
    lines += [f"{t:.17g},{f:.17g}" for t, f in zip(curve.times, curve.fidelities)]
    return "\n".join(lines) + "\n"


def _field_record(slc: FieldSlice, source: str, t: float, clip: float) -> dict:
    values, threshold = clip_values(slc.data, clip)
    return {
        "component": slc.component,
        "source": source,
        "time": t,
        "plane_axis": slc.plane_axis,
        "plane_index": slc.plane_index,
        "shape": list(values.shape),
        "values": [float(v) for v in values.reshape(-1)],
        "clip_fraction": clip,
        "clip_threshold": threshold,
        "clipped": threshold is not None,
        "norm_factor": slc.norm_factor,
        "max_imag": slc.max_imag,
    }


def _write_json(path: Path, payload: dict) -> None:
    # a numpy scalar (a config may hold one) is written as the Python number it holds
    text = json.dumps(payload, indent=1, sort_keys=True, default=np.generic.item)
    path.write_text(text + "\n")


def plan_experiment(config: ExperimentConfig) -> dict:
    """Print the CNOT account, gate census and step plan; returns {"qubits", "plan"}."""
    per_step_cnot = step_cnots(config.scheme, config.n)
    plan = {f"{tau:g}": whole_steps(config.T, tau) for tau in config.taus}
    print(f"dry run: qubits={qubit_count(config.n)} scheme={config.scheme} "
          f"per_step_cnot={per_step_cnot}")
    # the emitted gates by kind: the CNOT account above prices each
    # multi-controlled rotation and payload in CNOTs, the program keeps them whole
    program = build_program(config_model(config), config.scheme, config.taus[0])
    kinds = [g.kind for g in program.gates]
    census = ", ".join(f"{kinds.count(k)} {k}" for k in GATE_KINDS if k in kinds)
    rotations = sum(kinds.count(k) for k in ROTATIONS)
    print(f"  {config.scheme} program: {len(kinds)} gates ({census}); simulate folds "
          f"{folded_rotations(program)} of {rotations} rotations")
    for tau_key, steps in plan.items():
        print(f"  tau={tau_key}: steps={steps} total_cnot={steps * per_step_cnot}")
    return {"qubits": qubit_count(config.n), "plan": plan}


def run_experiment(config: ExperimentConfig) -> dict:
    """Execute the configured sweep, write outputs, print a summary.

    Returns the manifest dictionary.  Output files are a pure function of the
    config (no timestamps), so identical configs produce identical bytes.
    """
    # refused now, not at the mkdir after the sweep
    out = Path(config.out_dir)
    existing = next((path for path in (out, *out.parents) if path.exists()), out)
    if not existing.is_dir():
        raise ValueError(f"out_dir {config.out_dir!r} is unusable: {existing} is not a directory")

    started = time.perf_counter()
    model = config_model(config)
    prepared = build_initial_state(config, model)
    tau_min = min(config.taus)
    # five representative times, each moved to the nearest step of the smallest tau
    quarters = (0.0, config.T / 4, config.T / 2, 3 * config.T / 4, config.T)
    snapshot_steps = tuple(sorted({round(t / tau_min) for t in quarters}))
    curves = run_fidelity_sweep(config, model, prepared, snapshot_steps)
    # made after the sweep, so a failed run leaves no output directory
    (out / "fields").mkdir(parents=True, exist_ok=True)

    per_step_cnot = step_cnots(config.scheme, config.n)
    curve_meta = {}
    for tau, curve in curves.items():  # in the order of config.taus
        name = f"fidelity_tau{tau:g}.csv"
        (out / name).write_text(_fidelity_csv(curve))
        steps = len(curve.fidelities) - 1
        curve_meta[f"{tau:g}"] = {
            "file": name,
            "steps": steps,
            "per_step_cnot": per_step_cnot,
            "total_cnot": steps * per_step_cnot,
            "final_fidelity": curve.final_fidelity,
        }

    snapshot_files = []
    for m, (psi_trotter, psi_exact) in sorted(curves[tau_min].snapshots.items()):
        t = m * tau_min
        for source, psi in (("trotter", psi_trotter), ("exact", psi_exact)):
            slices = reconstruct_fields(model, psi, prepared.norm_factor)
            for name, slc in slices.items():
                fname = f"fields/field_{name}_{source}_t{t:g}.json"
                _write_json(out / fname, _field_record(slc, source, t, config.clip))
                snapshot_files.append(fname)

    plane_axis, plane_index = _field_plane(config.n)
    manifest = {
        "config": asdict(config),
        "qubits": qubit_count(config.n),
        "norm_factor": prepared.norm_factor,
        "plane": {"axis": plane_axis, "index": plane_index},
        "snapshot_times": [m * tau_min for m in snapshot_steps],
        "snapshot_tau": tau_min,
        "curves": curve_meta,
        "files": sorted(snapshot_files),
    }
    _write_json(out / "manifest.json", manifest)

    elapsed = time.perf_counter() - started
    print(f"{'tau':>8} {'steps':>7} {'cnot/step':>10} {'total cnot':>12} {'F(T)':>12}")
    for tau in sorted(config.taus):
        meta = curve_meta[f"{tau:g}"]
        print(f"{tau:>8g} {meta['steps']:>7} {meta['per_step_cnot']:>10} "
              f"{meta['total_cnot']:>12} {meta['final_fidelity']:>12.8f}")
    print(f"wrote {config.out_dir} in {elapsed:.2f} s")
    return manifest
