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

from .circuits import TrotterStep
from .hamiltonian import (
    HamiltonianModel,
    Propagator,
    qubit_count,
    u1_step_cnots,
    u2_step_cnots,
)
from .lattice import LatticeShape
from .media import MaterialParams, STATE_DIM

THREADS_ENV_VAR = "ELASTOQ_THREADS"

#: State-register component indices of the reconstructed fields.
FIELD_COMPONENTS = {"v_z": 2, "sigma_zz": 5}


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment run; validated by validate_config."""

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
    dry_run: bool = False


def validate_config(config: ExperimentConfig) -> None:
    # the grid and medium raise naming the bad field, also on a dry run
    LatticeShape(n=config.n, h=config.h)
    MaterialParams(rho=config.rho, E=config.E, nu=config.nu)
    if config.init not in ("pulse", "p", "s"):
        raise ValueError(f"init must be pulse, p, or s, got {config.init!r}")
    if config.scheme not in ("u1", "u2"):
        raise ValueError(f"scheme must be u1 or u2, got {config.scheme!r}")
    if config.init == "pulse" and config.n < 2:
        raise ValueError("pulse initial state needs n >= 2")
    if config.init in ("p", "s") and config.n < 3:
        raise ValueError(f"{config.init}-wave initial state needs n >= 3 "
                         "(the bulk index set is empty below that)")
    if not 0 < config.T < math.inf:
        raise ValueError(f"T must be positive and finite, got {config.T}")
    if not config.taus:
        raise ValueError("at least one tau is required")
    # one fidelity_tau{tau:g}.csv, manifest curve and summary row per tau
    if len({f"{tau:g}" for tau in config.taus}) < len(config.taus):
        raise ValueError(f"taus must name distinct step sizes, got {list(config.taus)}")
    for tau in config.taus:
        if not 0 < tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {tau}")
        steps = config.T / tau
        if abs(steps - round(steps)) > 1e-9 or round(steps) < 1:
            raise ValueError(f"tau={tau} does not divide T={config.T} "
                             "into an integer number of steps")
    if not 0 <= config.clip < 1:
        raise ValueError(f"clip fraction must lie in [0, 1), got {config.clip}")


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


@dataclass(frozen=True)
class PreparedState:
    """Normalized Schroedinger-frame state plus the recorded norm factor."""

    psi: np.ndarray
    norm_factor: float


def _apply_cell(mat16: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Blockwise 16x16 action on the component axis of (16, N, N, N)."""
    return np.tensordot(mat16, grid, axes=(1, 0))


def build_initial_state(config: ExperimentConfig,
                        model: HamiltonianModel | None = None) -> PreparedState:
    """Uniform velocity excitation, transformed and normalized."""
    validate_config(config)
    model = model if model is not None else config_model(config)
    points = model.shape.points
    center = central_indices(config.n)
    if config.init == "pulse":
        component, support = 2, (center, center, center)
    elif config.init == "p":
        component, support = 2, (center, bulk_indices(config.n), bulk_indices(config.n))
    else:
        component, support = 0, (center, bulk_indices(config.n), bulk_indices(config.n))
    w = np.zeros((STATE_DIM, points, points, points))
    w[np.ix_([component], *support)] = 1.0
    w /= np.linalg.norm(w)
    u_tilde = _apply_cell(model.cell.b_sqrt, w)
    factor = float(np.linalg.norm(u_tilde))
    psi = (u_tilde / factor).reshape(-1)
    return PreparedState(psi=psi, norm_factor=factor)


# ---------------------------------------------------------------------------
# field reconstruction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
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


def reconstruct_fields(model: HamiltonianModel, psi: np.ndarray,
                       norm_factor: float) -> dict[str, FieldSlice]:
    """Map a state back to the physical frame and slice out v_z and sigma_zz."""
    points = model.shape.points
    plane_axis, plane_index = _field_plane(model.shape.n)
    grid = psi.reshape(STATE_DIM, points, points, points)
    w = norm_factor * _apply_cell(model.cell.b_inv_sqrt, grid)
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
    points = model.shape.points
    grid = psi.reshape(STATE_DIM, points, points, points)
    w = norm_factor * _apply_cell(model.cell.b_inv_sqrt, grid)
    bw = _apply_cell(model.cell.b_cell, w)
    return float(np.vdot(w, bw).real)


# ---------------------------------------------------------------------------
# fidelity sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FidelityCurve:
    """Fidelity time series of one Trotter step size against the exact flow."""

    tau: float
    times: np.ndarray
    fidelities: np.ndarray
    snapshots: dict[float, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    @property
    def final_fidelity(self) -> float:
        return float(self.fidelities[-1])


def fidelity_curve(exact: Propagator, prepared: PreparedState, scheme: str,
                   tau: float, T: float,
                   snapshot_times: tuple[float, ...] = ()) -> FidelityCurve:
    """Walk one step size to the horizon, recording fidelity at every step.

    The Trotter walk steps exact.model, so one factored propagator serves
    every tau.  snapshot_times (multiples of tau) capture (trotter, exact)
    state pairs for later field reconstruction.  A non-finite prepared.psi
    raises ValueError.
    """
    # checked once per walk, not per step: a NaN would spread over every entry
    if not np.isfinite(prepared.psi).all():
        raise ValueError("psi must be finite: the prepared state holds NaN or inf entries")
    steps = round(T / tau)
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
    wanted = {round(t / tau) for t in snapshot_times}
    snapshots: dict[float, tuple[np.ndarray, np.ndarray]] = {}
    if 0 in wanted:
        snapshots[0.0] = (psi_trotter.copy(), prepared.psi.copy())
    for m in range(1, steps + 1):
        psi_trotter = trotter.apply(psi_trotter)
        # in place, and rounded as step_phases * coeffs (coeffs *= step_phases is not)
        np.multiply(step_phases, coeffs, out=coeffs)
        fidelities[m] = abs(np.vdot(coeffs, exact.to_spectral(psi_trotter))) ** 2
        if m in wanted:
            snapshots[float(times[m])] = (psi_trotter.copy(), exact.from_spectral(coeffs))
    return FidelityCurve(tau=tau, times=times, fidelities=fidelities,
                         snapshots=snapshots)


def _worker_count(n_jobs: int) -> int:
    raw = os.environ.get(THREADS_ENV_VAR, "")
    try:
        cap = int(raw)
    except ValueError:
        cap = 1
    return max(1, min(n_jobs, cap))


def run_fidelity_sweep(config: ExperimentConfig,
                       snapshot_times: tuple[float, ...] = ()) -> dict[float, FidelityCurve]:
    """All configured step sizes; snapshots are taken on the smallest tau only."""
    validate_config(config)
    model = config_model(config)
    return _sweep(config, model, build_initial_state(config, model), snapshot_times)


def _sweep(config: ExperimentConfig, model: HamiltonianModel, prepared: PreparedState,
           snapshot_times: tuple[float, ...]) -> dict[float, FidelityCurve]:
    """run_fidelity_sweep on a built model and state; one propagator for all tau."""
    exact = Propagator(model)
    tau_min = min(config.taus)

    def job(tau: float) -> FidelityCurve:
        snaps = snapshot_times if tau == tau_min else ()
        return fidelity_curve(exact, prepared, config.scheme, tau, config.T, snaps)

    workers = _worker_count(len(config.taus))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            curves = list(pool.map(job, config.taus))
    else:
        curves = [job(tau) for tau in config.taus]
    return {curve.tau: curve for curve in curves}


# ---------------------------------------------------------------------------
# output bundle
# ---------------------------------------------------------------------------

def default_snapshot_times(T: float, tau: float) -> tuple[float, ...]:
    """Five representative times snapped onto the step grid of tau."""
    raw = [0.0, T / 4, T / 2, 3 * T / 4, T]
    snapped = sorted({round(t / tau) * tau for t in raw})
    return tuple(snapped)


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
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def run_experiment(config: ExperimentConfig) -> dict:
    """Execute the configured sweep, write outputs, print a summary.

    Returns the manifest dictionary.  Output files are a pure function of the
    config (no timestamps), so identical configs produce identical bytes.
    """
    validate_config(config)
    per_step_cnot = (u1_step_cnots if config.scheme == "u1" else u2_step_cnots)(config.n)
    plan = {f"{tau:g}": round(config.T / tau) for tau in config.taus}

    if config.dry_run:
        print(f"dry run: qubits={qubit_count(config.n)} scheme={config.scheme} "
              f"per_step_cnot={per_step_cnot}")
        for tau_key, steps in plan.items():
            print(f"  tau={tau_key}: steps={steps} total_cnot={steps * per_step_cnot}")
        return {"dry_run": True, "qubits": qubit_count(config.n), "plan": plan}

    started = time.perf_counter()
    out = Path(config.out_dir)
    (out / "fields").mkdir(parents=True, exist_ok=True)
    model = config_model(config)
    prepared = build_initial_state(config, model)
    tau_min = min(config.taus)
    snapshot_times = default_snapshot_times(config.T, tau_min)
    curves = _sweep(config, model, prepared, snapshot_times)

    curve_meta = {}
    for tau in config.taus:
        curve = curves[tau]
        name = f"fidelity_tau{tau:g}.csv"
        (out / name).write_text(_fidelity_csv(curve))
        steps = round(config.T / tau)
        curve_meta[f"{tau:g}"] = {
            "file": name,
            "steps": steps,
            "per_step_cnot": per_step_cnot,
            "total_cnot": steps * per_step_cnot,
            "final_fidelity": curve.final_fidelity,
        }

    snapshot_files = []
    for t, (psi_trotter, psi_exact) in sorted(curves[tau_min].snapshots.items()):
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
        "snapshot_times": list(snapshot_times),
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
