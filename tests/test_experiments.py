import dataclasses
import json

import numpy as np
import pytest

from elastoq import experiments
from elastoq.circuits import TrotterStep
from elastoq.hamiltonian import Propagator, dense_evolve, materialize_sparse_H
from elastoq.experiments import (
    ExperimentConfig,
    PreparedState,
    b_weighted_norm_sq,
    build_initial_state,
    bulk_indices,
    central_indices,
    clip_values,
    config_model,
    fidelity_curve,
    plan_experiment,
    reconstruct_fields,
    run_experiment,
    run_fidelity_sweep,
)
from elastoq.media import (
    STATE_DIM,
    MaterialParams,
    build_cell_matrices,
    eigendecompose_axis,
)


def identity_config(**overrides):
    base = dict(n=2, h=1.0, rho=1.0, E=1.0, nu=0.0, T=2.0, taus=(0.5,))
    base.update(overrides)
    return ExperimentConfig(**base)


def sweep(config, snapshot_steps=()):
    model = config_model(config)
    return run_fidelity_sweep(config, model, build_initial_state(config, model), snapshot_steps)


class TestIndexSets:
    def test_central(self):
        assert central_indices(2) == [1, 2]
        assert central_indices(3) == [3, 4]

    def test_bulk(self):
        assert bulk_indices(3) == [2, 3, 4, 5]  # size N-4 = 4 for N=8
        assert bulk_indices(2) == []


class TestValidation:
    def test_tau_must_divide_horizon(self):
        with pytest.raises(ValueError, match="0.3"):
            identity_config(taus=(0.5, 0.3))

    def test_pulse_needs_n2(self):
        with pytest.raises(ValueError, match="n >= 2"):
            identity_config(n=1)

    @pytest.mark.parametrize("kind", ["p", "s"])
    def test_wave_states_need_n3(self, kind):
        with pytest.raises(ValueError, match="n >= 3"):
            identity_config(init=kind)

    @pytest.mark.parametrize("overrides,field", [
        (dict(T=float("inf")), "T"),
        (dict(T=float("nan")), "T"),
        (dict(taus=(float("inf"),)), "tau"),
    ])
    def test_nonfinite_rejected(self, overrides, field):
        with pytest.raises(ValueError, match=f"{field}.* must be a real number in"):
            identity_config(**overrides)

    def test_bad_clip(self):
        with pytest.raises(ValueError, match="clip"):
            identity_config(clip=1.0)

    def test_bad_choices(self):
        with pytest.raises(ValueError, match="init"):
            identity_config(init="q")
        with pytest.raises(ValueError, match="scheme"):
            identity_config(scheme="u3")

    def test_replace_validates(self):
        # a config cannot be made invalid after construction either
        with pytest.raises(ValueError, match="init"):
            dataclasses.replace(identity_config(), init="q")


class TestInitialStates:
    def test_pulse_support_and_amplitude(self):
        config = identity_config()
        prepared = build_initial_state(config, config_model(config))
        assert prepared.psi.dtype == np.float64  # real, and the Trotter walk keeps it real
        assert prepared.norm_factor == pytest.approx(1.0, abs=1e-12)
        grid = prepared.psi.reshape(STATE_DIM, 4, 4, 4)
        support = np.abs(grid[2]) > 0
        assert support.sum() == 8
        assert np.allclose(grid[2][support], 1 / np.sqrt(8), atol=1e-12)
        other = np.delete(np.arange(STATE_DIM), 2)
        assert np.abs(grid[other]).max() == 0.0

    def test_s_wave_support(self):
        config = identity_config(n=3, init="s", taus=(0.5,))
        prepared = build_initial_state(config, config_model(config))
        grid = prepared.psi.reshape(STATE_DIM, 8, 8, 8)
        support = np.abs(grid[0]) > 0
        assert support.sum() == 32  # |center| * |bulk|^2 = 2 * 16
        assert np.abs(grid[np.arange(1, STATE_DIM)]).max() == 0.0

    def test_p_wave_component(self):
        config = identity_config(n=3, init="p", taus=(0.5,))
        prepared = build_initial_state(config, config_model(config))
        grid = prepared.psi.reshape(STATE_DIM, 8, 8, 8)
        assert np.abs(grid[2]).max() > 0
        assert np.abs(grid[0]).max() == 0.0

    def test_transform_scales_by_sqrt_rho(self):
        config = identity_config(rho=4.0)
        prepared = build_initial_state(config, config_model(config))
        assert prepared.norm_factor == pytest.approx(2.0, rel=1e-12)
        assert np.linalg.norm(prepared.psi) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("config_n,model_n,init", [(2, 4, "pulse"), (3, 2, "p")])
    def test_model_of_another_n_refused(self, config_n, model_n, init):
        # the indices come from config.n and the grid from the model: a larger
        # model would put the pulse at the wrong cells, a smaller one overflow
        config = identity_config(n=config_n, init=init)
        model = config_model(identity_config(n=model_n, init="pulse"))
        with pytest.raises(ValueError, match=r"^n of the model"):
            build_initial_state(config, model)


class TestFidelity:
    def test_initial_fidelity_is_one(self):
        config = identity_config(E=0.646, nu=0.255)
        curves = sweep(config)
        assert curves[0.5].fidelities[0] == 1.0

    def test_bounds_and_self_consistency(self):
        config = identity_config(E=0.646, nu=0.255, taus=(0.25,))
        model = config_model(config)
        prepared = build_initial_state(config, model)
        curve = fidelity_curve(Propagator(model), prepared, "u1", 0.25, config.T)
        assert np.all(curve.fidelities >= 0.0)
        assert np.all(curve.fidelities <= 1.0 + 1e-12)
        # stepping the exact propagator matches the one-shot exact state
        psi = prepared.psi.copy()
        propagator = Propagator(model)
        for _ in range(8):
            psi = propagator.evolve(psi, 0.25)
        one_shot = dense_evolve(model, 2.0, prepared.psi)
        assert abs(np.vdot(one_shot, psi)) ** 2 == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_state(self, bad):
        config = identity_config(E=0.646, nu=0.255)
        model = config_model(config)
        prepared = build_initial_state(config, model)
        psi = prepared.psi.copy()
        psi[7] = bad
        broken = PreparedState(psi=psi, norm_factor=prepared.norm_factor)
        with pytest.raises(ValueError, match="psi must be finite"):
            fidelity_curve(Propagator(model), broken, "u1", 0.5, config.T)

    def test_padding_rows_count_in_the_overlap(self):
        # a prepared state with weight on the padding components 9..15: the overlap
        # sums every row, not only the nine physical ones
        model = config_model(identity_config(E=0.646, nu=0.255))
        rng = np.random.default_rng(3)
        psi = rng.standard_normal(model.dim) + 1j * rng.standard_normal(model.dim)
        prepared = PreparedState(psi=psi / np.linalg.norm(psi), norm_factor=1.0)
        exact = Propagator(model)
        curve = fidelity_curve(exact, prepared, "u1", 0.5, 2.0)
        state = prepared.psi
        for m in range(1, 5):
            state = TrotterStep(model, "u1", 0.5).apply(state)
            reference = abs(np.vdot(exact.evolve(prepared.psi, 0.5 * m), state)) ** 2
            assert curve.fidelities[m] == pytest.approx(reference, abs=1e-12)

    def test_fidelity_deficit_scales_quadratically(self):
        # deficit 1 - F ~ (global error)^2 ~ tau^2 for the first-order scheme
        config = identity_config(E=0.646, nu=0.255, T=2.0, taus=(0.2, 0.1))
        curves = sweep(config)
        deficit_coarse = 1.0 - curves[0.2].final_fidelity
        deficit_fine = 1.0 - curves[0.1].final_fidelity
        assert 2.5 <= deficit_coarse / deficit_fine <= 6.0

    def test_snapshots_taken_on_requested_grid(self):
        config = identity_config(taus=(0.5,))
        curves = sweep(config, snapshot_steps=(0, 2, 4))
        assert sorted(curves[0.5].snapshots) == [0, 2, 4]

    def test_propagator_reference_matches_dense(self):
        config = identity_config(E=0.646, nu=0.255, taus=(0.5,))
        model = config_model(config)
        prepared = build_initial_state(config, model)
        snaps = (2, 4)  # t = 1 and 2
        curve = fidelity_curve(Propagator(model), prepared, "u1", 0.5, config.T,
                               snapshot_steps=snaps)
        # independent reference: one dense eigh of the materialized generator
        evals, evecs = np.linalg.eigh(materialize_sparse_H(model).toarray())
        coeffs = evecs.conj().T @ prepared.psi
        psi_trotter = prepared.psi
        for m, t in enumerate(curve.times):
            if m:
                psi_trotter = TrotterStep(model, "u1", 0.5).apply(psi_trotter)
            psi_exact = evecs @ (np.exp(-1j * t * evals) * coeffs)
            fidelity = abs(np.vdot(psi_exact, psi_trotter)) ** 2
            assert abs(curve.fidelities[m] - fidelity) < 1e-8
            if m in snaps:
                assert np.abs(curve.snapshots[m][1] - psi_exact).max() < 1e-8


class TestFieldReconstruction:
    def test_initial_pulse_fields(self):
        config = identity_config()
        model = config_model(config)
        prepared = build_initial_state(config, model)
        slices = reconstruct_fields(model, prepared.psi, prepared.norm_factor)
        sigma = slices["sigma_zz"]
        assert np.abs(sigma.data).max() == 0.0
        vz = slices["v_z"]
        assert vz.plane_axis == "x" and vz.plane_index == 1
        expected = np.zeros((4, 4))
        expected[1:3, 1:3] = 1 / np.sqrt(8)
        assert np.abs(vz.data - expected).max() < 1e-12

    def test_identity_medium_reconstruction_is_amplitude_map(self):
        config = identity_config()
        model = config_model(config)
        prepared = build_initial_state(config, model)
        psi_t = dense_evolve(model, 1.0, prepared.psi)
        slices = reconstruct_fields(model, psi_t, prepared.norm_factor)
        grid = psi_t.reshape(STATE_DIM, 4, 4, 4)
        assert np.abs(slices["v_z"].data - grid[2][1].real).max() < 1e-12
        # extraction loses no amplitude on the slice
        assert np.linalg.norm(slices["v_z"].data) == pytest.approx(
            np.linalg.norm(grid[2][1]), abs=1e-8)

    def test_reality_preserved_under_exact_flow(self):
        config = identity_config(E=0.646, nu=0.255)
        model = config_model(config)
        prepared = build_initial_state(config, model)
        psi_t = dense_evolve(model, 2.0, prepared.psi)
        slices = reconstruct_fields(model, psi_t, prepared.norm_factor)
        for slc in slices.values():
            assert slc.max_imag < 1e-8

    def test_b_weighted_norm_conserved(self):
        config = identity_config(E=0.646, nu=0.255)
        model = config_model(config)
        prepared = build_initial_state(config, model)
        reference = b_weighted_norm_sq(model, prepared.psi, prepared.norm_factor)
        psi = prepared.psi.copy()
        for t in (0.5, 1.0, 2.0):
            psi_t = dense_evolve(model, t, prepared.psi)
            assert b_weighted_norm_sq(model, psi_t, prepared.norm_factor) == pytest.approx(
                reference, abs=1e-8)

    def test_clipping(self):
        data = np.arange(100.0).reshape(10, 10)
        clipped, threshold = clip_values(data, 0.02)
        assert threshold == pytest.approx(np.quantile(data, 0.98))
        assert clipped.max() == threshold
        same, none = clip_values(data, 0.0)
        assert none is None
        assert np.array_equal(same, data)


class TestRunExperiment:
    def test_outputs_and_determinism(self, tmp_path):
        out = tmp_path / "run"
        config = identity_config(E=0.646, nu=0.255, taus=(0.5, 1.0),
                                 out_dir=str(out))
        run_experiment(config)
        first = {p.relative_to(out): p.read_bytes()
                 for p in out.rglob("*") if p.is_file()}
        assert first
        run_experiment(config)
        second = {p.relative_to(out): p.read_bytes()
                  for p in out.rglob("*") if p.is_file()}
        assert first == second

    def test_manifest_contents(self, tmp_path):
        config = identity_config(out_dir=str(tmp_path / "run"))
        manifest = run_experiment(config)
        on_disk = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert on_disk == json.loads(json.dumps(manifest))
        assert on_disk["qubits"] == 10
        assert on_disk["curves"]["0.5"]["steps"] == 4
        assert on_disk["curves"]["0.5"]["per_step_cnot"] == 432 * 4 + 378
        fid_file = tmp_path / "run" / on_disk["curves"]["0.5"]["file"]
        header, first = fid_file.read_text().splitlines()[:2]
        assert header == "t,F"
        assert first.startswith("0,1")

    def test_field_snapshot_files(self, tmp_path):
        config = identity_config(out_dir=str(tmp_path / "run"))
        manifest = run_experiment(config)
        assert manifest["snapshot_times"] == [0.0, 0.5, 1.0, 1.5, 2.0]
        record = json.loads(
            (tmp_path / "run" / "fields" / "field_v_z_exact_t1.json").read_text())
        assert record["shape"] == [4, 4]
        assert len(record["values"]) == 16
        assert record["plane_axis"] == "x"
        assert record["clip_fraction"] == 0.02

    def test_manifest_plane_is_the_field_plane(self, tmp_path):
        manifest = run_experiment(identity_config(out_dir=str(tmp_path / "run")))
        assert manifest["plane"] == {"axis": "x", "index": 1}
        for name in manifest["files"]:
            record = json.loads((tmp_path / "run" / name).read_text())
            assert (record["plane_axis"], record["plane_index"]) == ("x", 1)

    def test_dry_run_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "dry"
        result = plan_experiment(identity_config(out_dir=str(out)))
        assert result == {"qubits": 10, "plan": {"0.5": 4}}
        assert not out.exists()
        printed = capsys.readouterr().out
        assert "qubits=10" in printed
        assert f"per_step_cnot={432 * 4 + 378}" in printed

    def test_manifest_snapshot_grid(self, tmp_path):
        # T = 2, tau = 0.5 reads [0, 0.5, 1, 1.5, 2] (test_field_snapshot_files)
        manifest = run_experiment(identity_config(T=10.0, out_dir=str(tmp_path / "run")))
        assert manifest["snapshot_times"] == [0.0, 2.5, 5.0, 7.5, 10.0]
        assert {name for name in manifest["files"] if "v_z_exact" in name} == {
            f"fields/field_v_z_exact_t{t}.json" for t in ("0", "2.5", "5", "7.5", "10")}

    def test_numpy_scalars_write_the_same_files(self, tmp_path):
        # a numpy scalar in the config used to stop the run at the manifest,
        # after the CSV and field files were written
        outputs = []
        for name, h, T, tau in (("plain", 1, 1.0, 0.5),
                                ("numpy", np.int64(1), np.float32(1.0), np.float32(0.5))):
            out = tmp_path / name
            run_experiment(identity_config(h=h, T=T, taus=(tau,), out_dir=str(out)))
            # the manifest's config.out_dir is the one line allowed to differ
            outputs.append({path.relative_to(out): path.read_bytes().replace(
                str(out).encode(), b"OUT") for path in out.rglob("*") if path.is_file()})
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("below", ["", "x", "x/y"], ids=["file", "child", "grandchild"])
    def test_unusable_out_dir_refused_before_the_sweep(self, below, monkeypatch, tmp_path):
        # out_dir at or under a file used to fail at mkdir, after the whole sweep
        def no_sweep(*args):
            raise AssertionError("sweep ran")
        monkeypatch.setattr(experiments, "run_fidelity_sweep", no_sweep)
        afile = tmp_path / "afile"
        afile.write_text("")
        with pytest.raises(ValueError, match="out_dir"):
            run_experiment(identity_config(out_dir=str(afile / below)))
        assert sorted(tmp_path.iterdir()) == [afile] and afile.read_text() == ""


class TestThreadCap:
    def test_env_var_controls_workers(self, monkeypatch):
        from elastoq.experiments import _worker_count

        monkeypatch.delenv("ELASTOQ_THREADS", raising=False)
        assert _worker_count(4) == 1
        monkeypatch.setenv("ELASTOQ_THREADS", "3")
        assert _worker_count(4) == 3
        assert _worker_count(2) == 2
        monkeypatch.setenv("ELASTOQ_THREADS", "")
        assert _worker_count(4) == 1
        for bad in ("junk", "0", "-2", "2.5"):
            monkeypatch.setenv("ELASTOQ_THREADS", bad)
            with pytest.raises(ValueError, match="ELASTOQ_THREADS"):
                _worker_count(4)

    def test_bad_env_var_writes_nothing(self, monkeypatch, tmp_path):
        monkeypatch.setenv("ELASTOQ_THREADS", "0")
        out = tmp_path / "refused"
        with pytest.raises(ValueError, match="ELASTOQ_THREADS"):
            run_experiment(identity_config(out_dir=str(out)))
        assert not out.exists()

    def test_parallel_sweep_matches_serial(self, monkeypatch):
        config = identity_config(taus=(0.5, 1.0))
        monkeypatch.delenv("ELASTOQ_THREADS", raising=False)
        serial = sweep(config)
        monkeypatch.setenv("ELASTOQ_THREADS", "2")
        parallel = sweep(config)
        for tau in config.taus:
            assert np.array_equal(serial[tau].fidelities, parallel[tau].fidelities)


def _cell():
    return build_cell_matrices(MaterialParams(rho=1.0, E=0.646, nu=0.255))


def _prepared():
    config = identity_config()
    return build_initial_state(config, config_model(config))


@pytest.mark.parametrize("build", [
    _cell,
    lambda: eigendecompose_axis(_cell(), 1),
    _prepared,
    lambda: sweep(identity_config())[0.5],
    lambda: reconstruct_fields(config_model(identity_config()), _prepared().psi, 1.0)["v_z"],
], ids=["CellMatrices", "AxisEigenSystem", "PreparedState", "FidelityCurve", "FieldSlice"])
def test_array_records_hash_and_equal_by_identity(build):
    # their array fields made == raise ValueError and hash raise TypeError
    first, second = build(), build()
    assert first == first and first != second
    assert len({first, first, second}) == 2
