import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import elastoq
from elastoq.circuits import (
    Gate,
    GateProgram,
    TrotterStep,
    _ADJOINT,
    _Blocks,
    _lower,
    build_U1,
    build_U2,
    build_W_jk,
    build_program,
    build_script_W,
    folded_rotations,
    ladder_qubit,
    parse_program,
    serialize_program,
    simulate,
)
from elastoq.hamiltonian import (
    SWEEPS,
    Propagator,
    TermKey,
    ZERO_EIGENVALUE_TOL,
    build_model,
    dense_evolve,
    materialize_sparse_H,
    materialize_term,
    term_angle,
)
from elastoq.lattice import apply_pair_rotation, s_cell_matrix
from elastoq.media import AxisEigenSystem, MaterialParams, degenerate_clusters

REFERENCE_MEDIUM = MaterialParams(rho=1.0, E=0.646, nu=0.255)
IDENTITY_MEDIUM = MaterialParams(rho=1.0, E=1.0, nu=0.0)


def random_state(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def block_program(model, gates):
    return GateProgram(n=model.shape.n, scheme="u1", tau=0.0, gates=tuple(gates))


def replace_first_gate(lines, line):
    """Program text lines with the first gate line (after the 7 header lines) replaced."""
    return lines[:7] + [line] + lines[8:]


def exact_step_matrix(model, tau):
    evals, evecs = np.linalg.eigh(materialize_sparse_H(model).toarray())
    return (evecs * np.exp(-1j * evals * tau)) @ evecs.conj().T


class TestPairBlock:
    def test_zero_angle_is_identity(self):
        model = build_model(2, 1.0, REFERENCE_MEDIUM)
        zero_j = int(np.argmin(np.abs(model.eigensystems[0].lambdas)))
        prog = block_program(model, build_W_jk(model, TermKey(1, zero_j, 2), 0.4))
        rng = np.random.default_rng(0)
        psi = random_state(rng, model.dim)
        assert np.abs(simulate(prog, psi) - psi).max() < 1e-12

    def test_single_qubit_rotation_matrix(self):
        # k=1 block is a bare rotation [[c, -s], [s, c]] on the axis qubit
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        key = TermKey(3, 15, 1)
        theta = term_angle(model, key, 0.31)
        program = block_program(model, build_W_jk(model, key, 0.31))
        u = simulate(program, np.eye(program.dim, dtype=complex))
        r = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        expected = np.kron(np.eye(64), r)  # z-axis qubit is least significant
        assert np.abs(u - expected).max() < 1e-12

    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_ladder_exponential(self, k):
        # dense oracle: expm of -theta * S_k on the axis block
        model = build_model(2, 1.0, REFERENCE_MEDIUM)
        key = TermKey(3, 14, k)
        tau = 0.57
        theta = term_angle(model, key, tau)
        program = block_program(model, build_W_jk(model, key, tau))
        u = simulate(program, np.eye(program.dim, dtype=complex))
        rot = scipy.linalg.expm(-theta * s_cell_matrix(k, 2).toarray())
        expected = np.kron(np.eye(model.dim // 4), rot)
        assert np.abs(u - expected).max() < 1e-10


class TestScriptW:
    def test_zero_eigenvalue_block_is_identity(self):
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        eig = model.eigensystems[0]
        zero_j = int(np.argmin(np.abs(eig.lambdas)))
        gates = build_script_W(model, 1, zero_j, 0.8)
        prog = block_program(model, gates)
        rng = np.random.default_rng(1)
        psi = random_state(rng, model.dim)
        assert np.abs(simulate(prog, psi) - psi).max() < 1e-12

    @pytest.mark.parametrize("axis", [1, 2, 3])
    def test_equals_term_exponential_product(self, axis):
        model = build_model(1, 0.8, REFERENCE_MEDIUM)
        tau = 0.43
        for j in (0, 7, 15):
            program = block_program(model, build_script_W(model, axis, j, tau))
            u = simulate(program, np.eye(program.dim, dtype=complex))
            expected = scipy.linalg.expm(
                -1j * tau * materialize_term(model, TermKey(axis, j, 1)).toarray())
            assert np.abs(u - expected).max() < 1e-10


class TestTrotterPrograms:
    def test_u1_zero_tau_identity(self):
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        rng = np.random.default_rng(3)
        psi = random_state(rng, model.dim)
        assert np.abs(simulate(build_U1(model, 0.0), psi) - psi).max() < 1e-12

    def test_u1_matches_termwise_product(self):
        model = build_model(1, 1.0, MaterialParams(rho=1.4, E=0.9, nu=0.21))
        tau = 0.27
        program = build_U1(model, tau)
        u = simulate(program, np.eye(program.dim, dtype=complex))
        expected = np.eye(model.dim, dtype=complex)
        for key in model.term_keys():  # first factor applied first
            term = materialize_term(model, key).toarray()
            expected = scipy.linalg.expm(-1j * tau * term) @ expected
        assert np.abs(u - expected).max() < 1e-10

    def test_u2_matches_termwise_product(self):
        # every term for tau/2 in the first-order order, then in its reverse
        model = build_model(1, 1.0, MaterialParams(rho=1.4, E=0.9, nu=0.21))
        tau = 0.27
        eye = np.eye(model.dim, dtype=complex)
        keys = list(model.term_keys())
        expected = eye
        for key in keys + keys[::-1]:  # first factor applied first
            term = materialize_term(model, key).toarray()
            expected = scipy.linalg.expm(-1j * tau / 2 * term) @ expected
        assert np.abs(simulate(build_U2(model, tau), eye) - expected).max() < 1e-10
        assert np.abs(TrotterStep(model, "u2", tau).apply(eye) - expected).max() < 1e-10

    @pytest.mark.parametrize("tau", [0.3, -0.7])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_u2_is_half_u1_then_its_mirror(self, n, tau):
        # the first half is u1 at tau/2, field for field; the second is the first
        # reversed, each uncontrolled gate by its adjoint kind and all else equal
        def fields_of(gate, kind):
            return (kind, gate.target, gate.controls, gate.pattern, gate.angle,
                    gate.targets, id(gate.unitary))  # a payload compares by object

        model = build_model(n, 1.0, REFERENCE_MEDIUM)
        gates = build_U2(model, tau).gates
        first, second = gates[:len(gates) // 2], gates[len(gates) // 2:]
        assert ([fields_of(g, g.kind) for g in first]
                == [fields_of(g, g.kind) for g in build_U1(model, tau / 2).gates])
        assert ([fields_of(g, g.kind) for g in second]
                == [fields_of(g, _ADJOINT.get(g.kind, g.kind)) for g in first[::-1]])

    def test_u1_unitary_output(self):
        model = build_model(2, 1.0, REFERENCE_MEDIUM)
        rng = np.random.default_rng(4)
        psi = random_state(rng, model.dim)
        assert np.linalg.norm(simulate(build_U1(model, 0.4), psi)) == pytest.approx(1.0, abs=1e-10)

    def test_u2_zero_tau_identity(self):
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        rng = np.random.default_rng(5)
        psi = random_state(rng, model.dim)
        assert np.abs(simulate(build_U2(model, 0.0), psi) - psi).max() < 1e-12

    def test_u2_time_reversal(self):
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        eye = np.eye(model.dim)
        u_fwd = TrotterStep(model, "u2", 0.5).apply(eye)
        u_bwd = TrotterStep(model, "u2", -0.5).apply(eye)
        assert np.abs(u_fwd @ u_bwd - np.eye(model.dim)).max() < 1e-10

    def test_u2_richardson_ratio(self):
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        tau = 0.2
        eye = np.eye(model.dim)
        d_full = np.linalg.norm(TrotterStep(model, "u2", tau).apply(eye)
                                - exact_step_matrix(model, tau), 2)
        d_half = np.linalg.norm(TrotterStep(model, "u2", tau / 2).apply(eye)
                                - exact_step_matrix(model, tau / 2), 2)
        assert 6.5 <= d_full / d_half <= 9.5

    def test_cnot_accounts(self):
        model = build_model(3, 1.0, REFERENCE_MEDIUM)
        assert build_U1(model, 0.1).cnot_account == 432 * 9 + 378
        assert build_U2(model, 0.1).cnot_account == 2 * (432 * 9 + 378)


class TestSimulator:
    def test_empty_program(self):
        model = build_model(1, 1.0, IDENTITY_MEDIUM)
        prog = block_program(model, [])
        rng = np.random.default_rng(6)
        psi = random_state(rng, model.dim)
        assert np.array_equal(simulate(prog, psi), psi)

    def test_cnot_basis_action(self):
        model = build_model(1, 1.0, IDENTITY_MEDIUM)
        prog = block_program(model, [Gate("cnot", target=2, controls=(1,))])
        psi = np.zeros(model.dim, dtype=complex)
        psi[1 << (model.qubits - 1)] = 1.0  # |10...0>
        out = simulate(prog, psi)
        expected_index = (1 << (model.qubits - 1)) | (1 << (model.qubits - 2))
        assert out[expected_index] == 1.0
        assert np.count_nonzero(out) == 1

    def test_dimension_mismatch(self):
        model = build_model(1, 1.0, IDENTITY_MEDIUM)
        with pytest.raises(ValueError, match="length"):
            simulate(build_U1(model, 0.1), np.zeros(64, dtype=complex))

    def test_non_unitary_payload_rejected(self):
        model = build_model(1, 1.0, IDENTITY_MEDIUM)
        bad = Gate("v4", targets=(1, 2, 3, 4), unitary=np.eye(16) * 1.1)
        prog = block_program(model, [bad])
        with pytest.raises(ValueError, match="unitary"):
            simulate(prog, np.zeros(model.dim, dtype=complex))

    def test_gate_qubit_validation(self):
        model = build_model(1, 1.0, IDENTITY_MEDIUM)
        prog = block_program(model, [Gate("cnot", target=5, controls=(5,))])
        with pytest.raises(ValueError, match="twice"):
            simulate(prog, np.zeros(model.dim, dtype=complex))
        prog = block_program(model, [Gate("h", target=9)])
        with pytest.raises(ValueError, match="outside"):
            simulate(prog, np.zeros(model.dim, dtype=complex))

    @pytest.mark.parametrize("gate, kind", [
        (Gate("cnot", target=2, controls=(1, 3)), "cnot"),
        (Gate("h", target=2, controls=(1,)), "h"),
        (Gate("v4", targets=(4, 5, 6, 7), unitary=np.eye(16)), "v4"),
        (Gate("pcrz", target=5, pattern=99, angle=0.1), "pcrz"),
        (Gate("pcrz", target=5, pattern=None, angle=0.1), "pcrz"),
        # a NaN angle used to return an all-NaN state, inf only a RuntimeWarning
        (Gate("mcrz", target=5, angle=np.nan), "mcrz"),
        (Gate("mcrz", target=5, controls=(6,), angle=np.inf), "mcrz"),
        (Gate("pcrz", target=5, pattern=3, angle=np.nan), "pcrz"),
        (Gate("pcrz", target=5, pattern=3, angle=-np.inf), "pcrz"),
        # a PCRZ wired on the state register its pattern already fixes
        (Gate("pcrz", target=2, controls=(5,), pattern=6, angle=0.3), "pcrz"),
        (Gate("pcrz", target=7, controls=(3,), pattern=6, angle=0.3), "pcrz"),
    ])
    def test_misread_gates_rejected(self, gate, kind):
        # each of these used to run as a different gate (or raise TypeError)
        model = build_model(1, 1.0, IDENTITY_MEDIUM)
        with pytest.raises(ValueError, match=f"gate {kind} "):
            simulate(block_program(model, [gate]), np.zeros(model.dim, dtype=complex))

    @pytest.mark.parametrize("gate, kind, field", [
        (Gate("mcrz", target=5, pattern=3, angle=0.2), "mcrz", "pattern"),
        (Gate("cnot", target=2, controls=(1,), angle=0.5), "cnot", "angle"),
        (Gate("h", target=5, targets=(1, 2, 3, 4)), "h", "targets"),
        (Gate("s", target=5, unitary=np.eye(2)), "s", "unitary"),
        (Gate("v4", target=5, targets=(1, 2, 3, 4), unitary=np.eye(16)), "v4", "target"),
        (Gate("v4dg", targets=(1, 2, 3, 4), controls=(5,), unitary=np.eye(16)), "v4dg",
         "controls"),
    ])
    def test_unread_fields_rejected(self, gate, kind, field):
        # simulate ignored each field and the text round trip dropped it; the
        # first ran as an unconditioned rotation
        model = build_model(1, 1.0, IDENTITY_MEDIUM)
        with pytest.raises(ValueError, match=f"gate {kind} does not read {field};"):
            simulate(block_program(model, [gate]), np.zeros(model.dim, dtype=complex))

    def test_nonfinite_payload_rejected(self):
        # used to die in the unitarity check's SVD with LinAlgError
        model = build_model(1, 1.0, IDENTITY_MEDIUM)
        u = np.eye(16, dtype=complex)
        u[3, 3] = np.nan
        gates = [Gate("v4", targets=(1, 2, 3, 4), unitary=u),
                 Gate("v4dg", targets=(1, 2, 3, 4), unitary=u)]
        with pytest.raises(ValueError, match="payload holds a non-finite entry"):
            simulate(block_program(model, gates), np.ones(model.dim, dtype=complex))

    def test_ladder_qubit_layout(self):
        # level 1 sits at the bottom of each axis block
        assert ladder_qubit(2, 1, 1) == 6
        assert ladder_qubit(2, 1, 2) == 5
        assert ladder_qubit(2, 3, 1) == 10


def random_unitary(rng):
    mat = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    q, _ = np.linalg.qr(mat)
    return q


_REFERENCE_2X2 = {"h": np.array([[1, 1], [1, -1]]) / np.sqrt(2), "s": np.diag([1, 1j]),
                  "sdg": np.diag([1, -1j]), "cnot": np.array([[0, 1], [1, 0]])}


def per_gate_reference(program, psi):
    """Every gate applied on its own by its own matrix, with no fold and no run
    product: a payload as its 16x16 on the state register, any other gate as
    its 2x2 on the target axis of the (2,)*qubits view, on the subspace its
    controls (and a PCRZ's pattern) select."""
    qubits = program.qubits
    state = np.array(psi, dtype=complex).reshape((2,) * qubits + np.shape(psi)[1:])
    for gate in program.gates:
        if gate.kind in ("v4", "v4dg"):
            mat = gate.unitary.conj().T if gate.kind == "v4dg" else gate.unitary
            state = np.tensordot(mat.reshape((2,) * 8), state, axes=(range(4, 8), range(4)))
            continue
        fixed = {c: 1 for c in gate.controls}
        if gate.kind == "pcrz":
            fixed.update({q: (gate.pattern >> (4 - q)) & 1 for q in (1, 2, 3, 4)})
        if gate.kind in ("mcrz", "pcrz"):
            mat = np.diag([np.exp(1j * gate.angle), np.exp(-1j * gate.angle)])
        else:
            mat = _REFERENCE_2X2[gate.kind]
        index = tuple(fixed.get(q, slice(None)) for q in range(1, qubits + 1))
        axis = gate.target - 1 - sum(q < gate.target for q in fixed)
        state[index] = np.moveaxis(np.tensordot(mat, state[index], axes=(1, axis)), 0, axis)
    return state.reshape(np.shape(psi))


class TestFusedSimulator:
    """Payload runs apply as one product with adjoint pairs cancelled, and
    conjugated rotations as one 2x2; the result is the gate list's own."""

    @staticmethod
    def payload_run(rng, length):
        us = [random_unitary(rng) for _ in range(2)]
        return [Gate("v4dg" if i % 3 == 1 else "v4", targets=(1, 2, 3, 4),
                     unitary=us[i % 2]) for i in range(length)]

    @staticmethod
    def other_gates():
        return [Gate("h", target=5), Gate("cnot", target=6, controls=(5,)),
                Gate("pcrz", target=7, pattern=5, controls=(6,), angle=0.3),
                Gate("s", target=2), Gate("mcrz", target=1, controls=(3,), angle=-0.7)]

    @pytest.mark.parametrize("where", ["start", "middle", "end", "whole", "alternating"])
    def test_matches_per_gate_loop(self, where):
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        rng = np.random.default_rng(21)
        run, rest = self.payload_run(rng, 4), self.other_gates()
        gates = {"start": run + rest, "middle": rest[:2] + run + rest[2:],
                 "end": rest + run, "whole": run,
                 "alternating": [g for pair in zip(run, rest) for g in pair]}[where]
        program = block_program(model, gates)
        batch = np.stack([random_state(rng, model.dim) for _ in range(3)], axis=1)
        for psi in (batch[:, 0], batch):
            expected = per_gate_reference(program, psi)
            assert np.abs(simulate(program, psi) - expected).max() < 1e-14

    def test_input_neither_changed_nor_returned(self):
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        rng = np.random.default_rng(22)
        # one run makes the output the spare buffer, two runs swap it back
        for runs in (1, 2):
            gates = self.payload_run(rng, 3) + self.other_gates()[:1]
            program = block_program(model, gates * runs)
            psi = random_state(rng, model.dim)
            kept = psi.copy()
            out = simulate(program, psi)
            assert out is not psi and not np.shares_memory(out, psi)
            assert np.array_equal(psi, kept)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_workload_programs_match_per_gate_loop(self, n):
        model = build_model(n, 1.0, REFERENCE_MEDIUM)
        rng = np.random.default_rng(23)
        batch = np.stack([random_state(rng, model.dim) for _ in range(4)], axis=1)
        for tau in (0.1, 0.5):
            for builder in (build_U1, build_U2):
                program = builder(model, tau)
                expected = per_gate_reference(program, batch)
                assert np.abs(simulate(program, batch) - expected).max() < 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_built_rotation_folds(self, n):
        model = build_model(n, 1.0, REFERENCE_MEDIUM)
        for builder in (build_U1, build_U2):
            program = builder(model, 0.3)
            rotations = sum(g.kind == "pcrz" for g in program.gates)
            assert rotations > 0 and folded_rotations(program) == rotations

    def test_seeded_basis_defect_runs_as_written(self):
        # an SDG where the basis change's S belongs is held and applies as
        # written; the rotation before it still folds, and the simulator runs
        # the wrong circuit faithfully instead of hiding the slip
        model = build_model(2, 1.0, REFERENCE_MEDIUM)
        program = build_U1(model, 0.3)
        gates = list(program.gates)
        slip = next(i for i, g in enumerate(gates) if g.kind == "s")
        gates[slip] = Gate("sdg", target=gates[slip].target)
        broken = dataclasses.replace(program, gates=tuple(gates))
        assert folded_rotations(broken) == folded_rotations(program)
        psi = random_state(np.random.default_rng(25), model.dim)
        out = simulate(broken, psi)
        assert np.abs(out - per_gate_reference(broken, psi)).max() <= 1e-14
        assert np.abs(out - TrotterStep(model, "u1", 0.3).apply(psi)).max() > 1e-3

    @pytest.mark.parametrize("case", ["shared-basis", "cnot-reads-held-wire",
                                      "rotation-reads-held-control",
                                      "pcrz-reads-held-payloads"])
    def test_hold_back_cases_match_per_gate_loop(self, case):
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        rng = np.random.default_rng(26)
        u = random_unitary(rng)
        basis = [Gate("sdg", target=5), Gate("h", target=5)]
        undo = [Gate("h", target=5), Gate("s", target=5)]
        rotations = [Gate("mcrz", target=5, controls=(6,), angle=0.4),
                     Gate("pcrz", target=5, pattern=9, controls=(7,), angle=-1.1)]
        # each case: its gates, the folded rotations, and the steps simulate applies
        gates, folds, step_count = {
            # both rotations fold into the one held basis change: no 1-qubit step
            "shared-basis": (basis + rotations + undo, 2, 2),
            # the CNOT reads the held wire 5, so SDG and H apply before it
            "cnot-reads-held-wire": (basis + rotations[:1] + [
                Gate("cnot", target=6, controls=(5,))] + undo, 1, 6),
            # the rotation reads its control 6, so the H held there applies first
            "rotation-reads-held-control": (
                [Gate("h", target=6), rotations[0], Gate("h", target=6)], 0, 3),
            # the PCRZ reads qubits 1..4, so V4 applies before it and V4DG after
            "pcrz-reads-held-payloads": ([Gate("v4", targets=(1, 2, 3, 4), unitary=u),
                                          rotations[1],
                                          Gate("v4dg", targets=(1, 2, 3, 4), unitary=u)], 0, 3),
        }[case]
        program = block_program(model, gates)
        batch = np.stack([random_state(rng, model.dim) for _ in range(3)], axis=1)
        for psi in (batch[:, 0], batch):
            expected = per_gate_reference(program, psi)
            assert np.abs(simulate(program, psi) - expected).max() <= 1e-14
        assert folded_rotations(program) == folds
        assert len(_lower(program.gates, program.qubits)[0]) == step_count

    def test_rejects_zero_dim_state(self):
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        with pytest.raises(ValueError, match="state"):
            simulate(build_U1(model, 0.1), np.array(1.0 + 0j))
        with pytest.raises(ValueError, match="state"):
            TrotterStep(model, "u1", 0.1).apply(np.array(1.0))


class TestFastPath:
    @pytest.mark.parametrize("scheme", ["u1", "u2"])
    def test_agrees_with_gate_simulation(self, scheme):
        model = build_model(2, 1.0, REFERENCE_MEDIUM)
        build = build_U1 if scheme == "u1" else build_U2
        prog = build(model, 0.3)
        rng = np.random.default_rng(7)
        for _ in range(3):
            psi = random_state(rng, model.dim)
            gate_out = simulate(prog, psi)
            fast_out = TrotterStep(model, scheme, 0.3).apply(psi)
            assert np.abs(gate_out - fast_out).max() < 1e-10

    def test_padding_sector_untouched(self):
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        points = model.shape.points
        rng = np.random.default_rng(8)
        grid = np.zeros((16, points, points, points), dtype=complex)
        grid[9:] = rng.standard_normal((7, points, points, points))
        psi = grid.reshape(-1)
        psi = psi / np.linalg.norm(psi)
        # the padding rows are never read or written, so they pass bit-exactly
        for scheme in ("u1", "u2"):
            assert np.array_equal(TrotterStep(model, scheme, 0.6).apply(psi), psi)

    def test_batch_columns(self):
        # n >= 2 puts a trailing batch axis behind the axis-2/3 rotations
        rng = np.random.default_rng(9)
        for n in (1, 2, 3):
            model = build_model(n, 1.0, REFERENCE_MEDIUM)
            batch = np.stack([random_state(rng, model.dim) for _ in range(4)], axis=1)
            for scheme in ("u1", "u2"):
                out = TrotterStep(model, scheme, 0.2).apply(batch)
                for i in range(4):
                    single = TrotterStep(model, scheme, 0.2).apply(batch[:, i])
                    assert np.abs(out[:, i] - single).max() < 1e-13

    def test_u2_reverses_at_n3(self):
        model = build_model(3, 1.0, REFERENCE_MEDIUM)
        rng = np.random.default_rng(16)
        batch = np.stack([random_state(rng, model.dim) for _ in range(2)], axis=1)
        there = TrotterStep(model, "u2", 0.3).apply(batch)
        back = TrotterStep(model, "u2", -0.3).apply(there)
        assert np.abs(back - batch).max() < 1e-12
        real = batch.real / np.linalg.norm(batch.real, axis=0)
        back = TrotterStep(model, "u2", -0.3).apply(TrotterStep(model, "u2", 0.3).apply(real))
        assert back.dtype == np.float64
        assert np.abs(back - real).max() < 1e-12

    @pytest.mark.parametrize("scheme", ["u1", "u2"])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_real_state_stays_real(self, n, scheme):
        # the step is real orthogonal: stepping a real state as float64 matches
        # stepping the same state as complex
        model = build_model(n, 1.0, REFERENCE_MEDIUM)
        rng = np.random.default_rng(20 + n)
        for shape in ((model.dim,), (model.dim, 2)):
            psi = rng.standard_normal(shape)
            psi /= np.linalg.norm(psi, axis=0)
            real = TrotterStep(model, scheme, 0.3).apply(psi)
            assert real.dtype == np.float64
            assert np.abs(real - TrotterStep(model, scheme, 0.3).apply(psi.astype(complex))
                          ).max() <= 1e-14

    def test_reused_plan_is_bit_identical(self):
        model = build_model(3, 1.0, REFERENCE_MEDIUM)
        psi = np.random.default_rng(21).standard_normal(model.dim)
        for scheme in ("u1", "u2"):
            step = TrotterStep(model, scheme, 0.2)
            planned = direct = psi
            for _ in range(10):
                planned = step.apply(planned)
                direct = TrotterStep(model, scheme, 0.2).apply(direct)
            assert np.array_equal(planned, direct)
            assert step.apply(psi.astype(complex)).dtype == complex

    def test_plan_is_read_only(self):
        step = TrotterStep(build_model(1, 1.0, REFERENCE_MEDIUM), "u2", 0.1)
        with pytest.raises(AttributeError):
            step.tau = 0.2
        for _, _, w_minus_i, _ in step._passes:
            assert not w_minus_i.flags.writeable

    def test_rejects_nonfinite_tau(self):
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        psi = np.zeros(model.dim, dtype=complex)
        for tau in (np.nan, np.inf):
            with pytest.raises(ValueError, match="tau"):
                TrotterStep(model, "u1", tau).apply(psi)

    def test_peak_memory_below_two_states(self):
        # the returned copy plus two six-row work buffers; a full-state
        # temporary on top would cross 2x
        import tracemalloc

        model = build_model(4, 1.0, REFERENCE_MEDIUM)
        psi = np.zeros(model.dim, dtype=complex)
        psi[0] = 1.0
        for scheme in ("u1", "u2"):
            TrotterStep(model, scheme, 0.1).apply(psi)  # warm up lazy imports
            tracemalloc.start()
            try:
                TrotterStep(model, scheme, 0.1).apply(psi)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * psi.nbytes

    def test_cost_grows_superlinearly(self):
        # wall time should scale roughly with the state size 2^(3n); call
        # overhead flattens the exponent at small n (n = 2 is almost all
        # overhead), so measure where work dominates and only assert clearly
        # superlinear growth per n increment
        timings = []
        for n in (3, 4, 5):
            model = build_model(n, 1.0, REFERENCE_MEDIUM)
            psi = np.zeros(model.dim, dtype=complex)
            psi[0] = 1.0
            TrotterStep(model, "u1", 0.1).apply(psi)  # warm up
            best = min(
                _timed(lambda: TrotterStep(model, "u1", 0.1).apply(psi))
                for _ in range(3))
            timings.append(best)
        slope = np.polyfit([3, 4, 5], np.log2(timings), 1)[0]
        assert slope > 1.0

    def test_import_defers_scipy_linalg(self):
        # _axis_pass imports dgemm on first use: `import elastoq` loads no scipy.linalg
        src = Path(elastoq.__file__).resolve().parent.parent
        script = ("import sys\n"
                  "import numpy as np\n"
                  "import elastoq\n"
                  "assert 'scipy.linalg' not in sys.modules, 'scipy.linalg imported'\n"
                  "params = elastoq.MaterialParams(1.0, 0.646, 0.255)\n"
                  "model = elastoq.build_model(2, 1.0, params)\n"
                  "psi = np.zeros(model.dim)\n"
                  "psi[0] = 1.0\n"
                  "out = elastoq.TrotterStep(model, 'u1', 0.1).apply(psi)\n"
                  "assert abs(np.linalg.norm(out) - 1.0) < 1e-12\n")
        done = subprocess.run([sys.executable, "-c", script],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr


class TestStepPlan:
    @pytest.mark.parametrize("scheme", ["u1", "u2"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_real_vector_batch_and_complex_agree(self, n, scheme):
        # a real (dim,) state and a (dim, 1) batch take the last-axis GEMM, a
        # complex state the broadcast; all three step the same way
        model = build_model(n, 1.0, REFERENCE_MEDIUM)
        step = TrotterStep(model, scheme, 0.3)
        psi = np.random.default_rng(40 + n).standard_normal(model.dim)
        psi /= np.linalg.norm(psi)
        vector = step.apply(psi)
        column = step.apply(psi[:, None])
        complex_ = step.apply(psi.astype(complex))
        assert vector.dtype == column.dtype == np.float64
        assert column.shape == (model.dim, 1)
        assert np.abs(vector - column[:, 0]).max() <= 1e-14
        assert np.abs(vector - complex_).max() <= 1e-14

    @pytest.mark.parametrize("n", [1, 2])
    def test_real_state_matches_gate_program(self, n):
        model = build_model(n, 1.0, REFERENCE_MEDIUM)
        psi = np.random.default_rng(50 + n).standard_normal(model.dim)
        psi /= np.linalg.norm(psi)
        for scheme, builder in (("u1", build_U1), ("u2", build_U2)):
            gates = simulate(builder(model, 0.3), psi)
            assert np.abs(TrotterStep(model, scheme, 0.3).apply(psi) - gates).max() < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rotation_stack_matches_per_pass_build(self, n, monkeypatch):
        # one stack, one pair-rotation call per level stage: n for u1, 2n for
        # u2 (the composed z pass runs up then down); each pass's W - I equals
        # its own identity stack rotated level by level, bit for bit
        import elastoq.circuits as circuits

        model = build_model(n, 1.0, REFERENCE_MEDIUM)
        calls = []

        def counted(*args):
            calls.append(args[2])
            apply_pair_rotation(*args)

        monkeypatch.setattr(circuits, "apply_pair_rotation", counted)
        for scheme, expected_calls in (("u1", n), ("u2", 2 * n)):
            calls.clear()
            step = TrotterStep(model, scheme, 0.3)
            assert len(calls) == expected_calls
            reference = _per_pass_rotations(model, scheme, 0.3)
            assert len(step._passes) == len(reference)
            for (_, _, w_minus_i, _), w_ref in zip(step._passes, reference):
                assert np.array_equal(w_minus_i, w_ref)


def _per_pass_rotations(model, scheme, tau):
    """W - I of every axis pass, each built on its own identity stack."""
    n, h, points = model.shape.n, model.shape.h, model.shape.points
    up, down = tuple(range(1, n + 1)), tuple(range(n, 0, -1))
    if scheme == "u1":
        plan = ((1, tau, up), (2, tau, up), (3, tau, up))
    else:
        half = tau / 2
        plan = ((1, half, up), (2, half, up), (3, half, up + down),
                (2, half, down), (1, half, down))
    stacks = []
    for axis, step_tau, levels in plan:
        lambdas = model.eigensystems[axis - 1].lambdas
        theta = lambdas[np.abs(lambdas) >= ZERO_EIGENVALUE_TOL] * step_tau / (2 * h)
        cos_t, sin_t = np.cos(theta)[:, None, None], np.sin(theta)[:, None, None]
        w = np.repeat(np.eye(points)[None], len(theta), axis=0)
        for k in levels:
            apply_pair_rotation(w, 1, k, cos_t, sin_t)
        stacks.append(w - np.eye(points))
    return stacks


def _timed(fn):
    import time

    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _rotate_degenerate_clusters(model, rng):
    """Same model with each degenerate eigenvector cluster mixed by a random rotation."""
    new_systems = []
    for eig in model.eigensystems:
        v = eig.v.copy()
        for a, b in degenerate_clusters(eig.lambdas):
            if b - a > 1:
                q, _ = np.linalg.qr(rng.standard_normal((b - a, b - a)))
                v[:, a:b] = v[:, a:b] @ q
        new_systems.append(AxisEigenSystem(axis=eig.axis, lambdas=eig.lambdas, v=v))
    return dataclasses.replace(model, eigensystems=tuple(new_systems))


class TestPaperScale:
    """Gate-level programs at n = 2..4 and the paper's n = 5 (19 qubits) against the step plan."""

    @staticmethod
    def real_unit_state(model, seed):
        psi = np.random.default_rng(seed).standard_normal(model.dim)
        return psi / np.linalg.norm(psi)

    @pytest.mark.parametrize("scheme, build", [("u1", build_U1), ("u2", build_U2)])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_program_matches_step_plan(self, n, scheme, build):
        model = build_model(n, 1.0, REFERENCE_MEDIUM)
        psi = self.real_unit_state(model, 60 + n)
        expected = TrotterStep(model, scheme, 0.3).apply(psi)
        assert np.abs(simulate(build(model, 0.3), psi) - expected).max() <= 1e-12

    @pytest.mark.parametrize("scheme, order", [("u1", 1), ("u2", 2)])
    @pytest.mark.parametrize("n", [4, 5])
    def test_trotter_order(self, n, scheme, order):
        # ||U(tau)^m psi - exp(-iHT) psi|| at T = m tau = 0.8 shrinks as tau^order:
        # each halving of tau reads 0.9999-1.0005 (u1) and 2.002-2.008 (u2) here
        model = build_model(n, 1.0, REFERENCE_MEDIUM)
        psi = random_state(np.random.default_rng(80 + n), model.dim)
        exact = Propagator(model).evolve(psi, 0.8)
        errors = []
        for tau in (0.4, 0.2, 0.1):
            step, out = TrotterStep(model, scheme, tau), psi
            for _ in range(round(0.8 / tau)):
                out = step.apply(out)
            errors.append(np.linalg.norm(out - exact))
        orders = np.log2(np.array(errors[:-1]) / errors[1:])
        assert np.abs(orders - order).max() <= 0.05, orders

    def test_text_round_trip_at_n5(self):
        model = build_model(5, 1.0, REFERENCE_MEDIUM)
        back = parse_program(serialize_program(build_U1(model, 0.7)))
        psi = self.real_unit_state(model, 70)
        expected = TrotterStep(model, "u1", 0.7).apply(psi)
        assert np.abs(simulate(back, psi) - expected).max() <= 1e-12


class TestEigenbasisFreedom:
    def test_u1_invariant_under_degenerate_rotations(self):
        rng = np.random.default_rng(10)
        for n in (1, 2):
            model = build_model(n, 1.0, REFERENCE_MEDIUM)
            rotated = _rotate_degenerate_clusters(model, rng)
            psi = random_state(rng, model.dim)
            out_a = TrotterStep(model, "u1", 0.4).apply(psi)
            out_b = TrotterStep(rotated, "u1", 0.4).apply(psi)
            assert np.abs(out_a - out_b).max() < 1e-9

    def test_u2_invariant_under_degenerate_rotations(self):
        rng = np.random.default_rng(17)
        for n in (1, 2):
            model = build_model(n, 1.0, REFERENCE_MEDIUM)
            rotated = _rotate_degenerate_clusters(model, rng)
            psi = random_state(rng, model.dim)
            out_a = TrotterStep(model, "u2", 0.4).apply(psi)
            out_b = TrotterStep(rotated, "u2", 0.4).apply(psi)
            assert np.abs(out_a - out_b).max() < 1e-9


class TestExactEvolve:
    def test_zero_time(self):
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        rng = np.random.default_rng(11)
        psi = random_state(rng, model.dim)
        out = Propagator(model).evolve(psi, 0.0)
        assert np.abs(out - psi).max() < 1e-12

    def test_norm_preserved(self):
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        rng = np.random.default_rng(12)
        psi = random_state(rng, model.dim)
        for out in (dense_evolve(model, 3.0, psi), Propagator(model).evolve(psi, 3.0)):
            assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-10)

    def test_dense_vs_propagator(self):
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        rng = np.random.default_rng(13)
        psi = random_state(rng, model.dim)
        dense = dense_evolve(model, 5.0, psi)
        spectral = Propagator(model).evolve(psi, 5.0)
        assert np.abs(dense - spectral).max() < 1e-8

    def test_dense_refuses_beyond_cap(self):
        # n = 3 would factor a dense 8192^2 complex matrix; refused before building it
        model = build_model(3, 1.0, REFERENCE_MEDIUM)
        with pytest.raises(ValueError, match="n=3"):
            dense_evolve(model, 0.1, np.zeros(model.dim, dtype=complex))

    def test_eigenvector_input_picks_up_phase(self):
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        evals, evecs = np.linalg.eigh(materialize_sparse_H(model).toarray())
        vec = evecs[:, -1].astype(complex)
        out = Propagator(model).evolve(vec, 2.0)
        assert np.abs(out - np.exp(-1j * evals[-1] * 2.0) * vec).max() < 1e-10


#: Gate lines that parse_program refuses by the simulator's rules at n = 1 (7 qubits).
_REFUSED_GATE_LINES = ("H 0", "H 99", "CNOT 5 5", "V4 4 5 6 7 u0", "MCRZ 5 nan", "H x",
                       "PCRZ 5 x7 0.1", "V4 1 2 3 4 x0", "PCRZ 2 p6 5 0.3", "PCRZ 7 p6 3 0.3")


class TestSerialization:
    def test_round_trip(self):
        model = build_model(2, 1.0, REFERENCE_MEDIUM)
        prog = build_U2(model, 0.37)
        text = serialize_program(prog)
        back = parse_program(text)
        assert back.n == prog.n
        assert back.scheme == prog.scheme
        assert back.tau == prog.tau
        assert back.cnot_account == prog.cnot_account
        assert len(back.gates) == len(prog.gates)
        for a, b in zip(prog.gates, back.gates):
            assert a.kind == b.kind
            assert a.target == b.target
            assert a.controls == b.controls
            assert a.pattern == b.pattern
            assert a.angle == b.angle  # 17 significant digits round-trip exactly
            if a.unitary is not None:
                assert np.array_equal(a.unitary, b.unitary)

    def test_round_trip_simulation(self):
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        prog = build_U1(model, 0.21)
        back = parse_program(serialize_program(prog))
        rng = np.random.default_rng(15)
        psi = random_state(rng, model.dim)
        assert np.array_equal(simulate(prog, psi), simulate(back, psi))

    def test_format_lines(self):
        model = build_model(2, 1.0, REFERENCE_MEDIUM)
        text = serialize_program(build_U1(model, 0.1))
        lines = text.splitlines()
        assert lines[0] == "ELASTOQ-PROGRAM v1"
        assert any(line.startswith("PCRZ ") and " p" in line for line in lines)
        assert any(line.startswith("V4DG 1 2 3 4 u") for line in lines)
        assert any(line.startswith("%unitary") for line in lines)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="header"):
            parse_program("not a program\n")

    @pytest.mark.parametrize("edit, match", [
        (lambda lines: lines[:-13], "unitary"),  # 3 of the last block's 16 rows
        (lambda lines: [f"gates {len(lines)}" if l.startswith("gates ") else l
                        for l in lines], "gates"),
        (lambda lines: [l for l in lines if not l.startswith("gates ")], "gates"),
        (lambda lines: [l for l in lines if not l.startswith("tau ")], "tau"),
        (lambda lines: [" ".join(l.split()[:3]) if l.startswith("PCRZ") else l
                        for l in lines], "PCRZ"),
        (lambda lines: [l.replace(" p", " p990", 1) if l.startswith("PCRZ") else l
                        for l in lines], "p990"),
        (lambda lines: [l.replace(" u0", " u7") for l in lines], "unitary 7"),
        (lambda lines: [l.replace("SDG", "SDG 1", 1) for l in lines], "SDG"),
        (lambda lines: lines + ["%unitary"], "trailer"),
        (lambda lines: [l.replace("%unitary 1", "%unitary x") for l in lines], "%unitary x"),
        (lambda lines: lines[:-1] + [" ".join(["1.0x"] + lines[-1].split()[1:])],
         "%unitary 2: .*1.0x"),
        (lambda lines: lines[:-1] + [" ".join(["nan"] + lines[-1].split()[1:])],
         "%unitary 2: a non-finite entry"),
        # a second block 0 used to replace the first; a block 3 no gate names
        (lambda lines: lines + ["%unitary 0"] + lines[-16:], "%unitary 0 appears twice"),
        (lambda lines: lines + ["%unitary 3"] + lines[-16:], "%unitary 3 is used by no gate"),
        # an unknown key and a second tau line used to parse (the later tau won)
        (lambda lines: lines[:1] + ["colour red"] + lines[1:], "metadata 'colour'"),
        (lambda lines: lines[:5] + ["tau 0.5"] + lines[5:], "metadata tau appears twice"),
        # each gate line below used to parse and fail only in simulate, or not at all
        *((lambda lines, line=line: replace_first_gate(lines, line), re.escape(f"'{line}'"))
          for line in _REFUSED_GATE_LINES),
    ], ids=["truncated-unitary", "gates-past-end", "missing-gates", "missing-tau",
            "short-pcrz", "pattern-out-of-range", "missing-payload", "extra-token",
            "bare-trailer", "bad-payload-index", "bad-payload-entry", "nonfinite-payload-entry",
            "duplicate-payload-block", "unused-payload-block",
            "unknown-metadata-key", "repeated-metadata-key",
            *(line.replace(" ", "-") for line in _REFUSED_GATE_LINES)])
    def test_rejects_malformed(self, edit, match):
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        lines = serialize_program(build_U1(model, 0.3)).splitlines()
        with pytest.raises(ValueError, match=match):
            parse_program("\n".join(edit(lines)) + "\n")

    @pytest.mark.parametrize("key, value", [
        ("scheme", "u3"), ("n", "0"), ("n", "-2"), ("n", "two"), ("qubits", "99"),
        ("qubits", "10"), ("tau", "nan"), ("tau", "inf"), ("tau", "fast"),
        ("cnot_account", "-1"), ("cnot_account", "1.5"), ("gates", "-1"),
        # any count but step_cnots("u1", 1) = 810 is refused, u2's 1620 included
        ("cnot_account", "0"), ("cnot_account", "811"), ("cnot_account", "1620"),
    ])
    def test_rejects_bad_metadata(self, key, value):
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        lines = [f"{key} {value}" if line.startswith(key + " ") else line
                 for line in serialize_program(build_U1(model, 0.3)).splitlines()]
        with pytest.raises(ValueError, match=f"metadata {key} "):
            parse_program("\n".join(lines) + "\n")

    def test_requires_qubits_line(self):
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        lines = serialize_program(build_U1(model, 0.3)).splitlines()
        with pytest.raises(ValueError, match="qubits"):
            parse_program("\n".join(l for l in lines if not l.startswith("qubits ")) + "\n")

    @pytest.mark.parametrize("scheme", ["block", "second"])
    def test_serialize_refuses_scheme_without_cnot_account(self, scheme):
        # only u1 and u2 have a step_cnots account for the text's cnot_account line
        with pytest.raises(ValueError, match="scheme"):
            serialize_program(GateProgram(n=1, scheme=scheme, tau=0.1, gates=()))


def gate_fields(gate):
    return (gate.kind, gate.target, gate.controls, gate.pattern, gate.angle,
            gate.targets, id(gate.unitary))  # a payload compares by object


def distinct_gates(program):
    return len({id(g) for g in program.gates})


def program_text(lines):
    """n = 1 u1 program text of the given gate lines, with no payloads."""
    model = build_model(1, 1.0, REFERENCE_MEDIUM)
    header = serialize_program(block_program(model, [])).splitlines()[:-1]
    return "\n".join([*header, f"gates {len(lines)}", *lines]) + "\n"


class TestSharedGates:
    """A built or parsed program holds one Gate object per distinct gate."""

    @pytest.mark.parametrize("tau", [0.1, 0.5])
    @pytest.mark.parametrize("scheme", ["u1", "u2"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_program_is_its_script_blocks(self, n, scheme, tau):
        # the builder's definition before it shared gates: each block built alone
        model = build_model(n, 1.0, REFERENCE_MEDIUM)
        blocks = []
        for share, reverse in SWEEPS[scheme]:
            for axis in sorted((1, 2, 3), reverse=reverse):
                for j in sorted(range(16), reverse=reverse):
                    blocks += build_script_W(model, axis, j, share * tau, k_descending=reverse)
        program = build_program(model, scheme, tau)
        assert [gate_fields(g) for g in program.gates] == [gate_fields(g) for g in blocks]
        alone = GateProgram(n=n, scheme=scheme, tau=tau, gates=tuple(blocks))
        assert serialize_program(program) == serialize_program(alone)

    @pytest.mark.parametrize("tau", [0.1, 0.5])
    @pytest.mark.parametrize("scheme", ["u1", "u2"])
    @pytest.mark.parametrize("n, count", [(1, 33), (2, 63), (3, 96)])
    def test_distinct_gate_count(self, n, count, scheme, tau):
        # per axis: two payloads and, per level k, k - 1 CNOTs, SDG, H and S;
        # per live (axis, j) sector, one PCRZ per level
        model = build_model(n, 1.0, REFERENCE_MEDIUM)
        live = sum(int((np.abs(eig.lambdas) >= ZERO_EIGENVALUE_TOL).sum())
                   for eig in model.eigensystems)
        assert count == 3 * (2 + 3 * n + n * (n - 1) // 2) + n * live
        program = build_program(model, scheme, tau)
        assert distinct_gates(program) == count
        text = serialize_program(program)
        back = parse_program(text)
        assert distinct_gates(back) == count
        assert serialize_program(back) == text

    def test_signed_zero_angles_stay_apart(self):
        # a negative sweep share at tau = 0 gives -0.0 angles, which the text writes as -0
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        j = int(np.argmax(np.abs(model.eigensystems[0].lambdas)))
        blocks = _Blocks(model)
        (_, *plus, _), (_, *minus, _) = (blocks.script(1, j, tau, False) for tau in (0.0, -0.0))
        rotations = [next(g for g in gates if g.kind == "pcrz") for gates in (plus, minus)]
        assert sorted(math.copysign(1.0, rz.angle) for rz in rotations) == [-1.0, 1.0]
        assert blocks.script(1, j, 0.0, False)[1:-1] == plus  # equal angles share objects

    def test_lowering_independent_of_sharing(self):
        # one object per gate entry lowers to the same steps, and simulates the same bytes
        model = build_model(2, 1.0, REFERENCE_MEDIUM)
        program = build_U2(model, 0.3)
        unshared = dataclasses.replace(
            program, gates=tuple(dataclasses.replace(g) for g in program.gates))
        assert distinct_gates(unshared) == len(program.gates)
        (steps, folds), (unshared_steps, unshared_folds) = (
            _lower(p.gates, p.qubits) for p in (program, unshared))
        assert folds == unshared_folds
        assert len(steps) == len(unshared_steps)
        for (i0, i1, mat), (j0, j1, other) in zip(steps, unshared_steps):
            assert (i0, i1) == (j0, j1)
            assert (mat is None and other is None) or np.array_equal(mat, other)
        psi = random_state(np.random.default_rng(29), model.dim)
        assert np.array_equal(simulate(program, psi), simulate(unshared, psi))

    @pytest.mark.parametrize("layout", ["after-100-good", "repeated", "repeated-after-good"])
    @pytest.mark.parametrize("bad, line, message", [
        (Gate("h", target=99), "H 99", "gate h addresses qubit 99 outside 1..7"),
        (Gate("pcrz", target=5, pattern=16, angle=0.1), "PCRZ 5 p16 0.1",
         "gate pcrz needs a pattern in 0..15, got 16"),
        (Gate("cnot", target=5, controls=(5,)), "CNOT 5 5",
         "gate cnot touches a qubit twice: [5, 5]"),
    ], ids=["qubit-outside", "pattern-16", "qubit-twice"])
    def test_checked_once_refuses_every_bad_gate(self, bad, line, message, layout):
        # a gate is checked at its first entry only, so no bad one may hide behind good ones
        good, good_line = Gate("pcrz", target=5, pattern=3, angle=0.1), "PCRZ 5 p3 0.1"
        entries = {"after-100-good": (100, 1), "repeated": (0, 50),
                   "repeated-after-good": (100, 50)}[layout]
        model = build_model(1, 1.0, REFERENCE_MEDIUM)
        program = block_program(model, [good] * entries[0] + [bad] * entries[1])
        with pytest.raises(ValueError, match=re.escape(message)):
            simulate(program, np.zeros(model.dim, dtype=complex))
        text = program_text([good_line] * entries[0] + [line] * entries[1])
        with pytest.raises(ValueError, match=re.escape(f"gate line {line!r}: {message}")):
            parse_program(text)


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def gate_programs(draw):
    """Small programs over every gate kind; V4 payloads may be shared."""
    n = draw(st.integers(1, 2))
    qubits = 3 * n + 4
    scale = draw(st.sampled_from((1e-300, 1.0, 1e300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    payloads = [scale * rng.standard_normal((16, 32)).view(complex)
                for _ in range(draw(st.integers(1, 2)))]
    gates = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(("h", "s", "sdg", "cnot", "mcrz", "pcrz", "v4", "v4dg")))
        wires = draw(st.permutations(range(1, qubits + 1)))
        if kind in ("h", "s", "sdg"):
            gates.append(Gate(kind, target=wires[0]))
        elif kind == "cnot":
            gates.append(Gate(kind, target=wires[0], controls=(wires[1],)))
        elif kind in ("mcrz", "pcrz"):
            if kind == "pcrz":  # off the state register its pattern reads
                wires = [q for q in wires if q > 4]
            controls = tuple(wires[1:1 + draw(st.integers(0, 3))])
            pattern = draw(st.integers(0, 15)) if kind == "pcrz" else None
            gates.append(Gate(kind, target=wires[0], controls=controls, pattern=pattern,
                              angle=draw(_FLOATS)))
        else:
            gates.append(Gate(kind, targets=(1, 2, 3, 4),
                              unitary=draw(st.sampled_from(payloads))))
    scheme = draw(st.sampled_from(("u1", "u2")))
    return GateProgram(n=n, scheme=scheme, tau=draw(_FLOATS), gates=tuple(gates))


@settings(max_examples=40, deadline=None)
@given(program=gate_programs())
def test_property_text_round_trip(program):
    back = parse_program(serialize_program(program))
    assert (back.n, back.scheme, back.cnot_account) == (
        program.n, program.scheme, program.cnot_account)
    assert back.tau == program.tau
    assert len(back.gates) == len(program.gates)
    for a, b in zip(program.gates, back.gates):
        assert (a.kind, a.target, a.controls, a.pattern, a.targets) == (
            b.kind, b.target, b.controls, b.pattern, b.targets)
        assert a.angle == b.angle
        if a.unitary is not None:
            assert np.array_equal(a.unitary, b.unitary)


@settings(max_examples=20, deadline=None)
@given(program=gate_programs())
def test_property_every_truncation_rejected(program):
    lines = serialize_program(program).splitlines()
    for cut in range(len(lines)):
        with pytest.raises(ValueError):
            parse_program("\n".join(lines[:cut]) + "\n")


_ONE_QUBIT_KINDS = ("h", "s", "sdg")
_ADJOINT_KIND = {"h": "h", "s": "sdg", "sdg": "s"}
# two payloads, and a copy of the first: equal entries, a different object
_N1_PAYLOADS = [random_unitary(np.random.default_rng(seed)) for seed in (31, 32)]
_N1_PAYLOADS.append(_N1_PAYLOADS[0].copy())


@st.composite
def _rotation(draw, target):
    """An MCRZ anywhere, or a PCRZ off the state register its pattern reads (n = 1)."""
    kind = draw(st.sampled_from(("mcrz", "pcrz")))
    wires = (1, 2, 3, 4, 5, 6, 7) if kind == "mcrz" else (5, 6, 7)
    if target not in wires:
        target = draw(st.sampled_from(wires))
    others = [q for q in wires if q != target]
    controls = tuple(draw(st.lists(st.sampled_from(others), unique=True, max_size=2)))
    pattern = draw(st.integers(0, 15)) if kind == "pcrz" else None
    return Gate(kind, target=target, controls=controls, pattern=pattern,
                angle=draw(st.floats(-7, 7)))


@st.composite
def _conjugated_rotation(draw):
    """One or two rotations between a basis change and its undoing, exact or a
    near miss, or with a CNOT on the held wire before the undoing."""
    rotation = draw(_rotation(draw(st.integers(1, 7))))
    target = rotation.target
    middle = [rotation] + draw(st.lists(_rotation(target), max_size=1))
    before = draw(st.lists(st.sampled_from(_ONE_QUBIT_KINDS), max_size=3))
    after = [Gate(_ADJOINT_KIND[k], target=target) for k in reversed(before)]
    miss = draw(st.sampled_from(("none", "kind", "short", "long", "target", "cnot")))
    if miss == "kind" and after:  # e.g. [sdg, h] rz [h, sdg]
        i = draw(st.integers(0, len(after) - 1))
        after[i] = Gate(draw(st.sampled_from(_ONE_QUBIT_KINDS)), target=target)
    elif miss == "short":  # a partial undoing
        after = after[:-1]
    elif miss == "long":  # e.g. [h] rz [h, s]
        after.append(Gate(draw(st.sampled_from(_ONE_QUBIT_KINDS)), target=target))
    elif miss == "target" and after:
        i = draw(st.integers(0, len(after) - 1))
        after[i] = Gate(after[i].kind, target=target % 7 + 1)
    elif miss == "cnot":  # its target or control is the held wire
        wires = draw(st.permutations((target, target % 7 + 1)))
        middle.append(Gate("cnot", target=wires[0], controls=(wires[1],)))
    return [Gate(k, target=target) for k in before] + middle + after


@st.composite
def _payload_pair(draw):
    """V4 then V4DG, or the reverse, of the same payload or of two different ones."""
    first, second = draw(st.permutations(("v4", "v4dg")))
    return [Gate(first, targets=(1, 2, 3, 4), unitary=draw(st.sampled_from(_N1_PAYLOADS))),
            Gate(second, targets=(1, 2, 3, 4), unitary=draw(st.sampled_from(_N1_PAYLOADS)))]


@st.composite
def _single_gate(draw):
    kind = draw(st.sampled_from(("h", "s", "sdg", "cnot", "rotation", "v4", "v4dg")))
    wires = draw(st.permutations(range(1, 8)))
    if kind in _ONE_QUBIT_KINDS:
        return [Gate(kind, target=wires[0])]
    if kind == "cnot":
        return [Gate(kind, target=wires[0], controls=(wires[1],))]
    if kind == "rotation":
        return [draw(_rotation(wires[0]))]
    return [Gate(kind, targets=(1, 2, 3, 4), unitary=draw(st.sampled_from(_N1_PAYLOADS)))]


@settings(max_examples=150, deadline=None)
@given(chunks=st.lists(st.one_of(_conjugated_rotation(), _payload_pair(), _single_gate()),
                       max_size=8),
       seed=st.integers(0, 2**32 - 1))
def test_property_simulate_matches_per_gate_reference(chunks, seed):
    program = GateProgram(n=1, scheme="u1", tau=0.0,
                          gates=tuple(g for chunk in chunks for g in chunk))
    rng = np.random.default_rng(seed)
    batch = np.stack([random_state(rng, program.dim) for _ in range(2)], axis=1)
    assert np.abs(simulate(program, batch) - per_gate_reference(program, batch)).max() <= 1e-13


_N1_PROGRAM_LINES = {
    scheme: serialize_program(build(build_model(1, 1.0, REFERENCE_MEDIUM), 0.3)).splitlines()
    for scheme, build in (("u1", build_U1), ("u2", build_U2))}

_TOKENS = st.one_of(
    st.integers(-3, 12).map(str), st.integers().map(str), st.floats().map(repr),
    st.sampled_from(("H", "s", "SDG", "CNOT", "MCRZ", "PCRZ", "V4", "V4DG", "p3", "p16",
                     "u0", "u2", "u3", "x", "nan", "-inf")),
    st.from_regex(r"[A-Za-z0-9_.+-]{1,6}", fullmatch=True))


@settings(max_examples=200, deadline=None)
@given(scheme=st.sampled_from(("u1", "u2")), data=st.data(), token=_TOKENS)
def test_property_edited_gate_line_parses_valid_or_is_quoted(scheme, data, token):
    # the text format and the simulator share one set of gate rules: an edited
    # gate line either parses into a program simulate runs, or raises naming it
    lines = list(_N1_PROGRAM_LINES[scheme])
    row = data.draw(st.integers(7, 6 + int(lines[6].split()[1])))
    toks = lines[row].split()
    toks[data.draw(st.integers(0, len(toks) - 1))] = token
    lines[row] = " ".join(toks)
    try:
        program = parse_program("\n".join(lines) + "\n")
    except ValueError as err:
        assert repr(lines[row]) in str(err)
        return
    psi = random_state(np.random.default_rng(row), program.dim)
    out = simulate(program, psi)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12
