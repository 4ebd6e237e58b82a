"""Gate-level construction and dense statevector simulation of Trotter steps,
in the term order of their scheme's product schedule, hamiltonian.SWEEPS.

Qubit layout (1-based, qubit 1 is the most significant bit of the amplitude
index): qubits 1..4 hold the 16 field components, followed by the x, y, z
axis blocks of n qubits each.  Within an axis block the level-k ladder
operator acts on the k least significant qubits of that block, so its target
qubit is 5 + axis*n - k.

Rotation sign convention: the controlled-RZ wrapped in the ladder/phase/
Hadamard conjugation realizes, for RZ parameter x (phases exp(+-i*x) on
target |0>/|1>), the real rotation exp(x * S_k) on every coupled index pair.
A single exact term exponential of the split generator acts on its eigen-
sector as exp(+theta * S_k) with theta = lambda * tau / 2h, so the step
builders pass x = +theta while the standalone pair-rotation block below uses
x = -theta (rotation matrix [[cos, -sin], [sin, cos]] on each pair).

A program may hold one Gate object many times.  build_program and
parse_program make one object per distinct gate (Gate is frozen and compares
by identity): an n = 3 u2 program lists 948 gates but holds 96 objects.
serialize_program renders, parse_program checks and simulate's lowering
validates each distinct object once per call.  Nothing is kept between calls,
since payloads are mutable numpy arrays.

Program text format (see serialize_program / parse_program):

    ELASTOQ-PROGRAM v1        header, then one "key value" line each for
                              n, qubits (3n + 4), scheme (u1/u2), tau and
                              cnot_account (step_cnots of the scheme)
    gates <count>             followed by one gate per line:
    H t | S t | SDG t         single-qubit gates on qubit t
    CNOT t c                  target t, control c
    MCRZ t [c...] x           RZ(x) on t, controls all-ones
    PCRZ t p<j> [c...] x      RZ(x) on t, state register matching pattern j
                              (qubit 1 = most significant bit of j) plus
                              all-ones ladder controls c; t, c > 4
    V4 1 2 3 4 u<i>           16x16 unitary payload i on the state register
    V4DG 1 2 3 4 u<i>         its adjoint
    %unitary <i>              payload block: 16 lines of 32 floats (re im),
                              17 significant digits; one block per index,
                              each used by at least one gate
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .hamiltonian import (
    DENSE_MAX_N,
    SWEEPS,
    HamiltonianModel,
    Propagator,
    TermKey,
    ZERO_EIGENVALUE_TOL,
    check_state,
    qubit_count,
    step_cnots,
    term_angle,
)
from .lattice import apply_pair_rotation
from .media import STATE_DIM, check_choice, check_count, check_real

STATE_QUBITS = (1, 2, 3, 4)
#: The 2x2 matrices of the single-qubit gates, and the adjoint of each uncontrolled kind.
_ONE_QUBIT = {"h": np.array([[1, 1], [1, -1]]) / math.sqrt(2.0),
              "s": np.diag([1, 1j]), "sdg": np.diag([1, -1j])}
_ADJOINT = {"h": "h", "s": "sdg", "sdg": "s", "v4": "v4dg", "v4dg": "v4"}
ROTATIONS = ("mcrz", "pcrz")
_PAYLOADS = ("v4", "v4dg")
#: The fields each gate kind reads; simulate and the text format drop the rest.
_READS = {**dict.fromkeys(_ONE_QUBIT, ("target",)), "cnot": ("target", "controls"),
          "mcrz": ("target", "controls", "angle"),
          "pcrz": ("target", "controls", "pattern", "angle"),
          **dict.fromkeys(_PAYLOADS, ("targets", "unitary"))}
GATE_KINDS = tuple(_READS)


@dataclass(frozen=True, eq=False)
class Gate:
    """One IR gate; multi-controlled rotations and 4-qubit unitaries are primitives."""

    kind: str
    target: int = 0
    controls: tuple[int, ...] = ()
    pattern: int | None = None
    angle: float = 0.0
    targets: tuple[int, ...] = ()
    unitary: np.ndarray | None = None


#: Per gate kind, each field it does not read, with the default that field must keep.
_UNREAD = {kind: [(f.name, f.default) for f in fields(Gate)[1:] if f.name not in reads]
           for kind, reads in _READS.items()}


@dataclass(frozen=True, eq=False)
class GateProgram:
    """Ordered gate list plus step metadata."""

    n: int
    scheme: str
    tau: float
    gates: tuple[Gate, ...]

    @property
    def cnot_account(self) -> int:
        """step_cnots of the scheme: the closed formula, never a count of IR entries."""
        return step_cnots(self.scheme, self.n)

    @property
    def qubits(self) -> int:
        return qubit_count(self.n)

    @property
    def dim(self) -> int:
        return 1 << self.qubits


def ladder_qubit(n: int, axis: int, k: int) -> int:
    """Qubit carrying the level-k ladder target within one axis block."""
    return 5 + axis * n - k


def _validate_gate(gate: Gate, qubits: int) -> None:
    """Reject a gate the simulator would misread or ignore (simulate, parse_program)."""
    kind = gate.kind
    if kind not in GATE_KINDS:
        raise ValueError(f"unknown gate kind {kind!r}")
    for name, default in _UNREAD[kind]:
        value = getattr(gate, name)
        if value is not default and (default is None or value != default):
            raise ValueError(f"gate {kind} does not read {name}; leave it at {default!r}")
    if kind == "cnot" and len(gate.controls) != 1:
        raise ValueError(f"gate cnot takes exactly one control, got {gate.controls}")
    if kind == "pcrz" and gate.pattern not in range(STATE_DIM):
        raise ValueError(f"gate pcrz needs a pattern in 0..{STATE_DIM - 1}, "
                         f"got {gate.pattern!r}")
    if kind in ROTATIONS and not math.isfinite(gate.angle):
        raise ValueError(f"gate {kind} needs a finite angle, got {gate.angle}")
    if kind in _PAYLOADS:
        if gate.targets != STATE_QUBITS:
            raise ValueError(f"gate {kind} acts on the state register {STATE_QUBITS} "
                             f"only, got targets {gate.targets}")
        if gate.unitary is None or gate.unitary.shape != (STATE_DIM, STATE_DIM):
            raise ValueError(f"gate {kind} needs a {STATE_DIM}x{STATE_DIM} payload")
    touched = list(gate.targets) if kind in _PAYLOADS else [gate.target]
    touched += list(gate.controls)
    if len(set(touched)) != len(touched):
        raise ValueError(f"gate {kind} touches a qubit twice: {touched}")
    for q in touched:
        if not 1 <= q <= qubits:
            raise ValueError(f"gate {kind} addresses qubit {q} outside 1..{qubits}")
    if kind == "pcrz" and any(q in STATE_QUBITS for q in touched):
        raise ValueError(f"gate pcrz reads the state register {STATE_QUBITS} through its "
                         f"pattern, so its target and controls lie past it, got {touched}")


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _frame(n: int, axis: int, k: int) -> tuple[list[Gate], list[Gate], Gate]:
    """The gates before and after the level-k rotation of one axis, and a
    rotation template on its target and controls.

    With the rotation between them they realize exp(x * S_k) on the
    (conditioned) axis.  Time order: CNOT ladder off the target qubit, S^dag,
    H, the controlled rotation, H, S, ladder again (the ladder gates are
    mutually commuting involutions, and each is one object, as is the H).
    """
    target = ladder_qubit(n, axis, k)
    lowers = tuple(ladder_qubit(n, axis, l) for l in range(1, k))
    ladder = [Gate("cnot", target=l, controls=(target,)) for l in lowers]
    h = Gate("h", target=target)
    return (ladder + [Gate("sdg", target=target), h], [h, Gate("s", target=target)] + ladder[::-1],
            Gate("mcrz", target=target, controls=lowers))


def build_W_jk(model: HamiltonianModel, key: TermKey, tau: float) -> list[Gate]:
    """Uncontrolled pair-rotation block for one term: exp(-theta_jk * S_k)."""
    before, after, rz = _frame(model.shape.n, key.axis, key.k)
    return [*before, replace(rz, angle=-term_angle(model, key, tau)), *after]


class _Blocks:
    """The gates of one model's eigenindex blocks, each built once.

    Per axis its two payload gates and per level its frame; each live
    (axis, j, k) rotation once per distinct angle, so blocks of equal tau
    share their rotations (a zero angle keys apart from its negative, which
    the text writes differently).
    """

    def __init__(self, model: HamiltonianModel):
        n = model.shape.n
        self.model = model
        self.payloads = [(Gate("v4dg", targets=STATE_QUBITS, unitary=eig.v),
                          Gate("v4", targets=STATE_QUBITS, unitary=eig.v))
                         for eig in model.eigensystems]
        self.frames = [[_frame(n, axis, k) for k in range(1, n + 1)] for axis in (1, 2, 3)]
        self.rotations: dict[tuple, list[Gate]] = {}

    def script(self, axis: int, j: int, tau: float, k_descending: bool) -> list[Gate]:
        """build_script_W's gates, from the shared objects."""
        v4dg, v4 = self.payloads[axis - 1]
        if abs(self.model.eigensystems[axis - 1].lambdas[j]) < ZERO_EIGENVALUE_TOL:
            return [v4dg, v4]
        theta = term_angle(self.model, TermKey(axis, j, 1), tau)  # the same at every level
        frames = self.frames[axis - 1]
        key = (axis, j, theta, math.copysign(1.0, theta))
        if key not in self.rotations:
            self.rotations[key] = [replace(rz, kind="pcrz", pattern=j, angle=theta)
                                   for _, _, rz in frames]
        levels = list(zip(frames, self.rotations[key]))
        gates = [v4dg]
        for (before, after, _), rz in levels[::-1] if k_descending else levels:
            gates += before
            gates.append(rz)
            gates += after
        gates.append(v4)
        return gates


def build_script_W(model: HamiltonianModel, axis: int, j: int, tau: float,
                   k_descending: bool = False) -> list[Gate]:
    """Basis change + all pattern-controlled levels of one eigenindex block.

    Equals the ordered product over k of the exact term exponentials for
    eigenindex j of this axis (identity off the j sector).  A zero eigenvalue
    rotates nothing, so its block is the two basis changes alone.
    """
    check_count("axis", axis, 1, 3)
    check_count("eigenindex j", j, 0, STATE_DIM - 1)
    return _Blocks(model).script(axis, j, tau, k_descending)


def build_program(model: HamiltonianModel, scheme: str, tau: float) -> GateProgram:
    """The step's gates: each sweep of SWEEPS[scheme] in time order, over axes, j and k.

    Equal gates are one object (_Blocks), so each layer works once per distinct gate.
    """
    check_real("tau", tau, -math.inf, math.inf)
    check_choice("scheme", scheme, SWEEPS)
    blocks = _Blocks(model)
    gates: list[Gate] = []
    for share, reverse in SWEEPS[scheme]:
        for axis in sorted((1, 2, 3), reverse=reverse):
            for j in sorted(range(STATE_DIM), reverse=reverse):
                gates += blocks.script(axis, j, share * tau, k_descending=reverse)
    return GateProgram(n=model.shape.n, scheme=scheme, tau=tau, gates=tuple(gates))


def build_U1(model: HamiltonianModel, tau: float) -> GateProgram:
    """First-order step, the schedule SWEEPS["u1"]."""
    return build_program(model, "u1", tau)


def build_U2(model: HamiltonianModel, tau: float) -> GateProgram:
    """Symmetric second-order step, the schedule SWEEPS["u2"]."""
    return build_program(model, "u2", tau)


# ---------------------------------------------------------------------------
# statevector simulation
# ---------------------------------------------------------------------------

def _halves(qubits: int, target: int, fixed: dict[int, int]) -> tuple[tuple, tuple]:
    """Index tuples of the target's 0 and 1 halves with the given 1-based qubits fixed."""
    idx: list = [slice(None)] * qubits
    for q, bit in {**fixed, target: 0}.items():
        idx[q - 1] = bit
    return tuple(idx), tuple(idx[:target - 1] + [1] + idx[target:])


@functools.cache
def _rz_parts(basis: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The two parts of a^dag RZ(x) a = exp(ix) low + exp(-ix) high, where a is
    the basis change of the given 1-qubit gate kinds, in time order."""
    a = np.eye(2)
    for kind in basis:
        a = _ONE_QUBIT[kind] @ a
    return np.outer(a[0].conj(), a[0]), np.outer(a[1].conj(), a[1])


def _check_gate(gate: Gate, qubits: int, adjoints: dict[int, np.ndarray]) -> tuple:
    """Validate one gate for _lower; for any kind but a payload, (releases, i0, i1).

    A payload not in adjoints (by id) is checked for finite entries and
    unitarity, and its adjoint stored there.  releases are the wires whose
    held gates apply before the gate (0 for the held payloads, when it reaches
    the state register); i0 and i1 are the index tuples of its target's 0 and
    1 halves on its control subspace.
    """
    _validate_gate(gate, qubits)
    kind, target, u = gate.kind, gate.target, gate.unitary
    if kind in _PAYLOADS:
        if id(u) not in adjoints:
            if not np.isfinite(u).all():
                raise ValueError("four-qubit payload holds a non-finite entry")
            adjoint = u.conj().T
            defect = np.linalg.norm(adjoint @ u - np.eye(STATE_DIM), 2)
            if defect > 1e-10:
                raise ValueError(f"four-qubit payload is not unitary (defect {defect:.3e})")
            adjoints[id(u)] = adjoint
        return ()
    fixed = {c: 1 for c in gate.controls}
    if kind == "pcrz":
        fixed.update({q: (gate.pattern >> (4 - q)) & 1 for q in STATE_QUBITS})
    reads = [*fixed, target] if kind == "cnot" else [*fixed]
    releases = [*reads, 0] if min([target, *fixed]) <= STATE_QUBITS[-1] else reads
    return releases, *_halves(qubits, target, fixed)


def _lower(gates: tuple[Gate, ...], qubits: int) -> tuple[list, int]:
    """Validate the gates; the steps simulate applies by its hold-back rule, and the folds.

    A program may hold one object many times; each distinct gate object is
    checked (_check_gate) once, and each distinct payload once.  A step is
    (i0, i1, mat): the index tuples of the target's 0 and 1 halves on the
    gate's control subspace, and the 2x2 to apply there, or None for a CNOT's
    swap; or it is (None, None, product) for a held payload run's 16x16
    product in gate order.  Steps of one gate share their index tuples and,
    under the same held basis, their 2x2.
    """
    steps: list = []
    folds = 0
    held: dict[int, list[Gate]] = {}  # wire -> its held 1-qubit gates; 0 -> held payloads
    adjoints: dict[int, np.ndarray] = {}  # id of each checked payload -> its adjoint
    checked: dict[int, tuple] = {}  # id of each checked gate -> _check_gate's result
    rotations: dict[tuple, np.ndarray] = {}  # (id of a rotation, held basis) -> its 2x2

    def release(keys) -> None:
        for key in keys:
            run = held.pop(key, None)
            if run and key == 0:
                mats = [adjoints[id(g.unitary)] if g.kind == "v4dg" else g.unitary for g in run]
                steps.append((None, None, functools.reduce(lambda acc, mat: mat @ acc, mats)))
            elif run:
                steps.extend((*checked[id(g)][1:], _ONE_QUBIT[g.kind]) for g in run)

    for gate in gates:
        if id(gate) not in checked:
            checked[id(gate)] = _check_gate(gate, qubits, adjoints)
        kind, target = gate.kind, gate.target
        if kind in _ADJOINT:  # uncontrolled: held, or cancelled with the adjoint held last
            key = 0 if kind in _PAYLOADS else target
            if key == 0 or target in STATE_QUBITS:  # the other kind of held gate applies
                release(STATE_QUBITS if key == 0 else [0])
            run = held.setdefault(key, [])
            if run and run[-1].kind == _ADJOINT[kind] and run[-1].unitary is gate.unitary:
                run.pop()
            else:
                run.append(gate)
            continue
        releases, i0, i1 = checked[id(gate)]
        release(releases)
        if kind == "cnot":
            steps.append((i0, i1, None))
            continue
        # the gates a held on the target stay held: C(RZ) a = a C(a^dag RZ a)
        basis = tuple(g.kind for g in held.get(target, ()))
        folds += bool(basis)
        if (id(gate), basis) not in rotations:
            low, high = _rz_parts(basis)
            phase = cmath.exp(1j * gate.angle)
            rotations[id(gate), basis] = phase * low + phase.conjugate() * high
        steps.append((i0, i1, rotations[id(gate), basis]))
    release(list(held))
    return steps, folds


def simulate(program: GateProgram, psi: np.ndarray) -> np.ndarray:
    """Apply the program to a state (dim,) or a batch of columns (dim, b).

    The gates are validated and lowered first (_lower), so a bad program
    raises before any gate runs.  They then apply in order under one hold-back
    rule, exact because it matches by gate kind, wire and payload object:

    - an uncontrolled gate (H/S/SDG, or a payload on the state register) is
      held, not applied, or cancels the gate held last on its wires when that
      is its adjoint (H by H, S by SDG, V4 u by V4DG u of the same object);
    - held gates apply, in order, when a gate that does not join their hold
      touches their wires (a PCRZ touches the state register through its
      pattern), or at the end; held payloads apply as one 16x16 product into
      a second buffer, which then becomes the state;
    - but a rotation leaves the gates a held on its target held, and applies
      as the 2x2 a^dag RZ a on its control subspace: C(RZ) a = a C(a^dag RZ a).

    An uncancelled held gate, such as an S where an SDG belongs, applies as
    written, so the result is always the gate list's own.
    """
    check_state(psi, program.dim)
    qubits = program.qubits
    steps = _lower(program.gates, qubits)[0]
    state = np.array(psi, dtype=complex)
    spare = np.empty_like(state)
    nd_shape = (2,) * qubits + state.shape[1:]
    nd = state.reshape(nd_shape)
    for i0, i1, step in steps:
        if i0 is None:  # a held payload run's product
            np.matmul(step, state.reshape(STATE_DIM, -1), out=spare.reshape(STATE_DIM, -1))
            state, spare = spare, state
            nd = state.reshape(nd_shape)
        elif step is None:  # a CNOT swaps its target pair
            tmp = nd[i0].copy()
            nd[i0] = nd[i1]
            nd[i1] = tmp
        else:
            a = nd[i0].copy()
            b = nd[i1]
            nd[i0] = step[0, 0] * a + step[0, 1] * b
            nd[i1] = step[1, 0] * a + step[1, 1] * b
    return state


def folded_rotations(program: GateProgram) -> int:
    """How many of the program's rotations simulate applies past a held basis change."""
    return _lower(program.gates, program.qubits)[1]


# ---------------------------------------------------------------------------
# structural fast path
# ---------------------------------------------------------------------------

def _live_sectors(model: HamiltonianModel, axis: int) -> tuple[np.ndarray, int, np.ndarray]:
    """Live eigenvalues of one axis, first live row, and their eigenvectors.

    The live sectors are those with |lambda| >= ZERO_EIGENVALUE_TOL, the set the
    gate IR rotates; their eigenvectors are real (eigh of the real symmetric
    cell matrix).  The block is cut to the contiguous row range where it is
    nonzero (the 9 physical components), so rows outside it are never read or
    written.
    """
    eig = model.eigensystems[axis - 1]
    live = np.abs(eig.lambdas) >= ZERO_EIGENVALUE_TOL
    vectors = eig.v[:, live]
    rows = np.flatnonzero(np.any(vectors != 0, axis=1))
    return eig.lambdas[live], int(rows[0]), vectors[rows[0]:rows[-1] + 1]


def _composed_rotation(theta: np.ndarray, points: int,
                       stages: tuple[tuple[int, int, int], ...]) -> np.ndarray:
    """W - I per sector angle theta; W composes the level rotations in stage order.

    Levels of one axis do not commute, so W is built by running the rotations
    on an identity stack (one N x N matrix per sector).  Stage (k, start, stop)
    rotates level k of the sectors start:stop, so one call serves every pass
    of a step plan that runs level k at that point of its level order.
    """
    cos_t = np.cos(theta)[:, None, None]
    sin_t = np.sin(theta)[:, None, None]
    eye = np.eye(points)
    w = np.repeat(eye[None], len(theta), axis=0)
    for k, start, stop in stages:
        apply_pair_rotation(w[start:stop], 1, k, cos_t[start:stop], sin_t[start:stop])
    w -= eye
    return w


def _axis_pass(rows: np.ndarray, vectors: np.ndarray, w_minus_i: np.ndarray,
               proj: np.ndarray, work: np.ndarray, outer: int) -> None:
    """rows <- rows + V (W - I) V^T rows, in place, on the real view of the state.

    rows is the (physical rows, columns) float slab of the state; V^T rows
    lands in proj, seen as (sectors, outer, N, inner) with the rotated axis in
    the middle, so W - I applies by one matmul broadcast over outer, with no
    transposed copy.  With one column per cell on the last grid axis inner is
    1, and that broadcast would be outer separate matrix-vector products;
    there W - I applies as one (outer, N) @ (W - I)^T GEMM per sector instead.
    proj and work are buffers the caller reuses.
    """
    from scipy.linalg.blas import dgemm  # deferred: `import elastoq` skips scipy.linalg

    sectors, points = w_minus_i.shape[:2]
    np.matmul(vectors.T, rows, out=proj)
    if proj.shape[1] == outer * points:
        np.matmul(proj.reshape(sectors, outer, points), w_minus_i.transpose(0, 2, 1),
                  out=work.reshape(sectors, outer, points))
    else:
        np.matmul(w_minus_i[:, None], proj.reshape(sectors, outer, points, -1),
                  out=work.reshape(sectors, outer, points, -1))
    # rows^T += work^T V^T: rows^T is F-ordered, so BLAS accumulates in place
    dgemm(1.0, work.T, vectors.T, beta=1.0, c=rows.T, overwrite_c=True)


@dataclass(frozen=True, eq=False, init=False)
class TrotterStep:
    """One u1/u2 step of a model at one tau, planned once and applied to any state.

    Mathematically identical to simulating the gate program.  Per axis the
    step is x <- x + V_l (W - I) V_l^T x: V_l holds the real eigenvectors of
    the live sectors, and W the n level rotations of each sector composed into
    one N x N matrix, applied along that axis by one batched GEMM.  The plan
    holds the live sectors and one read-only W - I stack, built with one
    pair-rotation call per level stage over all passes and sliced per pass;
    apply allocates its own work buffers, so one plan is safe to share across
    threads.  Sectors with |lambda| < ZERO_EIGENVALUE_TOL and the padding
    components pass through bit-exactly.
    """

    model: HamiltonianModel
    scheme: str
    tau: float
    _passes: tuple[tuple[int, np.ndarray, np.ndarray, int], ...]

    def __init__(self, model: HamiltonianModel, scheme: str, tau: float):
        check_real("tau", tau, -math.inf, math.inf)
        check_choice("scheme", scheme, SWEEPS)
        n, h, points = model.shape.n, model.shape.h, model.shape.points
        plan: list[tuple[int, float]] = []  # (axis, tau) of each pass
        stage_passes = []  # (k, p, q): level k rotates in the passes p..q-1, in stage order
        for share, reverse in SWEEPS[scheme]:
            sweep = [(axis, share * tau) for axis in sorted((1, 2, 3), reverse=reverse)]
            # a sweep that starts on the pass the last one ended on composes into it
            merged = plan[-1:] == sweep[:1]
            first = len(plan) - merged
            plan += sweep[merged:]
            stage_passes += [(k, first, len(plan))
                             for k in sorted(range(1, n + 1), reverse=reverse)]
        sectors = [_live_sectors(model, axis) for axis in (1, 2, 3)]
        thetas = [sectors[axis - 1][0] * step_tau / (2 * h) for axis, step_tau in plan]
        bounds = np.cumsum([0] + [len(theta) for theta in thetas])
        stages = tuple((k, bounds[p], bounds[q]) for k, p, q in stage_passes)
        stack = _composed_rotation(np.concatenate(thetas), points, stages)
        stack.setflags(write=False)
        passes = []
        for p, (axis, _) in enumerate(plan):
            _, first, vectors = sectors[axis - 1]
            passes.append((first, vectors, stack[bounds[p]:bounds[p + 1]],
                           points ** (axis - 1)))
        for name, value in (("model", model), ("scheme", scheme), ("tau", tau),
                            ("_passes", tuple(passes))):
            object.__setattr__(self, name, value)

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """The stepped copy of a (dim,) state or (dim, b) batch.

        A real state comes back float64, stepped with one slab column per
        amplitude; a complex one comes back complex, stepped on its float
        view with two columns per amplitude.  Finiteness is not checked here,
        since this runs once per step: a NaN spreads over its sector rows.
        fidelity_curve and Propagator.evolve refuse a non-finite state.
        """
        check_state(psi, self.model.dim)
        dtype = np.dtype(complex if np.iscomplexobj(psi) else np.float64)
        # proj and work share one buffer, allocated before the state copy: the
        # buffer freed at the end of a step leaves a hole that the next step's
        # buffer fills, so a walk of steps holds a steady peak memory
        columns = psi.size // STATE_DIM * dtype.itemsize // 8  # float64 columns of the slab
        width = max(len(w_minus_i) for _, _, w_minus_i, _ in self._passes)
        proj, work = np.empty((2, width, columns))
        state = np.array(psi, dtype=dtype)
        slab = state.reshape(STATE_DIM, -1).view(np.float64)
        for first, vectors, w_minus_i, outer in self._passes:
            sectors = len(w_minus_i)
            _axis_pass(slab[first:first + len(vectors)], vectors, w_minus_i,
                       proj[:sectors], work[:sectors], outer)
        return state


def empirical_trotter_error(model: HamiltonianModel, tau: float, scheme: str) -> float:
    """Exact ||U(tau) - exp(-iH tau)||_2 for scheme 'u1' or 'u2', up to n = DENSE_MAX_N."""
    if model.shape.n > DENSE_MAX_N:
        raise ValueError(f"exact Trotter defect needs n <= {DENSE_MAX_N}, got n={model.shape.n}")
    u_trotter = TrotterStep(model, scheme, tau).apply(np.eye(model.dim))
    u_exact = Propagator(model).evolve(np.eye(model.dim), tau)
    # H is i times a real antisymmetric matrix, so exp(-iH tau) is real orthogonal
    return float(np.linalg.norm(u_trotter - u_exact.real, 2))


def apply_block_fast(model: HamiltonianModel, scheme: str, tau: float,
                     psi: np.ndarray) -> np.ndarray:
    """TrotterStep(model, scheme, tau).apply(psi), building a new plan per call.

    Kept for the benchmark harness (perfbench/workloads.py), which steps
    through it; the package steps with TrotterStep.
    """
    return TrotterStep(model, scheme, tau).apply(psi)


# ---------------------------------------------------------------------------
# program text serialization
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.17g}"


def serialize_program(program: GateProgram) -> str:
    """Render a program in the text format (module docstring); parse_program checks it."""
    check_real("tau", program.tau, -math.inf, math.inf)  # n and scheme: cnot_account
    payloads: dict[int, tuple[int, np.ndarray]] = {}  # id -> (index, payload)
    lines = [
        "ELASTOQ-PROGRAM v1",
        f"n {program.n}",
        f"qubits {program.qubits}",
        f"scheme {program.scheme}",
        f"tau {_fmt(program.tau)}",
        f"cnot_account {program.cnot_account}",
        f"gates {len(program.gates)}",
    ]
    written: dict[int, str] = {}  # id of each gate -> its line
    for g in program.gates:
        if id(g) in written:
            lines.append(written[id(g)])
            continue
        # every kind by one rule: wires, p<j>, controls, angle, u<i>
        wires = g.targets if g.kind in _PAYLOADS else (g.target,)
        toks = [g.kind.upper(), *map(str, wires)]
        if g.kind == "pcrz":
            toks.append(f"p{g.pattern}")
        toks += map(str, g.controls)
        if g.kind in ROTATIONS:
            toks.append(_fmt(g.angle))
        if g.kind in _PAYLOADS:
            index, _ = payloads.setdefault(id(g.unitary), (len(payloads), g.unitary))
            toks.append(f"u{index}")
        lines.append(written.setdefault(id(g), " ".join(toks)))
    for idx, u in payloads.values():
        lines.append(f"%unitary {idx}")
        # each row is re im re im ..., the memory layout of complex128 (as parse_program reads)
        for row in np.ascontiguousarray(u, dtype=complex).view(np.float64).tolist():
            lines.append(" ".join(map(_fmt, row)))
    return "\n".join(lines) + "\n"


_METADATA_KEYS = ("n", "qubits", "scheme", "tau", "cnot_account", "gates")


def _index(tok: str, prefix: str) -> int:
    if not tok.startswith(prefix):
        raise ValueError(f"{tok!r} lacks the {prefix} prefix")
    return int(tok[len(prefix):])


def _parse_gate(line: str, payloads: dict[int, np.ndarray], qubits: int) -> Gate:
    """Read a gate line by serialize_program's rule and check it as simulate does."""
    toks = line.split()
    kind = toks[0].lower() if toks else ""
    rest = toks[1:]
    try:
        if kind in _PAYLOADS:
            payload = _index(rest.pop(), "u")
            if payload not in payloads:
                raise ValueError(f"missing %unitary {payload}")
            gate = Gate(kind, targets=tuple(map(int, rest)), unitary=payloads[payload])
        else:
            target = int(rest.pop(0))
            pattern = _index(rest.pop(0), "p") if kind == "pcrz" else None
            angle = float(rest.pop()) if kind in ROTATIONS else 0.0
            gate = Gate(kind, target=target, controls=tuple(map(int, rest)),
                        pattern=pattern, angle=angle)
        _validate_gate(gate, qubits)
    except IndexError:
        raise ValueError(f"gate line {line!r} has too few tokens") from None
    except ValueError as err:
        raise ValueError(f"gate line {line!r}: {err}") from None
    return gate


def parse_program(text: str) -> GateProgram:
    """Parse the text format back into a GateProgram; bad text raises ValueError."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != "ELASTOQ-PROGRAM v1":
        raise ValueError("missing ELASTOQ-PROGRAM v1 header")
    meta: dict[str, str] = {}
    pos = 1
    while pos < len(lines):
        key, _, value = lines[pos].partition(" ")
        pos += 1
        if key not in _METADATA_KEYS:
            raise ValueError(f"metadata {key!r} is not one of {_METADATA_KEYS}")
        if key in meta:
            raise ValueError(f"metadata {key} appears twice")
        meta[key] = value
        if key == "gates":
            break
    missing = [key for key in _METADATA_KEYS if key not in meta]
    if missing:
        raise ValueError(f"missing metadata lines: {missing}")

    def field(key: str, convert, valid, expected: str):
        try:
            value = convert(meta[key])
            if valid(value):
                return value
        except ValueError:
            pass
        raise ValueError(f"metadata {key} must be {expected}, got {meta[key]!r}")

    n = field("n", int, lambda v: v >= 1, "an integer >= 1")
    qubits = field("qubits", int, lambda v: v == qubit_count(n), f"3n + 4 = {qubit_count(n)}")
    scheme = meta["scheme"]
    check_choice("metadata scheme", scheme, SWEEPS)
    tau = field("tau", float, math.isfinite, "a finite number")
    account = step_cnots(scheme, n)
    field("cnot_account", int, lambda v: v == account,
          f"step_cnots({scheme!r}, n) = {account}")
    n_gates = field("gates", int, lambda v: 0 <= v <= len(lines) - pos,
                    f"a count that fits the {len(lines) - pos} lines after it")
    gate_lines = lines[pos:pos + n_gates]
    pos += n_gates

    payloads: dict[int, np.ndarray] = {}
    while pos < len(lines):
        line = lines[pos].strip()
        pos += 1
        if not line:
            continue
        toks = line.split()
        if len(toks) != 2 or toks[0] != "%unitary" or not toks[1].isdecimal():
            raise ValueError(f"unexpected trailer line: {line!r}")
        idx = int(toks[1])
        if idx in payloads:
            raise ValueError(f"%unitary {idx} appears twice")
        rows = [row.split() for row in lines[pos:pos + STATE_DIM]]
        pos += STATE_DIM
        if len(rows) != STATE_DIM or any(len(row) != 2 * STATE_DIM for row in rows):
            raise ValueError(f"%unitary {idx} needs {STATE_DIM} rows of "
                             f"{2 * STATE_DIM} floats")
        try:
            values = np.array([[float(tok) for tok in row] for row in rows])
            if not np.isfinite(values).all():
                raise ValueError("a non-finite entry")
        except ValueError as err:
            raise ValueError(f"%unitary {idx}: {err}") from None
        # each row is re im re im ..., exactly the memory layout of complex128
        payloads[idx] = values.view(complex)

    parsed: dict[str, Gate] = {}  # one Gate per distinct gate line, checked once
    for line in gate_lines:
        if line not in parsed:
            parsed[line] = _parse_gate(line, payloads, qubits)
    gates = tuple(map(parsed.__getitem__, gate_lines))
    used = {id(g.unitary) for g in parsed.values()}
    for idx, payload in payloads.items():
        if id(payload) not in used:
            raise ValueError(f"%unitary {idx} is used by no gate")
    return GateProgram(n=n, scheme=scheme, tau=tau, gates=gates)
