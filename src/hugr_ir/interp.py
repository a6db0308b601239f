"""Reference evaluator: exact classical semantics over a dense statevector.

This is the semantics oracle the other passes are tested against. Classical
values evaluate exactly; qubits are handles into a small statevector (default
cap 10 qubits). Measurement outcomes come from an :class:`OutcomeSource` —
either a script of booleans, for deterministic control-flow tests, or a
seeded generator sampling Born-rule probabilities.

Each region is compiled once into a flat schedule: its nodes in execution
order, each with the value slots it reads, plus the slots the region
returns. Running a region is then a loop over that schedule into one list
of values. The order is the smallest-id-first topological order over value
edges, which fixes the order of measurements and so the outcome each one
draws. Schedules are derived from the graph and cached on it
(:meth:`Hugr.derived`), so every interpreter over one graph shares them,
and any mutation of the graph invalidates them all.

Qubit kernels act on a ``(left, 2, right)`` reshape of the flat amplitude
vector around the qubit's axis. Every gate still checks the norm, every
handle is consumed exactly once, and freeing checks separability.

Conventions fixed here and shared by the fixtures and the structuring pass:
the first bool a loop body emits means *finished* when true and *repeat*
when false; equivalence checks ignore global phase (fidelity based).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .graph import Direction, Hugr, Port
from .ops import (
    Call,
    Cfg,
    Conditional,
    Const,
    ExitBlock,
    ExtensionOp,
    FuncDecl,
    FuncDef,
    LoadConst,
    LoadFunction,
    OpKind,
    Registry,
    TailLoop,
    Value,
    instantiate,
    value_signature,
)
from .types import EnumType, F64, I64, QUBIT, Signature, Type


class InterpError(Exception):
    pass


class QubitCapExceeded(InterpError):
    pass


class ScriptExhausted(InterpError):
    pass


class ImpossibleOutcome(InterpError):
    """A scripted outcome has (numerically) zero probability."""


class UnboundDecl(InterpError):
    pass


class NonTerminating(InterpError):
    pass


# ── runtime values ─────────────────────────────────────────────────

@dataclass(frozen=True)
class RtValue:
    """Base class for runtime values."""


@dataclass(frozen=True)
class F64Value(RtValue):
    value: float


@dataclass(frozen=True)
class I64Value(RtValue):
    value: int


@dataclass(frozen=True)
class EnumValue(RtValue):
    tag: int
    cardinality: int = 2

    def __post_init__(self):
        if not 0 <= self.tag < self.cardinality:
            raise InterpError(f"enum tag {self.tag} out of range {self.cardinality}")


@dataclass(frozen=True)
class FnValue(RtValue):
    node: int
    signature: Signature


@dataclass(frozen=True)
class QubitValue(RtValue):
    token: int


def bool_value(b: bool) -> EnumValue:
    return EnumValue(int(b), 2)


# ── measurement outcomes ───────────────────────────────────────────

class OutcomeSource:
    def next_outcome(self, p_true: float) -> bool:
        raise NotImplementedError


class Scripted(OutcomeSource):
    """Forces a fixed sequence of outcomes (post-selection with renormalising)."""

    def __init__(self, outcomes):
        self._outcomes = list(outcomes)
        self._pos = 0

    def next_outcome(self, p_true: float) -> bool:
        if self._pos >= len(self._outcomes):
            raise ScriptExhausted(f"script of length {len(self._outcomes)} exhausted")
        out = bool(self._outcomes[self._pos])
        self._pos += 1
        return out


class Seeded(OutcomeSource):
    """Samples outcomes from the Born probabilities with a fixed seed."""

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)

    def next_outcome(self, p_true: float) -> bool:
        return bool(self._rng.random() < p_true)


# ── quantum state ──────────────────────────────────────────────────

_NORM_TOL = 1e-9
_PROB_TOL = 1e-12

_SQ2 = 1.0 / np.sqrt(2.0)
_H = np.array([[1, 1], [1, -1]], dtype=complex) * _SQ2
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_T = np.diag([1.0, np.exp(1j * np.pi / 4)]).astype(complex)
_TDG = _T.conj().T
_TXDG = _H @ _TDG @ _H
_CX = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def _rz(theta: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)]).astype(complex)


def _rx(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


_SWAP_BITS = [0, 2, 1, 3]  # basis order of a two-qubit matrix with its qubits swapped


class QuantumState:
    """Dense statevector over the currently live qubits.

    Axis 0 is the most significant bit of an amplitude's index; a qubit on
    axis ``a`` of ``n`` is the middle axis of ``amps.reshape(2**a, 2, -1)``.
    """

    def __init__(self, cap: int = 10):
        self.cap = cap
        self.amps = np.ones(1, dtype=complex)
        self._axes: dict[int, int] = {}  # token -> tensor axis
        self._next_token = 0

    @property
    def num_qubits(self) -> int:
        return len(self._axes)

    def alloc(self) -> QubitValue:
        if self.num_qubits >= self.cap:
            raise QubitCapExceeded(f"qubit cap {self.cap} exceeded")
        token = self._next_token
        self._next_token += 1
        new = np.zeros(2 * self.amps.size, dtype=complex)
        new[0::2] = self.amps  # fresh qubit in |0> as the last axis
        self.amps = new
        self._axes[token] = self.num_qubits
        return QubitValue(token)

    def _axis(self, q: QubitValue) -> int:
        if q.token not in self._axes:
            raise InterpError(f"qubit handle {q.token} reused after being consumed")
        return self._axes[q.token]

    def _view(self, axis: int) -> np.ndarray:
        return self.amps.reshape(1 << axis, 2, -1)

    def _renew(self, q: QubitValue) -> QubitValue:
        # consume the old token, mint a fresh handle on the same axis
        axis = self._axes.pop(q.token)
        token = self._next_token
        self._next_token += 1
        self._axes[token] = axis
        return QubitValue(token)

    def apply1(self, q: QubitValue, u: np.ndarray) -> QubitValue:
        v = self._view(self._axis(q))
        # one matmul, batched over the shorter of the two outer axes
        if v.shape[2] >= v.shape[0]:
            self.amps = (u @ v).reshape(-1)
        else:
            self.amps = (v.transpose(2, 0, 1) @ u.T).transpose(1, 2, 0).reshape(-1)
        self._check_norm()
        return self._renew(q)

    def apply2(self, q0: QubitValue, q1: QubitValue, u4: np.ndarray
               ) -> tuple[QubitValue, QubitValue]:
        a0, a1 = self._axis(q0), self._axis(q1)
        if a0 == a1:
            raise InterpError("two-qubit gate applied to one qubit twice")
        if a0 > a1:
            a0, a1 = a1, a0
            u4 = u4[_SWAP_BITS][:, _SWAP_BITS]
        left, mid = 1 << a0, 1 << (a1 - a0 - 1)
        v = self.amps.reshape(left, 2, mid, 2, -1)
        # the bit pair becomes the leading axis of length 4 for one 4x4 matmul
        t = u4 @ v.transpose(1, 3, 0, 2, 4).reshape(4, -1)
        self.amps = t.reshape(2, 2, left, mid, -1).transpose(2, 0, 3, 1, 4).reshape(-1)
        self._check_norm()
        return self._renew(q0), self._renew(q1)

    def probability_one(self, q: QubitValue) -> float:
        ones = self._view(self._axis(q))[:, 1]
        return float(np.vdot(ones, ones).real)

    def measure(self, q: QubitValue, source: OutcomeSource) -> tuple[QubitValue, bool]:
        axis = self._axis(q)
        p1 = self.probability_one(q)
        outcome = source.next_outcome(p1)
        p = p1 if outcome else 1.0 - p1
        if p < _PROB_TOL:
            raise ImpossibleOutcome(f"scripted outcome {outcome} has probability {p:.3g}")
        self.amps = self.amps / np.sqrt(p)
        self._view(axis)[:, 0 if outcome else 1] = 0.0
        self._check_norm()
        return self._renew(q), outcome

    def free(self, q: QubitValue) -> None:
        axis = self._axis(q)
        v = self._view(axis)
        s0, s1 = v[:, 0].reshape(-1), v[:, 1].reshape(-1)
        # the two slices partition the view, so this reads each amplitude once
        n0, n1 = np.vdot(s0, s0).real ** 0.5, np.vdot(s1, s1).real ** 0.5
        if n1 < _NORM_TOL:
            rest = s0 / n0
        elif n0 < _NORM_TOL:
            rest = s1 / n1
        else:
            # separable iff the two slices are proportional
            overlap = abs(np.vdot(s0, s1)) / (n0 * n1)
            if abs(overlap - 1.0) > 1e-7:
                raise InterpError("cannot free an entangled qubit")
            rest = s0 / n0
        del self._axes[q.token]
        for tok, ax in self._axes.items():
            if ax > axis:
                self._axes[tok] = ax - 1
        self.amps = rest
        self._check_norm()

    def statevector(self, order: list[QubitValue]) -> np.ndarray:
        """Amplitudes with axes permuted so ``order[0]`` is the most significant."""
        if len(order) != self.num_qubits:
            raise InterpError("statevector order must list every live qubit")
        axes = [self._axis(q) for q in order]
        return np.transpose(self.amps.reshape([2] * len(axes)), axes).reshape(-1).copy()

    def _check_norm(self) -> None:
        norm2 = float(np.vdot(self.amps, self.amps).real)
        assert abs(norm2 - 1.0) < 2 * _NORM_TOL, f"statevector norm drifted to {norm2 ** 0.5}"


# ── evaluator ──────────────────────────────────────────────────────

def _scalar(ty: Type, raw) -> RtValue:
    if isinstance(ty, EnumType):
        return EnumValue(int(raw), ty.cardinality)
    if ty == F64:
        return F64Value(float(raw))
    if ty == I64:
        return I64Value(int(raw))
    raise InterpError(f"constants of type {ty!r} are not supported")


@dataclass(frozen=True)
class _Schedule:
    """One region, compiled.

    Slots ``0 .. n_inputs-1`` hold the region's inputs; each step appends
    its node's outputs after them. A step is ``(fn, arg, in_slots, n_out,
    node)`` and runs as ``fn(interpreter, arg, inputs)``.
    """

    n_inputs: int
    steps: tuple[tuple, ...]
    outputs: tuple[int, ...]


def _compile_region(h: Hugr, parent: int) -> _Schedule:
    """Schedule the region's dataflow children: smallest ready id first."""
    children = h.children(parent)
    input_node, output_node = children[0], children[1]
    n_inputs = len(value_signature(h.op(input_node)).outputs)
    waiting: dict[int, int] = {}  # node -> value inputs not yet computed
    for c in children[2:]:
        if not isinstance(h.op(c), (FuncDef, FuncDecl, Const)):
            waiting[c] = sum(1 for edges in h.node(c).in_edges for e in edges
                             if isinstance(e.kind, Value))
    ready = [c for c, k in waiting.items() if k == 0]
    heapq.heapify(ready)

    def feed(n: int, n_out: int) -> None:
        for edges in h.node(n).out_edges[:n_out]:
            for e in edges:
                m = e.dst.node
                if m in waiting:
                    waiting[m] -= 1
                    if waiting[m] == 0:
                        heapq.heappush(ready, m)

    base = {input_node: 0}  # node -> slot of its first output

    def slots_of(n: int, count: int) -> tuple[int, ...]:
        out = []
        for i, edges in enumerate(h.node(n).in_edges[:count]):
            if not edges or edges[0].src.node not in base:
                raise InterpError(f"input {i} of node {n} has no value computed before it")
            src = edges[0].src  # validated: exactly one
            out.append(base[src.node] + src.offset)
        return tuple(out)

    feed(input_node, n_inputs)
    steps = []
    n_slots = n_inputs
    while ready:
        n = heapq.heappop(ready)
        del waiting[n]
        op = h.op(n)
        sig = value_signature(op)
        fn, arg = _step_fn(h, n, op, len(sig.inputs))
        steps.append((fn, arg, slots_of(n, len(sig.inputs)), len(sig.outputs), n))
        base[n] = n_slots
        n_slots += len(sig.outputs)
        feed(n, len(sig.outputs))
    n_out = len(value_signature(h.op(output_node)).inputs)
    return _Schedule(n_inputs, tuple(steps), slots_of(output_node, n_out))


def _static_source(h: Hugr, n: int, offset: int) -> int:
    return h.node(n).in_edges[offset][0].src.node


def _step_fn(h: Hugr, n: int, op: OpKind, n_in: int) -> tuple:
    """How the schedule runs node ``n``: a function and its fixed argument."""
    if isinstance(op, ExtensionOp):
        fn = _EXT_SEMANTICS.get((op.extension, op.name))
        if fn is None:
            raise InterpError(f"no evaluator semantics for {op.extension}.{op.name}")
        return fn, op
    if isinstance(op, Conditional):
        return Interpreter._exec_conditional, tuple(h.children(n))
    if isinstance(op, TailLoop):
        return Interpreter._exec_tail_loop, n
    if isinstance(op, Cfg):
        blocks = h.children(n)
        successors = {b: None if isinstance(h.op(b), ExitBlock) else _successors(h, b)
                      for b in blocks}
        return Interpreter._exec_cfg, (blocks[0], successors)
    if isinstance(op, Call):
        target = _static_source(h, n, n_in)
        target_op = h.op(target)
        if isinstance(target_op, FuncDef):
            return Interpreter._exec_region, target
        return Interpreter._call_stub, target_op.name
    if isinstance(op, LoadFunction):
        target = _static_source(h, n, 0)
        return _load, FnValue(target, instantiate(op.scheme, op.type_args))
    if isinstance(op, LoadConst):
        const = h.op(_static_source(h, n, 0))
        assert isinstance(const, Const)
        return _load, _scalar(const.type, const.value)
    raise InterpError(f"cannot execute op {op!r}")


def _successors(h: Hugr, block: int) -> tuple[int, ...]:
    out = []
    for i, edges in enumerate(h.node(block).out_edges):
        if not edges:
            raise InterpError(f"successor {i} of block {block} is not connected")
        out.append(edges[0].dst.node)
    return tuple(out)


def _load(interp: "Interpreter", value: RtValue, invals) -> list[RtValue]:
    return [value]


class Interpreter:
    """One evaluator instance; not shared between threads."""

    def __init__(self, h: Hugr, registry: Registry,
                 outcomes: OutcomeSource | None = None,
                 stubs: dict | None = None,
                 qubit_cap: int = 10,
                 iteration_cap: int = 100_000):
        self.h = h
        self.registry = registry
        self.outcomes = outcomes if outcomes is not None else Seeded(0)
        self.stubs = stubs or {}
        self.qubit_cap = qubit_cap
        self.iteration_cap = iteration_cap
        self.state = QuantumState(qubit_cap)
        self._iterations = 0

    def reset(self) -> None:
        self.state = QuantumState(self.qubit_cap)
        self._iterations = 0

    def find_function(self, name: str) -> int:
        for c in self.h.children(self.h.root):
            op = self.h.op(c)
            if isinstance(op, (FuncDef, FuncDecl)) and op.name == name:
                return c
        raise InterpError(f"no function named {name!r}")

    def run(self, entry: str, args: list[RtValue]) -> list[RtValue]:
        node = self.find_function(entry)
        op = self.h.op(node)
        if isinstance(op, FuncDecl):
            return self._call_stub(op.name, args)
        sig = op.scheme.body
        if op.scheme.param_count:
            raise InterpError(f"entry {entry!r} is polymorphic; instantiate it via a call site")
        if len(args) != len(sig.inputs):
            raise InterpError(f"{entry!r} takes {len(sig.inputs)} arguments, got {len(args)}")
        return self._exec_function(node, list(args))

    def _exec_function(self, node: int, args: list[RtValue]) -> list[RtValue]:
        try:
            return self._exec_region(node, args)
        except RecursionError:
            # unbounded recursion through Call, e.g. a self-recursive FuncDef
            raise NonTerminating(f"calls from function node {node} nest deeper "
                                 "than the Python recursion limit") from None

    # region execution ------------------------------------------------

    def _exec_region(self, parent: int, args: list[RtValue]) -> list[RtValue]:
        sched = self.h.derived(_compile_region, parent)
        if len(args) != sched.n_inputs:
            raise InterpError(f"region {parent} takes {sched.n_inputs} values, got {len(args)}")
        slots = list(args)
        for fn, arg, ins, n_out, n in sched.steps:
            outs = fn(self, arg, [slots[i] for i in ins])
            if len(outs) != n_out:
                raise InterpError(f"node {n} returned {len(outs)} values; "
                                  f"its signature has {n_out}")
            slots.extend(outs)
        return [slots[i] for i in sched.outputs]

    def _exec_conditional(self, cases: tuple[int, ...], invals: list[RtValue]) -> list[RtValue]:
        disc = invals[0]
        assert isinstance(disc, EnumValue)
        return self._exec_region(cases[disc.tag], invals[1:])

    def _exec_tail_loop(self, n: int, vals: list[RtValue]) -> list[RtValue]:
        while True:
            self._tick()
            outs = self._exec_region(n, vals)
            flag = outs[0]
            assert isinstance(flag, EnumValue) and flag.cardinality == 2
            if flag.tag == 1:  # finished
                return outs[1:]
            vals = outs[1:]

    def _exec_cfg(self, cfg: tuple, vals: list[RtValue]) -> list[RtValue]:
        cur, successors = cfg  # entry block; block -> successors, None at the exit
        while successors[cur] is not None:
            self._tick()
            outs = self._exec_region(cur, vals)
            tag = outs[0]
            assert isinstance(tag, EnumValue)
            cur = successors[cur][tag.tag]
            vals = outs[1:]
        return vals

    def _call_stub(self, name: str, args: list[RtValue]) -> list[RtValue]:
        fn = self.stubs.get(name)
        if fn is None:
            raise UnboundDecl(f"declaration {name!r} has no bound implementation")
        return list(fn(self, args))

    def _tick(self) -> None:
        self._iterations += 1
        if self._iterations > self.iteration_cap:
            raise NonTerminating(f"iteration cap {self.iteration_cap} exceeded")


# ── extension semantics ────────────────────────────────────────────

def _gate1(mat):
    def apply(interp: Interpreter, op, invals):
        (q,) = invals
        return [interp.state.apply1(q, mat)]

    return apply


def _rot(mat_fn):
    def apply(interp: Interpreter, op, invals):
        q, angle = invals
        assert isinstance(angle, F64Value)
        return [interp.state.apply1(q, mat_fn(angle.value))]

    return apply


def _cx(interp: Interpreter, op, invals):
    q0, q1 = invals
    a, b = interp.state.apply2(q0, q1, _CX)
    return [a, b]


def _measure(interp: Interpreter, op, invals):
    (q,) = invals
    q, outcome = interp.state.measure(q, interp.outcomes)
    return [q, bool_value(outcome)]


def _qalloc(interp: Interpreter, op, invals):
    return [interp.state.alloc()]


def _qfree(interp: Interpreter, op, invals):
    (q,) = invals
    interp.state.free(q)
    return []


def _binop(fn):
    def apply(interp, op, invals):
        a, b = invals
        return [F64Value(fn(a.value, b.value))]

    return apply


def _cmp(fn):
    def apply(interp, op, invals):
        a, b = invals
        return [bool_value(fn(a.value, b.value))]

    return apply


def _boolop(fn):
    def apply(interp, op, invals):
        tags = [bool(v.tag) for v in invals]
        return [bool_value(fn(*tags))]

    return apply


_EXT_SEMANTICS = {
    ("stdlib.quantum", "H"): _gate1(_H),
    ("stdlib.quantum", "X"): _gate1(_X),
    ("stdlib.quantum", "Z"): _gate1(_Z),
    ("stdlib.quantum", "T"): _gate1(_T),
    ("stdlib.quantum", "Tdg"): _gate1(_TDG),
    ("stdlib.quantum", "TxDg"): _gate1(_TXDG),
    ("stdlib.quantum", "Rz"): _rot(_rz),
    ("stdlib.quantum", "Rx"): _rot(_rx),
    ("stdlib.quantum", "CX"): _cx,
    ("stdlib.quantum", "Measure"): _measure,
    ("stdlib.quantum", "QAlloc"): _qalloc,
    ("stdlib.quantum", "QFree"): _qfree,
    ("stdlib.classical", "Add"): _binop(lambda a, b: a + b),
    ("stdlib.classical", "Sub"): _binop(lambda a, b: a - b),
    ("stdlib.classical", "Mul"): _binop(lambda a, b: a * b),
    ("stdlib.classical", "Neg"): lambda i, o, v: [F64Value(-v[0].value)],
    ("stdlib.classical", "Eq"): _cmp(lambda a, b: a == b),
    ("stdlib.classical", "Neq"): _cmp(lambda a, b: a != b),
    ("stdlib.classical", "Lt"): _cmp(lambda a, b: a < b),
    ("stdlib.classical", "Le"): _cmp(lambda a, b: a <= b),
    ("stdlib.classical", "Gt"): _cmp(lambda a, b: a > b),
    ("stdlib.classical", "Ge"): _cmp(lambda a, b: a >= b),
    ("stdlib.classical", "Not"): _boolop(lambda a: not a),
    ("stdlib.classical", "And"): _boolop(lambda a, b: a and b),
    ("stdlib.classical", "Or"): _boolop(lambda a, b: a or b),
}


# ── entry points ───────────────────────────────────────────────────

def _require_valid(h: Hugr, registry: Registry) -> None:
    from .validate import validate

    diags = validate(h, registry)
    if diags:
        raise InterpError(f"graph is invalid: {diags[0].render()}")


def run(h: Hugr, entry: str, args: list[RtValue], outcomes: OutcomeSource,
        registry: Registry, stubs: dict | None = None, qubit_cap: int = 10,
        iteration_cap: int = 100_000) -> list[RtValue]:
    """Validate the graph, then execute its ``entry`` function."""
    _require_valid(h, registry)
    interp = Interpreter(h, registry, outcomes, stubs, qubit_cap, iteration_cap)
    return interp.run(entry, args)


def _contains_forbidden(h: Hugr, parent: int) -> str | None:
    todo, seen = [parent], {parent}
    while todo:
        for n in h.preorder(todo.pop()):
            op = h.op(n)
            if isinstance(op, (Conditional, TailLoop, Cfg)):
                return type(op).__name__
            if isinstance(op, ExtensionOp) and \
                    (op.extension, op.name) == ("stdlib.quantum", "Measure"):
                return "Measure"
            if isinstance(op, Call):
                sig_in = len(op.scheme.body.inputs)
                # the callee body is reached through the static edge
                targets = h.neighbours(Port(n, Direction.IN, sig_in))
                if targets and isinstance(h.op(targets[0].node), FuncDef) \
                        and targets[0].node not in seen:
                    seen.add(targets[0].node)
                    todo.append(targets[0].node)
    return None


def unitary_of(h: Hugr, entry: str, registry: Registry) -> np.ndarray:
    """The unitary matrix of a measurement-free, all-qubit function.

    Validates the graph first. Assembled by running every computational basis
    state; the first input qubit is the most significant bit. Limited to 5
    qubits.
    """
    _require_valid(h, registry)
    node = Interpreter(h, registry).find_function(entry)
    if not isinstance(h.op(node), FuncDef):
        raise InterpError(f"no function definition named {entry!r}")
    sig = h.op(node).scheme.body
    if any(t != QUBIT for t in sig.inputs + sig.outputs):
        raise InterpError("unitary extraction needs an all-qubit signature")
    k = len(sig.inputs)
    if k > 5 or k != len(sig.outputs):
        raise InterpError(f"unitary extraction supports 1..5 qubits, got {k}->{len(sig.outputs)}")
    forbidden = _contains_forbidden(h, node)
    if forbidden:
        raise InterpError(f"unitary extraction forbids {forbidden}")

    dim = 2 ** k
    u = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        interp = Interpreter(h, registry, Scripted([]), qubit_cap=max(10, k))
        qubits = [interp.state.alloc() for _ in range(k)]
        for i in range(k):
            if (j >> (k - 1 - i)) & 1:
                qubits[i] = interp.state.apply1(qubits[i], _X)
        outs = interp._exec_function(node, qubits)
        u[:, j] = interp.state.statevector(outs)
    if np.linalg.norm(u @ u.conj().T - np.eye(dim)) > 1e-9 * dim:
        raise InterpError("extracted matrix is not unitary")
    return u


def state_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2 on normalised states; global phase invariant."""
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    return float(abs(np.vdot(a, b)) ** 2)


def unitary_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|tr(a^dag b)| / dim; 1 iff equal up to global phase."""
    return float(abs(np.trace(a.conj().T @ b)) / a.shape[0])
