"""Reference evaluator: classical exactness, statevector semantics, outcomes."""

import numpy as np
import pytest

from hugr_ir import (
    EnumValue,
    F64Value,
    Interpreter,
    InterpError,
    Scripted,
    Seeded,
    bool_value,
    run,
    state_fidelity,
    stdlib,
    unitary_fidelity,
    unitary_of,
)
from hugr_ir.build import new_module
from hugr_ir.interp import (
    ImpossibleOutcome,
    NonTerminating,
    QuantumState,
    QubitCapExceeded,
    ScriptExhausted,
    UnboundDecl,
)
from hugr_ir.programs import (
    external_call,
    measurement_branch,
    rotation_pipeline,
    rus_cfg,
    rus_loop,
)
from hugr_ir.types import BOOL, F64, QUBIT, Signature

from generators import chain_circuit, random_circuit, self_recursive

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
T = np.diag([1, np.exp(1j * np.pi / 4)]).astype(complex)
V3 = (np.eye(2) + 1j * np.sqrt(2) * X) / np.sqrt(3)


def _rz(t):
    return np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])


def _rx(t):
    c, s = np.cos(t / 2), np.sin(t / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _run_single_qubit(h, script, psi=None, args=(), registry=None):
    reg = registry or stdlib()
    it = Interpreter(h, reg, Scripted(script))
    q = it.state.alloc()
    if psi is not None:
        it.state.amps = np.asarray(psi, dtype=complex).copy()
    outs = it.run("main", [q, *args])
    qubits = [v for v in outs if hasattr(v, "token")]
    return outs, it.state.statevector(qubits)


class TestClassicalAndRotations:
    def test_rotation_pipeline_matches_matrix_product(self, registry):
        """Independent oracle: multiply the two rotation matrices directly."""
        h = rotation_pipeline(registry)
        _, final = _run_single_qubit(h, [], args=(F64Value(0.3), F64Value(0.4)))
        expected = _rx(0.7) @ _rz(0.7) @ np.array([1, 0], dtype=complex)
        assert np.max(np.abs(final - expected)) < 1e-12

    def test_rotation_pipeline_random_angles(self, registry):
        h = rotation_pipeline(registry)
        rng = np.random.default_rng(8)
        for _ in range(10):
            a, b = rng.uniform(-np.pi, np.pi, 2)
            _, final = _run_single_qubit(h, [], args=(F64Value(a), F64Value(b)))
            expected = _rx(a + b) @ _rz(a + b) @ np.array([1, 0], dtype=complex)
            assert np.max(np.abs(final - expected)) < 1e-12


class TestConditional:
    def test_true_outcome_takes_the_x_branch(self, registry):
        h = measurement_branch(registry)
        it = Interpreter(h, registry, Scripted([True]))
        q0, q1 = it.state.alloc(), it.state.alloc()
        # put the first qubit in |1> so measuring true has probability 1
        q0 = it.state.apply1(q0, X)
        outs = it.run("main", [q0, q1])
        state = it.state.statevector([outs[0], outs[1]])
        expected = np.kron(np.array([0, 1]), X @ np.array([1, 0]))
        assert state_fidelity(state, expected) > 1 - 1e-12

    def test_false_outcome_takes_the_h_branch(self, registry):
        h = measurement_branch(registry)
        it = Interpreter(h, registry, Scripted([False]))
        q0, q1 = it.state.alloc(), it.state.alloc()
        outs = it.run("main", [q0, q1])
        state = it.state.statevector([outs[0], outs[1]])
        expected = np.kron(np.array([1, 0]), H @ np.array([1, 0]))
        assert state_fidelity(state, expected) > 1 - 1e-12


class TestRepeatUntilSuccess:
    def test_two_iterations_with_one_correction(self, registry):
        h = rus_loop(registry)
        rng = np.random.default_rng(2)
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi /= np.linalg.norm(psi)
        _, final = _run_single_qubit(h, [False, True], psi=psi)
        assert state_fidelity(final, V3 @ psi) >= 1 - 1e-9

    def test_script_exhaustion(self, registry):
        h = rus_loop(registry)
        with pytest.raises(ScriptExhausted):
            _run_single_qubit(h, [False, False])


class TestUnitaryExtraction:
    def test_bare_wire_is_identity(self, registry):
        h = chain_circuit([], registry)
        u = unitary_of(h, "main", registry)
        assert np.max(np.abs(u - np.eye(2))) < 1e-12

    def test_hh_is_identity(self, registry):
        u = unitary_of(chain_circuit(["H", "H"], registry), "main", registry)
        assert unitary_fidelity(u, np.eye(2)) > 1 - 1e-12

    def test_txdg_equals_its_definition(self, registry):
        u = unitary_of(chain_circuit(["TxDg"], registry), "main", registry)
        assert np.max(np.abs(u - H @ T.conj().T @ H)) < 1e-12
        # equal to an X rotation by -pi/4 up to global phase
        assert unitary_fidelity(u, _rx(-np.pi / 4)) > 1 - 1e-12

    def test_entry_must_be_a_function_definition(self, registry):
        h = external_call(registry)
        with pytest.raises(InterpError, match="no function definition named 'foo'"):
            unitary_of(h, "foo", registry)
        with pytest.raises(InterpError, match="no function named 'bar'"):
            unitary_of(h, "bar", registry)

    def test_invalid_graph_is_rejected(self, registry):
        from hugr_ir.programs import fanout_rejected

        with pytest.raises(InterpError, match="graph is invalid"):
            unitary_of(fanout_rejected(registry), "main", registry)

    def test_foreign_qubit_type_is_not_a_qubit(self, registry):
        from hugr_ir.ops import Extension, TypeDef, register
        from hugr_ir.types import ExtType

        rich = register(registry, Extension("other", types=(TypeDef("qubit", linear=True),)))
        qubit = ExtType("other", "qubit")
        m = new_module(rich)
        b = m.define_function("main", Signature((qubit,), (qubit,)))
        b.set_outputs(*b.inputs())
        with pytest.raises(InterpError, match="all-qubit signature"):
            unitary_of(m.hugr, "main", rich)

    def test_measurement_forbidden(self, registry):
        h = chain_circuit(["H"], registry)
        from generators import main_region

        b_region = main_region(h)
        from hugr_ir import ext_op, in_port, out_port, Value

        # splice a measure in front of the output
        out_node = h.children(b_region)[1]
        gate = h.children(b_region)[2]
        edge = h.edges_at(out_port(gate, 0))[0]
        h.disconnect(edge)
        meas = h.add_node(ext_op(registry, "stdlib.quantum", "Measure"), b_region)
        h.connect(out_port(gate, 0), in_port(meas, 0), Value(QUBIT))
        h.connect(out_port(meas, 0), in_port(out_node, 0), Value(QUBIT))
        with pytest.raises(InterpError):
            unitary_of(h, "main", registry)

    def test_self_recursive_function_is_non_terminating(self, registry):
        with pytest.raises(NonTerminating):
            unitary_of(self_recursive(registry), "main", registry)

    def test_qubit_ordering_is_most_significant_first(self, registry):
        # X on the first of two qubits flips the high bit
        m = new_module(registry)
        b = m.define_function("main", Signature((QUBIT, QUBIT), (QUBIT, QUBIT)))
        q0, q1 = b.inputs()
        (q0,) = b.q("X", q0)
        b.set_outputs(q0, q1)
        u = unitary_of(m.hugr, "main", registry)
        assert np.max(np.abs(u - np.kron(X, np.eye(2)))) < 1e-12


class TestOutcomes:
    def test_scripted_determinism(self, registry):
        h = measurement_branch(registry)

        def one_run():
            it = Interpreter(h, registry, Scripted([True]))
            q0, q1 = it.state.alloc(), it.state.alloc()
            q0 = it.state.apply1(q0, H)
            outs = it.run("main", [q0, q1])
            return repr([v for v in outs if isinstance(v, EnumValue)])

        assert one_run() == one_run()

    def test_impossible_scripted_outcome(self, registry):
        # measuring |0> as true has probability zero
        m = new_module(registry)
        b = m.define_function("main", Signature((QUBIT,), (QUBIT, BOOL)))
        (q,) = b.inputs()
        q, flag = b.q("Measure", q)
        b.set_outputs(q, flag)
        it = Interpreter(m.hugr, registry, Scripted([True]))
        q = it.state.alloc()
        with pytest.raises(ImpossibleOutcome):
            it.run("main", [q])

    @pytest.mark.slow
    def test_born_statistics(self, registry):
        """10^5 seeded shots of measuring H|0>."""
        m = new_module(registry)
        b = m.define_function("main", Signature((), (BOOL,)))
        (a,) = b.q("QAlloc")
        (a,) = b.q("H", a)
        a, flag = b.q("Measure", a)
        b.q("QFree", a)
        b.set_outputs(flag)
        h = m.hugr
        shots = 100_000
        source = Seeded(1234)
        it = Interpreter(h, registry, source)
        trues = 0
        for _ in range(shots):
            it.reset()
            (out,) = it.run("main", [])
            trues += out.tag
        assert 0.49 <= trues / shots <= 0.51


class TestErrors:
    def test_unbound_declaration(self, registry):
        h = external_call(registry)
        it = Interpreter(h, registry, Scripted([]))
        q0, q1 = it.state.alloc(), it.state.alloc()
        with pytest.raises(UnboundDecl):
            it.run("main", [q0, q1])

    def test_stub_binding(self, registry):
        h = external_call(registry)

        def fake_foo(interp, args):
            interp.state.free(args[0])
            interp.state.free(args[1])
            return [bool_value(True)]

        it = Interpreter(h, registry, Scripted([]), stubs={"foo": fake_foo})
        q0, q1 = it.state.alloc(), it.state.alloc()
        outs = it.run("main", [q0, q1])
        assert outs == [bool_value(True)]

    def test_non_terminating_loop(self, registry):
        m = new_module(registry)
        b = m.define_function("main", Signature((F64,), (F64,)))
        (x,) = b.inputs()
        (out,), body = b.tail_loop((x,))
        (bx,) = body.inputs()
        body.set_outputs(body.bool_const(False), bx)  # never finishes
        b.set_outputs(out)
        it = Interpreter(m.hugr, registry, Scripted([]), iteration_cap=50)
        with pytest.raises(NonTerminating):
            it.run("main", [F64Value(1.0)])

    def test_self_recursive_function_is_non_terminating(self, registry):
        from hugr_ir import validate

        h = self_recursive(registry)
        assert validate(h, registry) == []
        it = Interpreter(h, registry, Scripted([]))
        with pytest.raises(NonTerminating):
            it.run("main", [it.state.alloc()])

    @pytest.mark.parametrize("returned", [[], [bool_value(True), bool_value(False)]])
    def test_stub_result_count_is_checked(self, registry, returned):
        h = external_call(registry)
        it = Interpreter(h, registry, Scripted([]),
                         stubs={"foo": lambda interp, args: returned})
        q0, q1 = it.state.alloc(), it.state.alloc()
        with pytest.raises(InterpError, match="returned"):
            it.run("main", [q0, q1])

    def test_unconnected_cfg_successor(self, registry):
        from hugr_ir.ops import BasicBlock

        h = rus_cfg(registry)
        block = next(n for n in h.preorder() if isinstance(h.op(n), BasicBlock))
        h.disconnect(h.node(block).out_edges[0][0])
        it = Interpreter(h, registry, Scripted([False, True]))
        with pytest.raises(InterpError, match="not connected"):
            it.run("main", [it.state.alloc()])

    def test_default_iteration_cap(self, registry):
        it = Interpreter(chain_circuit([], registry), stdlib(), Scripted([]))
        assert it.iteration_cap == 100_000

    def test_qubit_cap(self):
        state = QuantumState(cap=2)
        state.alloc()
        state.alloc()
        with pytest.raises(QubitCapExceeded):
            state.alloc()

    def test_run_requires_valid_graph(self, registry):
        from hugr_ir.programs import fanout_rejected

        with pytest.raises(InterpError):
            run(fanout_rejected(registry), "main", [], Scripted([]), registry)


class TestQuantumState:
    def test_handle_reuse_is_detected(self):
        state = QuantumState()
        q = state.alloc()
        state.apply1(q, X)
        with pytest.raises(InterpError):
            state.apply1(q, X)  # the old handle was consumed

    def test_norm_preserved_through_random_circuits(self, registry):
        rng = np.random.default_rng(17)
        for _ in range(10):
            h = random_circuit(rng, n_qubits=3, n_gates=25, registry=registry,
                               p_measure=0.15)
            it = Interpreter(h, registry, Seeded(int(rng.integers(1 << 30))))
            qs = [it.state.alloc() for _ in range(3)]
            it.run("main", list(qs))
            assert abs(np.linalg.norm(it.state.amps) - 1.0) < 1e-9

    def test_free_entangled_qubit_rejected(self):
        state = QuantumState()
        a, b = state.alloc(), state.alloc()
        a = state.apply1(a, H)
        cx = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                      dtype=complex)
        a, b = state.apply2(a, b, cx)
        with pytest.raises(InterpError):
            state.free(a)

    def test_free_separable_superposition(self):
        state = QuantumState()
        a, b = state.alloc(), state.alloc()
        a = state.apply1(a, H)
        state.free(a)
        assert state.num_qubits == 1
        assert abs(np.linalg.norm(state.amps) - 1.0) < 1e-12


def test_polymorphic_identity_called_on_a_qubit(registry):
    from hugr_ir import DfBuilder, FuncDef, validate
    from hugr_ir.types import PolySignature, VarType

    m = new_module(registry)
    ident = m.hugr.add_node(
        FuncDef("ident", PolySignature(1, Signature((VarType(0),), (VarType(0),)))),
        m.hugr.root)
    ib = DfBuilder.create(m.hugr, ident, registry, (VarType(0),), (VarType(0),))
    ib.set_outputs(*ib.inputs())
    b = m.define_function("main", Signature((QUBIT,), (QUBIT,)))
    (q,) = b.inputs()
    (q2,) = b.call(ident, q, type_args=(QUBIT,))
    b.set_outputs(q2)
    assert validate(m.hugr, registry) == []
    it = Interpreter(m.hugr, registry, Scripted([]))
    qv = it.state.alloc()
    (out,) = it.run("main", [qv])
    assert hasattr(out, "token")


def test_load_function_produces_a_runtime_value(registry):
    from hugr_ir import FnValue, validate

    m = new_module(registry)
    b = m.define_function("flip", Signature((QUBIT,), (QUBIT,)))
    (q,) = b.inputs()
    (q,) = b.q("X", q)
    b.set_outputs(q)
    flip = m.hugr.children(m.hugr.root)[0]
    from hugr_ir.types import FunctionType

    mb = m.define_function("main", Signature((), (FunctionType(Signature((QUBIT,), (QUBIT,))),)))
    fn_wire = mb.load_function(flip)
    mb.set_outputs(fn_wire)
    assert validate(m.hugr, registry) == []
    it = Interpreter(m.hugr, registry, Scripted([]))
    (out,) = it.run("main", [])
    assert isinstance(out, FnValue) and out.node == flip


def test_classical_ops_are_exact(registry):
    m = new_module(registry)
    b = m.define_function("main", Signature((F64, F64), (F64, BOOL, BOOL)))
    x, y = b.inputs()
    (s,) = b.cl("Sub", x, y)
    (lt,) = b.cl("Lt", x, y)
    (ge,) = b.cl("Ge", x, y)
    b.set_outputs(s, lt, ge)
    it = Interpreter(m.hugr, registry, Scripted([]))
    outs = it.run("main", [F64Value(0.1), F64Value(0.25)])
    assert outs == [F64Value(0.1 - 0.25), bool_value(True), bool_value(False)]
