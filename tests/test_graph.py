"""Core graph storage: hierarchy, ports, edges, removal and undo."""

import pytest

from hugr_ir import (
    Edge,
    GraphError,
    Hugr,
    Value,
    encode,
    ext_op,
    in_port,
    out_port,
    port_rows,
    stdlib,
)
from hugr_ir.build import new_module
from hugr_ir.ops import Case, Conditional, Const, ControlFlow, FuncDef, LoadConst, Module, Static
from hugr_ir.types import BOOL, F64, QUBIT, PolySignature, Signature

from generators import chain_circuit, hierarchy_faults, main_region


def test_rz_port_counts(registry):
    ins, outs = port_rows(ext_op(registry, "stdlib.quantum", "Rz"))
    assert [k.type for k in ins] == [QUBIT, F64]
    assert [k.type for k in outs] == [QUBIT]


def test_add_then_remove_is_identity(registry):
    h = chain_circuit(["H"], registry)
    region = main_region(h)
    count = len(h)
    n = h.add_node(ext_op(registry, "stdlib.quantum", "X"), region)
    assert len(h) == count + 1
    h.remove_node(n)
    assert len(h) == count
    assert hierarchy_faults(h) == []


def test_children_keep_insertion_order():
    h = Hugr()
    f = h.add_node(FuncDef("main", PolySignature(0, Signature((BOOL,), (BOOL,)))), h.root)
    cond = h.add_node(Conditional(3, (), ()), f)
    cases = [h.add_node(Case(), cond) for _ in range(3)]
    assert h.children(cond) == cases


def test_add_node_unknown_parent():
    h = Hugr()
    with pytest.raises(GraphError):
        h.add_node(Module(), 999)


def test_connect_checks_direction_and_range(registry):
    h = chain_circuit(["H", "H"], registry)
    region = main_region(h)
    first, second = h.children(region)[2], h.children(region)[3]
    qubit_edge = Value(QUBIT)
    with pytest.raises(GraphError):
        h.connect(out_port(first, 0), out_port(second, 0), qubit_edge)  # wrong direction
    with pytest.raises(GraphError):
        h.connect(out_port(first, 5), in_port(second, 0), qubit_edge)  # src out of range
    with pytest.raises(GraphError):
        h.connect(out_port(first, 0), in_port(second, 3), qubit_edge)  # dst out of range


def test_connect_port_to_itself_is_direction_mismatch(registry):
    h = chain_circuit(["H"], registry)
    node = h.children(main_region(h))[2]
    p = out_port(node, 0)
    with pytest.raises(GraphError):
        h.connect(p, p, Value(QUBIT))


def test_duplicate_edge_rejected(registry):
    m = new_module(registry)
    b = m.define_function("main", Signature((F64,), (F64, F64)))
    (x,) = b.inputs()
    b.set_outputs(x, x)  # copyable fan-out to two distinct ports is fine
    h = m.hugr
    out_node = h.children(main_region(h))[1]
    with pytest.raises(GraphError):
        h.connect(out_port(h.children(main_region(h))[0], 0), in_port(out_node, 0),
                  Value(F64))


def test_fanout_from_one_output(registry):
    # one classical output wired to two consumers; neighbours in insertion order
    m = new_module(registry)
    b = m.define_function("main", Signature((QUBIT, F64, F64), (QUBIT,)))
    q, a, x = b.inputs()
    (s,) = b.cl("Add", a, x)
    (q,) = b.q("Rz", q, s)
    (q,) = b.q("Rx", q, s)
    b.set_outputs(q)
    h = m.hugr
    region = main_region(h)
    add_node = h.children(region)[2]
    targets = h.neighbours(out_port(add_node, 0))
    assert [t.offset for t in targets] == [1, 1]
    rz, rx = targets[0].node, targets[1].node
    assert h.op(rz).name == "Rz" and h.op(rx).name == "Rx"


def test_neighbours_fresh_port_empty(registry):
    h = chain_circuit(["H"], registry)
    n = h.add_node(ext_op(registry, "stdlib.quantum", "X"), main_region(h))
    assert h.neighbours(out_port(n, 0)) == []


def test_neighbours_symmetric(registry):
    h = chain_circuit(["H", "X", "Z", "H"], registry)
    for n in h.preorder():
        nd = h.node(n)
        for off in range(len(nd.out_edges)):
            p = out_port(n, off)
            for other in h.neighbours(p):
                assert p in h.neighbours(other)
        for off in range(len(nd.in_edges)):
            p = in_port(n, off)
            for other in h.neighbours(p):
                assert p in h.neighbours(other)


def test_qubit_output_single_edge_in_valid_graph(registry):
    h = chain_circuit(["H", "X"], registry)
    region = main_region(h)
    for n in h.children(region):
        for off, kind in enumerate(port_rows(h.op(n))[1]):
            if isinstance(kind, Value) and kind.type == QUBIT:
                assert len(h.neighbours(out_port(n, off))) == 1


def test_remove_subtree_and_incident_edges(registry):
    from hugr_ir.programs import measurement_branch

    h = measurement_branch(registry)
    cond = next(n for n in h.preorder() if isinstance(h.op(n), Conditional))
    n_children = len(h.preorder(cond))
    before_nodes = len(h)
    h.remove_node(cond)
    assert len(h) == before_nodes - n_children
    assert hierarchy_faults(h) == []
    # no dangling edges survive
    for e in h.all_edges():
        assert e.src.node in h and e.dst.node in h


def test_remove_leaf_drops_incident_edges(registry):
    h = chain_circuit(["H", "X", "Z"], registry)
    region = main_region(h)
    x = h.children(region)[3]
    edges_before = len(h.all_edges())
    h.remove_node(x)
    assert len(h.all_edges()) == edges_before - 2


def test_remove_restore_isomorphic(registry):
    h = chain_circuit(["H", "X", "Z"], registry)
    reference = encode(h)
    x = h.children(main_region(h))[3]
    removed = h.remove_node(x)
    assert encode(h) != reference
    assert hierarchy_faults(h) == []
    h.restore(removed)
    assert encode(h) == reference
    assert hierarchy_faults(h) == []


def test_remove_root_rejected(registry):
    h = chain_circuit(["H"], registry)
    with pytest.raises(GraphError):
        h.remove_node(h.root)


def test_remove_unknown_node_raises_graph_error(registry):
    h = chain_circuit(["H"], registry)
    with pytest.raises(GraphError, match="unknown node"):
        h.remove_node(len(h) + 100)


def _block_with_every_boundary_kind(registry):
    """(graph, block): a CFG block with several control-flow predecessors,
    a call to an outer function, a constant loaded outside it, and value
    edges to and from the enclosing function body."""
    m = new_module(registry)
    g = m.define_function("g", Signature((F64,), (F64,)))
    g.set_outputs(*g.inputs())
    b = m.define_function("main", Signature((F64,), (F64,)))
    (x,) = b.inputs()
    (out,), cb = b.cfg((x,), (F64,))
    (entry, eb), (side, sb), (block, bb) = [cb.add_block((F64,), n, (F64,)) for n in (1, 1, 2)]
    exit_node = cb.add_exit((F64,))
    for src, tag, dst in ((entry, 0, block), (side, 0, block), (block, 0, block),
                          (block, 1, exit_node)):
        cb.link(src, tag, dst)
    for body in (eb, sb):
        body.set_outputs(body.tag_const(0, 1), *body.inputs())
    (v,) = bb.call(g.container, *bb.inputs())
    bb.set_outputs(bb.bool_const(False), v)
    b.set_outputs(out)
    h = m.hugr
    b_in, b_out = h.children(b.container)[:2]
    bb_in, bb_out = h.children(block)[:2]
    h.connect(x, in_port(bb_out, 1), Value(F64))
    h.connect(out_port(bb_in, 0), in_port(b_out, 0), Value(F64))
    const = h.add_node(Const(1.0, F64), block)
    load = h.add_node(LoadConst(F64), b.container)
    h.connect(out_port(const, 0), in_port(load, 0), Static(F64))
    return h, block


def test_remove_and_restore_unlink_only_the_boundary(registry):
    h, block = _block_with_every_boundary_kind(registry)
    subtree = h.preorder(block)
    outside = [n for n in h.preorder() if n not in subtree]

    def port_lists():
        return {(n, side, i): list(es) for n in outside
                for side, rows in (("in", h.node(n).in_edges), ("out", h.node(n).out_edges))
                for i, es in enumerate(rows)}

    reference, before = encode(h), port_lists()
    in_order = []  # preorder, in-edges then out-edges, each edge once
    for n in subtree:
        for es in h.node(n).in_edges + h.node(n).out_edges:
            in_order.extend(e for e in es if e not in in_order)
    crossing = [e for e in in_order if (e.src.node in subtree) != (e.dst.node in subtree)]
    assert {type(e.kind) for e in crossing} == {Value, Static, ControlFlow}
    assert {e.dst.node in subtree for e in crossing} == {True, False}
    assert len(h.edges_at(in_port(block, 0))) == 3

    removed = h.remove_node(block)
    assert removed.edges == in_order
    assert [nid for nid, *_ in removed.nodes] == subtree
    gone = set(in_order)
    assert port_lists() == {k: [e for e in es if e not in gone] for k, es in before.items()}
    assert hierarchy_faults(h) == []

    h.restore(removed)
    assert encode(h) == reference
    assert hierarchy_faults(h) == []
    assert port_lists() == {k: [e for e in es if e not in gone] + [e for e in in_order if e in es]
                            for k, es in before.items()}


def test_node_ids_never_reused(registry):
    h = chain_circuit(["H"], registry)
    region = main_region(h)
    seen = set(h.preorder())
    for _ in range(5):
        n = h.add_node(ext_op(registry, "stdlib.quantum", "X"), region)
        assert n not in seen
        seen.add(n)
        h.remove_node(n)


def test_identical_mutation_sequences_serialize_identically(registry):
    assert encode(chain_circuit(["H", "X"], registry)) == \
        encode(chain_circuit(["H", "X"], registry))


def test_copy_is_structurally_equal(registry):
    h = chain_circuit(["H", "X"], registry)
    c = h.copy()
    assert encode(c) == encode(h)
    c.add_node(ext_op(registry, "stdlib.quantum", "Z"), main_region(c))
    assert encode(c) != encode(h)


def test_hierarchy_stays_a_tree_through_mutations(registry):
    from hugr_ir.programs import measurement_branch
    from hugr_ir.ops import Conditional

    h = measurement_branch(registry)
    assert hierarchy_faults(h) == []
    cond = next(n for n in h.preorder() if isinstance(h.op(n), Conditional))
    removed = h.remove_node(cond)
    assert hierarchy_faults(h) == []
    h.restore(removed)
    assert hierarchy_faults(h) == []
    assert not any(h.is_ancestor(c, h.parent(c)) for c in h.preorder()
                   if h.parent(c) is not None)


def test_ops_are_released_with_their_graph(registry):
    import gc
    import weakref

    from hugr_ir import decode, validate
    from hugr_ir.ops import Const, Static

    m = new_module(registry)
    b = m.define_function("main", Signature((QUBIT,), (QUBIT,)))
    (q,) = b.inputs()
    (q,) = b.q("Rz", q, b.const(0.123456789, F64))
    b.set_outputs(q)
    h = m.hugr
    del m, b, q
    assert validate(h, registry) == []
    c = h.copy()
    assert encode(decode(encode(c))) == encode(h)
    assert h.port_kind(out_port(h.children(main_region(h))[2], 0)) == Static(F64)
    const = weakref.ref(next(h.op(n) for n in h.preorder() if isinstance(h.op(n), Const)))
    del h, c
    gc.collect()
    assert const() is None


def test_copy_shares_port_rows(registry):
    h = chain_circuit(["H", "X"], registry)
    c = h.copy()
    for n in h.preorder():
        assert c.node(n).rows is h.node(n).rows


def test_has_edge_and_disconnect_follow_the_edge_lists(registry):
    h = chain_circuit(["H", "X"], registry)
    region = main_region(h)
    hnode, xnode = h.children(region)[2:4]
    (edge,) = h.edges_at(out_port(hnode, 0))
    assert h.has_edge(edge)
    h.disconnect(edge)
    assert not h.has_edge(edge)
    with pytest.raises(GraphError):
        h.disconnect(edge)
    again = h.connect(edge.src, edge.dst, edge.kind)
    assert again == edge and h.has_edge(edge)
    with pytest.raises(GraphError):
        h.connect(edge.src, edge.dst, edge.kind)
    removed = h.remove_node(xnode)
    assert not h.has_edge(edge)
    assert sum(e == edge for e in removed.edges) == 1
    h.restore(removed)
    assert h.has_edge(edge)
    assert hierarchy_faults(h) == []


# ── records ────────────────────────────────────────────────────────

def test_ports_and_edges_are_immutable():
    p = out_port(1, 0)
    e = Edge(p, in_port(2, 0), Value(QUBIT))
    for record, field in [(p, "node"), (p, "offset"), (p, "direction"), (e, "src"), (e, "kind")]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert p == out_port(1, 0) and e.kind == Value(QUBIT)


def test_port_and_edge_equality_and_hash_go_field_by_field():
    p = out_port(1, 2)
    assert p == out_port(1, 2) and hash(p) == hash(out_port(1, 2))
    assert hash(p) == hash((p.node, p.direction, p.offset))
    assert len({p, out_port(1, 2), out_port(1, 3), out_port(0, 2), in_port(1, 2)}) == 4
    dst = in_port(4, 0)
    e = Edge(p, dst, Value(QUBIT))
    assert e == Edge(out_port(1, 2), in_port(4, 0), Value(QUBIT))
    assert hash(e) == hash(Edge(out_port(1, 2), in_port(4, 0), Value(QUBIT)))
    assert hash(e) == hash((e.src, e.dst, e.kind))
    assert e != Edge(p, dst, Value(BOOL))  # the kind counts
    assert e != Edge(p, in_port(4, 1), Value(QUBIT))
    assert len({e, Edge(p, dst, Value(QUBIT)), Edge(p, dst, Value(BOOL))}) == 2


def test_port_and_edge_repr():
    assert repr(out_port(3, 1)) == "3.out1"
    assert repr(in_port(0)) == "0.in0"
    assert repr(Edge(out_port(3), in_port(4, 2), Value(QUBIT))) == \
        f"Edge(src=3.out0, dst=4.in2, kind={Value(QUBIT)!r})"


def _rebuilt(h: Hugr, bulk: bool) -> Hugr:
    """``h`` with ids in hierarchy preorder, built in one pass or node by node,
    then given ``h``'s edges in its own order."""
    order = h.preorder()
    idmap = {old: new for new, old in enumerate(order)}
    nodes = [(idmap[h.parent(n)], h.op(n)) for n in order[1:]]
    if bulk:
        g = Hugr.from_preorder(h.op(h.root), nodes)
    else:
        g = Hugr(h.op(h.root))
        for parent, op in nodes:
            g.add_node(op, parent)
    for e in h.all_edges():
        g.connect(out_port(idmap[e.src.node], e.src.offset),
                  in_port(idmap[e.dst.node], e.dst.offset), e.kind)
    return g


def test_bulk_build_matches_node_by_node(registry):
    from hugr_ir.programs import all_programs

    for name, h in all_programs(registry).items():
        bulk, single = _rebuilt(h, True), _rebuilt(h, False)
        assert len(bulk) == len(single) == len(h)
        for n in single.preorder():
            a, b = bulk.node(n), single.node(n)
            assert (a.parent, a.op, a.children) == (b.parent, b.op, b.children), (name, n)
            assert (a.in_edges, a.out_edges) == (b.in_edges, b.out_edges), (name, n)
        assert encode(bulk) == encode(h)
        # the next fresh id is the same too
        assert bulk.add_node(Case(), bulk.root) == single.add_node(Case(), single.root)


def test_bulk_build_needs_earlier_parents():
    with pytest.raises(GraphError):
        Hugr.from_preorder(Module(), [(0, Case()), (3, Case())])
    h = Hugr.from_preorder(Module(), [(0, Case()), (1, Case()), (0, Case())])
    assert h.children(0) == [1, 3] and h.children(1) == [2]


def test_copy_shares_no_mutable_list(registry):
    from hugr_ir.programs import measurement_branch

    h = measurement_branch(registry)
    c = h.copy()
    for n in h.preorder():
        a, b = h.node(n), c.node(n)
        assert a is not b and a.children is not b.children
        for mine, theirs in [(a.in_edges, b.in_edges), (a.out_edges, b.out_edges)]:
            assert mine == theirs and mine is not theirs
            assert not any(x is y for x, y in zip(mine, theirs))
    before = encode(h)
    for e in c.all_edges():
        c.disconnect(e)
    c.add_node(Case(), c.root)
    assert encode(h) == before
