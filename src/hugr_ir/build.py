"""Convenience layer for constructing dataflow regions.

A :class:`DfBuilder` wraps one dataflow container (function body, case body,
loop body, block body) and auto-wires value edges as operations are appended.
Wires are outgoing ports; their types come from the source port row, so edges
are typed at construction and later checked by validation.

:func:`replace` is the one checked replacement that rewriting and
structuring share: it builds new nodes into a region, moves the consumers of
the old nodes onto them, checks what changed, and restores the host exactly
if the check or anything before it fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .graph import Edge, Hugr, Port, RemovedSubtree, in_port, out_port
from .ops import (
    BasicBlock,
    Call,
    Case,
    Cfg,
    Conditional,
    Const,
    ControlFlow,
    ExitBlock,
    FuncDecl,
    FuncDef,
    Input,
    LoadConst,
    LoadFunction,
    OpKind,
    Output,
    Registry,
    Static,
    TailLoop,
    Value,
    ext_op,
    value_signature,
)
from .types import EnumType, PolySignature, Signature, Type
from .validate import validate_touched

Wire = Port  # always an outgoing port


class BuildError(Exception):
    pass


def new_module(registry: Registry) -> "ModuleBuilder":
    return ModuleBuilder(Hugr(), registry)


@dataclass
class ModuleBuilder:
    hugr: Hugr
    registry: Registry

    def declare_function(self, name: str, scheme: PolySignature) -> int:
        return self.hugr.add_node(FuncDecl(name, scheme), self.hugr.root)

    def define_function(self, name: str, signature: Signature) -> "DfBuilder":
        scheme = PolySignature(0, signature)
        node = self.hugr.add_node(FuncDef(name, scheme), self.hugr.root)
        return DfBuilder.create(self.hugr, node, self.registry,
                                signature.inputs, signature.outputs)


class DfBuilder:
    """Builds the dataflow region directly under one container node."""

    def __init__(self, hugr: Hugr, container: int, registry: Registry,
                 input_node: int, output_node: int):
        self.hugr = hugr
        self.container = container
        self.registry = registry
        self.input_node = input_node
        self.output_node = output_node

    @classmethod
    def create(cls, hugr: Hugr, container: int, registry: Registry,
               input_types: tuple[Type, ...], output_types: tuple[Type, ...]) -> "DfBuilder":
        inp = hugr.add_node(Input(tuple(input_types)), container)
        outp = hugr.add_node(Output(tuple(output_types)), container)
        return cls(hugr, container, registry, inp, outp)

    @classmethod
    def attach(cls, hugr: Hugr, container: int, registry: Registry) -> "DfBuilder":
        """Wrap an existing region whose Input/Output nodes are already present."""
        children = hugr.node(container).children  # read only: no copy
        if len(children) < 2 or not isinstance(hugr.op(children[0]), Input) \
                or not isinstance(hugr.op(children[1]), Output):
            raise BuildError(f"node {container} has no Input/Output pair to attach to")
        return cls(hugr, container, registry, children[0], children[1])

    # ── wiring ─────────────────────────────────────────────────────

    def inputs(self) -> tuple[Wire, ...]:
        sig = value_signature(self.hugr.op(self.input_node))
        return tuple(out_port(self.input_node, i) for i in range(len(sig.outputs)))

    def wire_kind(self, wire: Wire) -> Value:
        """The interned value kind in ``wire``'s port row."""
        kind = self.hugr.port_kind(wire)
        if not isinstance(kind, Value):
            raise BuildError(f"{wire!r} is not a value port")
        return kind

    def connect(self, src: Wire, dst: Port) -> Edge:
        return self.hugr.connect(src, dst, self.wire_kind(src))

    def add(self, op: OpKind, *args: Wire) -> tuple[Wire, ...]:
        """Append ``op`` and wire ``args`` to its value inputs, in order."""
        sig = value_signature(op)
        if len(args) != len(sig.inputs):
            raise BuildError(f"{op!r} takes {len(sig.inputs)} inputs, got {len(args)}")
        node = self.hugr.add_node(op, self.container)
        for i, w in enumerate(args):
            self.connect(w, in_port(node, i))
        return tuple(out_port(node, i) for i in range(len(sig.outputs)))

    def ext(self, ext_id: str, name: str, *args: Wire,
            type_args: tuple[Type, ...] = ()) -> tuple[Wire, ...]:
        return self.add(ext_op(self.registry, ext_id, name, type_args), *args)

    def q(self, name: str, *args: Wire) -> tuple[Wire, ...]:
        return self.ext("stdlib.quantum", name, *args)

    def cl(self, name: str, *args: Wire) -> tuple[Wire, ...]:
        return self.ext("stdlib.classical", name, *args)

    def const(self, value, ty: Type) -> Wire:
        """A constant plus the load turning it into a runtime value."""
        cnode = self.hugr.add_node(Const(value, ty), self.container)
        lnode = self.hugr.add_node(LoadConst(ty), self.container)
        self.hugr.connect(out_port(cnode, 0), in_port(lnode, 0), Static(ty))
        return out_port(lnode, 0)

    def bool_const(self, value: bool) -> Wire:
        return self.const(int(value), EnumType(2))

    def tag_const(self, tag: int, cardinality: int) -> Wire:
        return self.const(tag, EnumType(cardinality))

    def set_outputs(self, *wires: Wire) -> None:
        for i, w in enumerate(wires):
            self.connect(w, in_port(self.output_node, i))

    # ── functions ──────────────────────────────────────────────────

    def _static_source(self, func_node: int) -> tuple[Port, PolySignature]:
        nd = self.hugr.node(func_node)
        op = nd.op
        if not isinstance(op, (FuncDef, FuncDecl)):
            raise BuildError(f"node {func_node} is not a function")
        _, outs = nd.rows
        offset = next(i for i, k in enumerate(outs) if isinstance(k, Static))
        return out_port(func_node, offset), op.scheme

    def call(self, func_node: int, *args: Wire,
             type_args: tuple[Type, ...] = ()) -> tuple[Wire, ...]:
        src, scheme = self._static_source(func_node)
        op = Call(tuple(type_args), scheme)
        sig = value_signature(op)
        node = self.hugr.add_node(op, self.container)
        for i, w in enumerate(args):
            self.connect(w, in_port(node, i))
        self.hugr.connect(src, in_port(node, len(sig.inputs)), Static(scheme))
        return tuple(out_port(node, i) for i in range(len(sig.outputs)))

    def load_function(self, func_node: int,
                      type_args: tuple[Type, ...] = ()) -> Wire:
        src, scheme = self._static_source(func_node)
        node = self.hugr.add_node(LoadFunction(tuple(type_args), scheme), self.container)
        self.hugr.connect(src, in_port(node, 0), Static(scheme))
        return out_port(node, 0)

    # ── control flow ───────────────────────────────────────────────

    def conditional(self, disc: Wire, others: tuple[Wire, ...],
                    outputs: tuple[Type, ...]
                    ) -> tuple[tuple[Wire, ...], list["DfBuilder"]]:
        """A conditional plus one body builder per case, in tag order."""
        disc_ty = self.wire_kind(disc).type
        if not isinstance(disc_ty, EnumType):
            raise BuildError(f"discriminant must be an enum, got {disc_ty!r}")
        other_types = tuple(self.wire_kind(w).type for w in others)
        op = Conditional(disc_ty.cardinality, other_types, tuple(outputs))
        node = self.hugr.add_node(op, self.container)
        self.connect(disc, in_port(node, 0))
        for i, w in enumerate(others):
            self.connect(w, in_port(node, i + 1))
        cases = []
        for _ in range(op.cardinality):
            case = self.hugr.add_node(Case(), node)
            cases.append(DfBuilder.create(self.hugr, case, self.registry,
                                          other_types, tuple(outputs)))
        outs = tuple(out_port(node, i) for i in range(len(outputs)))
        return outs, cases

    def tail_loop(self, init: tuple[Wire, ...]
                  ) -> tuple[tuple[Wire, ...], "DfBuilder"]:
        """A tail loop seeded with ``init``; body outputs (flag, loop vars)."""
        loop_vars = tuple(self.wire_kind(w).type for w in init)
        node = self.hugr.add_node(TailLoop(loop_vars), self.container)
        for i, w in enumerate(init):
            self.connect(w, in_port(node, i))
        body = DfBuilder.create(self.hugr, node, self.registry,
                                loop_vars, (EnumType(2),) + loop_vars)
        outs = tuple(out_port(node, i) for i in range(len(loop_vars)))
        return outs, body

    def cfg(self, args: tuple[Wire, ...], output_types: tuple[Type, ...]
            ) -> tuple[tuple[Wire, ...], "CfgBuilder"]:
        in_types = tuple(self.wire_kind(w).type for w in args)
        sig = Signature(in_types, tuple(output_types))
        node = self.hugr.add_node(Cfg(sig), self.container)
        for i, w in enumerate(args):
            self.connect(w, in_port(node, i))
        outs = tuple(out_port(node, i) for i in range(len(output_types)))
        return outs, CfgBuilder(self.hugr, node, self.registry)


@dataclass
class CfgBuilder:
    """Builds the blocks of one CFG node. The first block added is the entry."""

    hugr: Hugr
    cfg_node: int
    registry: Registry

    def add_block(self, input_types: tuple[Type, ...], successor_count: int,
                  pass_types: tuple[Type, ...]) -> tuple[int, DfBuilder]:
        op = BasicBlock(tuple(input_types), successor_count)
        node = self.hugr.add_node(op, self.cfg_node)
        body = DfBuilder.create(
            self.hugr, node, self.registry,
            tuple(input_types), (EnumType(successor_count),) + tuple(pass_types))
        return node, body

    def add_exit(self, output_types: tuple[Type, ...]) -> int:
        return self.hugr.add_node(ExitBlock(tuple(output_types)), self.cfg_node)

    def link(self, block: int, tag: int, target: int) -> None:
        """Control-flow edge: ``block`` branches to ``target`` on ``tag``."""
        self.hugr.connect(out_port(block, tag), in_port(target, 0), ControlFlow())


# ── region inlining ────────────────────────────────────────────────

def splice_region(dst: DfBuilder, src: Hugr, src_region: int,
                  input_wires: tuple[Wire, ...]) -> tuple[Wire, ...]:
    """Copy the body of ``src_region`` into ``dst``'s container.

    The source region's Input node is replaced by ``input_wires``; the wires
    feeding its Output node are returned. Nested containers are copied whole.
    When ``src`` is ``dst``'s graph, a static edge into the region from
    outside it (a ``Call`` of another function, a ``LoadConst`` of an outer
    ``Const``) is copied from the same source; from another graph it is left
    out, so the copy fails validation.
    """
    children = src.children(src_region)
    if len(children) < 2:
        raise BuildError(f"region {src_region} has no Input/Output pair")
    src_input, src_output = children[0], children[1]
    if not isinstance(src.op(src_input), Input) or not isinstance(src.op(src_output), Output):
        raise BuildError(f"region {src_region} has no Input/Output pair")

    mapping: dict[int, int] = {}

    def copy_subtree(old: int, new_parent: int) -> None:
        new = dst.hugr.add_node(src.op(old), new_parent)
        mapping[old] = new
        for c in src.children(old):
            copy_subtree(c, new)

    for child in children[2:]:
        copy_subtree(child, dst.container)

    copied = set(mapping)
    out_wires: dict[int, Wire] = {}
    for old in src.preorder(src_region):
        nd = src.node(old)
        for edges in nd.out_edges:
            for e in edges:
                if e.src.node == src_input:
                    new_src = input_wires[e.src.offset]
                elif e.src.node in copied:
                    new_src = out_port(mapping[e.src.node], e.src.offset)
                else:
                    continue
                if e.dst.node == src_output:
                    out_wires[e.dst.offset] = new_src
                elif e.dst.node in copied:
                    kind = e.kind if isinstance(e.kind, Static) else dst.wire_kind(new_src)
                    dst.hugr.connect(new_src, in_port(mapping[e.dst.node], e.dst.offset), kind)
    if src is dst.hugr:  # static edges into the region from outside it
        for old, new in mapping.items():
            for edges in src.node(old).in_edges:
                for e in edges:
                    if e.src.node not in copied and e.src.node != src_input:
                        dst.hugr.connect(e.src, in_port(new, e.dst.offset), e.kind)

    n_out = len(value_signature(src.op(src_output)).inputs)
    missing = [i for i in range(n_out) if i not in out_wires]
    if missing:
        raise BuildError(f"region {src_region} leaves outputs {missing} unwired")
    return tuple(out_wires[i] for i in range(n_out))


# ── checked replacement ────────────────────────────────────────────

def replace(h: Hugr, region: int, old: list[int], outputs: list[Port],
            inputs: tuple[Wire, ...],
            build: Callable[[DfBuilder, tuple[Wire, ...]], tuple[Wire, ...]],
            registry: Registry, invalid: Callable[[str], Exception],
            ) -> tuple[list[RemovedSubtree], list[int], list[Edge]]:
    """Replace the nodes ``old`` of dataflow ``region`` by what ``build``
    makes there from ``inputs``, and check the nodes whose wiring changed.

    ``build(builder, inputs)`` returns one wire per port of ``outputs``, the
    ports of ``old`` the rest of the region reads; their consumers outside
    ``old`` are moved onto those wires, in order. Then ``old`` is removed and
    the region's new children, the sources of ``inputs`` and the consumers
    are checked with ``validate_touched``: a fragment wired in only at its
    boundary keeps a valid region valid when they pass. On a diagnostic
    this raises ``invalid`` of the first one rendered. On that or any other
    exception the host is restored exactly (:func:`revert`) before it
    propagates.

    Returns what :func:`revert` needs to undo the replacement: the removed
    subtrees, the new children of ``region`` in ascending id order, and the
    new edges between nodes that were there before (a wire that passes an
    input straight through to a consumer).
    """
    gone = set(old)
    consumers = [[e.dst for e in h.edges_at(p) if e.dst.node not in gone] for p in outputs]
    watermark = h.next_id
    removed: list[RemovedSubtree] = []
    added_edges: list[Edge] = []
    try:
        builder = DfBuilder.attach(h, region, registry)
        wires = build(builder, inputs)
        for n in old:
            removed.append(h.remove_node(n))
        for wire, ports in zip(wires, consumers):
            for dst in ports:
                edge = builder.connect(wire, dst)
                if wire.node < watermark:  # between two old nodes
                    added_edges.append(edge)
        added = [n for n in range(watermark, h.next_id) if h.parent(n) == region]
        touched = {*added, *(w.node for w in inputs),
                   *(dst.node for ports in consumers for dst in ports)}
        diags = validate_touched(h, region, touched, registry)
        if diags:
            raise invalid(diags[0].render())
    except Exception:
        # ascending ids reach each new container before what it holds
        revert(h, removed, range(watermark, h.next_id), added_edges)
        raise
    return removed, added, added_edges


def revert(h: Hugr, removed: list[RemovedSubtree], added_nodes: Iterable[int],
           added_edges: list[Edge]) -> None:
    """Undo a :func:`replace` from what it returned."""
    for e in added_edges:
        if h.has_edge(e):
            h.disconnect(e)
    for n in added_nodes:
        if n in h:
            h.remove_node(n)
    for sub in reversed(removed):
        h.restore(sub)
