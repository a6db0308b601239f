"""Whole-graph validity checks.

Typing and linearity are enforced continuously between transformation steps.
Rewriting and structuring change a graph through one checked replacement,
:func:`~hugr_ir.build.replace`, which re-checks the nodes whose wiring it
changed with :func:`validate_touched` and undoes a replacement that fails,
so a bad transformation surfaces immediately and leaves the graph as it
was. A fragment wired in only at its boundary cannot create a cycle, so that
check costs what was replaced and still keeps a valid region valid. The
hierarchy check here is the only whole-tree audit: the mutators of
:class:`~hugr_ir.graph.Hugr` run none.

Checks, per the container owning each region:
  * the hierarchy is a tree rooted at a module;
  * containers hold only admissible child kinds, and dataflow regions start
    with an Input/Output pair whose rows match the container's signature;
  * every value edge connects equally typed ports within one region, and
    every value input port has exactly one incoming edge;
  * linear outputs have exactly one edge; copyable outputs any number;
  * value edges within a region form a DAG (control flow edges may cycle):
    the region's :func:`~hugr_ir.graph.region_order` places every child;
  * conditionals have one case per discriminant tag with matching body rows;
  * loop bodies emit the continue flag ahead of the loop variables;
  * CFGs have a unique exit, their entry first, and block bodies emitting a
    successor tag consistent with their control-flow out-degree;
  * static edges flow from definitions to uses whose region is in scope;
  * extension ops resolve in the registry and agree with it.

Diagnostics accumulate — nothing throws — so tooling reports all problems at
once. The diagnostic list is deterministic: sorted by node, port, code. A
hierarchy that is not a tree is reported alone: the other checks follow it.

Each call keeps one dict from each distinct op to facts about its outgoing
ports (no value, linear, copyable, or why the type does not resolve), and
builds a ``Port`` only for a diagnostic. Kinds are interned, so a value edge
is checked by identity; only a mismatch is compared in full, to word it.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .graph import Direction, Edge, Hugr, Port, region_order
from .ops import (
    BasicBlock,
    Call,
    Case,
    Cfg,
    Conditional,
    Const,
    ControlFlow,
    ExitBlock,
    ExtensionOp,
    FuncDecl,
    FuncDef,
    Input,
    LoadConst,
    LoadFunction,
    Module,
    OpError,
    OpKind,
    Output,
    Registry,
    Static,
    TailLoop,
    Value,
    instantiate,
)
from .types import BOOL, EnumType, Type, TypeError_, contains_var, is_linear


class Code(enum.Enum):
    NonTreeHierarchy = "NonTreeHierarchy"
    BadChildKind = "BadChildKind"
    MissingIO = "MissingIO"
    EdgeTypeMismatch = "EdgeTypeMismatch"
    LinearityViolation = "LinearityViolation"
    InputPortUnwired = "InputPortUnwired"
    DataflowCycle = "DataflowCycle"
    CaseArityMismatch = "CaseArityMismatch"
    CaseSignatureMismatch = "CaseSignatureMismatch"
    LoopSignatureMismatch = "LoopSignatureMismatch"
    CfgShapeError = "CfgShapeError"
    StaticScopeError = "StaticScopeError"
    UnknownOp = "UnknownOp"


class Diagnostic(NamedTuple):
    code: Code
    node: int
    port: Port | None
    message: str

    def render(self) -> str:
        port = "-" if self.port is None else f"{self.port.direction.value}{self.port.offset}"
        return f"{self.code.value} node={self.node} port={port}: {self.message}"


def _sort_key(d: Diagnostic):
    if d.port is None:
        pkey = (-1, -1)
    else:
        pkey = (0 if d.port.direction is Direction.IN else 1, d.port.offset)
    return (d.node, pkey, d.code.value, d.message)


def _finish(diags: list[Diagnostic]) -> list[Diagnostic]:
    return sorted(set(diags), key=_sort_key)


# Ops admissible as direct children of a dataflow region.
_DATAFLOW_CHILDREN = (
    Input, Output, ExtensionOp, Conditional, TailLoop, Cfg,
    Call, LoadFunction, LoadConst, Const, FuncDef, FuncDecl,
)
# Ops that contain a dataflow region (Input/Output pair first).
_DATAFLOW_CONTAINERS = (FuncDef, Case, TailLoop, BasicBlock)
# Ops with no children at all.
_LEAF_OPS = (
    Input, Output, ExtensionOp, Call, LoadFunction, LoadConst, Const,
    FuncDecl, ExitBlock,
)


def validate(h: Hugr, registry: Registry) -> list[Diagnostic]:
    """All diagnostics for the whole graph; empty means valid."""
    diags, nodes = _check_hierarchy(h)
    facts: dict[OpKind, tuple] = {}
    for n in nodes:
        diags.extend(_check_parent(h, n, registry, facts))
    return _finish(diags)


def validate_region(h: Hugr, parent: int, registry: Registry) -> list[Diagnostic]:
    """Diagnostics restricted to checks local to ``parent``'s own region."""
    return _finish(_check_parent(h, parent, registry, {}))


def validate_touched(h: Hugr, region: int, touched: set[int],
                     registry: Registry) -> list[Diagnostic]:
    """Port checks of the touched nodes still in ``region``, in id order. A
    neighbour is in the region if its parent link says so."""
    diags: list[Diagnostic] = []
    facts: dict[OpKind, tuple] = {}
    for n in sorted(touched):
        if n in h and h.parent(n) == region:
            diags.extend(_check_node_ports(h, n, registry, facts))
    return diags


def dataflow_regions(h: Hugr) -> list[int]:
    """The nodes that own a dataflow region, in hierarchy preorder."""
    return [n for n in h.preorder() if isinstance(h.op(n), _DATAFLOW_CONTAINERS)]


def render(diags: list[Diagnostic]) -> str:
    return "\n".join(d.render() for d in diags)


def discarded_value_lints(h: Hugr, registry: Registry) -> list[str]:
    """Copyable outputs with no consumer: legal (the zero-copy case), flagged.

    Not part of :func:`validate`; tooling may surface these as hints.
    """
    lines: list[str] = []
    for parent in dataflow_regions(h):
        for n in h.children(parent):
            nd = h.node(n)
            if isinstance(nd.op, Output):
                continue
            _, outs = nd.rows
            for off, kind in enumerate(outs):
                if not isinstance(kind, Value) or nd.out_edges[off]:
                    continue
                try:
                    linear = is_linear(kind.type, registry)
                except TypeError_:
                    continue
                if not linear:
                    lines.append(f"discarded {kind.type!r} at node {n} port out{off}")
    return lines


# ── hierarchy ──────────────────────────────────────────────────────

def _check_hierarchy(h: Hugr) -> tuple[list[Diagnostic], list[int]]:
    """Hierarchy faults, and the nodes whose own checks follow: every node
    if the hierarchy is a tree, none if not, because those checks follow
    children lists and parent links that would then dangle or cycle."""
    faults: list[Diagnostic] = []
    seen: dict[int, None] = {}  # reachable nodes, in walk order
    stack = [h.root]
    while stack:
        n = stack.pop()
        if n in seen:
            faults.append(Diagnostic(Code.NonTreeHierarchy, n, None,
                                     "node reachable twice from the root"))
            continue
        seen[n] = None
        for c in h.node(n).children:
            if c not in h:
                faults.append(Diagnostic(Code.NonTreeHierarchy, n, None,
                                         f"child {c} does not exist"))
                continue
            if h.node(c).parent != n:
                faults.append(Diagnostic(Code.NonTreeHierarchy, c, None,
                                         "parent link disagrees with children list"))
            stack.append(c)
    for n in h._nodes.keys() - seen.keys():
        faults.append(Diagnostic(Code.NonTreeHierarchy, n, None,
                                 "node not reachable from the root"))
    nodes = [] if faults else list(seen)
    if not isinstance(h.op(h.root), Module):
        faults.append(Diagnostic(Code.NonTreeHierarchy, h.root, None,
                                 "root node must be a Module"))
    return faults, nodes


# ── per-container checks ───────────────────────────────────────────

def _check_parent(h: Hugr, parent: int, registry: Registry,
                  facts: dict[OpKind, tuple]) -> list[Diagnostic]:
    nd = h.node(parent)
    op = nd.op
    diags: list[Diagnostic] = []
    children = nd.children

    if isinstance(op, _LEAF_OPS):
        if children:
            diags.append(Diagnostic(Code.BadChildKind, parent, None,
                                    f"{type(op).__name__} cannot contain children"))
        return diags

    if isinstance(op, Module):
        for c in children:
            if not isinstance(h.op(c), (FuncDef, FuncDecl)):
                diags.append(Diagnostic(Code.BadChildKind, c, None,
                                        "module children must be function definitions or declarations"))
        return diags

    if isinstance(op, Conditional):
        diags.extend(_check_conditional(h, parent, op))
        return diags

    if isinstance(op, Cfg):
        diags.extend(_check_cfg(h, parent, op))
        return diags

    if isinstance(op, _DATAFLOW_CONTAINERS):
        diags.extend(_check_dataflow_region(h, parent, op, registry, facts))
        return diags

    return diags


def _region_rows(h: Hugr, parent: int) -> tuple[tuple[Type, ...], tuple[Type, ...]] | None:
    """(input row, output row) of a dataflow region, if its IO pair exists."""
    children = h.children(parent)
    if len(children) < 2:
        return None
    i_op, o_op = h.op(children[0]), h.op(children[1])
    if not isinstance(i_op, Input) or not isinstance(o_op, Output):
        return None
    return i_op.types, o_op.types


def _expected_rows(h: Hugr, parent: int, op: OpKind):
    """Expected region rows and the code to report when they mismatch."""
    if isinstance(op, FuncDef):
        body = op.scheme.body
        return body.inputs, body.outputs, Code.MissingIO
    if isinstance(op, Case):
        cond = h.parent(parent)
        cond_op = h.op(cond) if cond is not None else None
        if isinstance(cond_op, Conditional):
            return cond_op.other_inputs, cond_op.outputs, Code.CaseSignatureMismatch
        return None, None, Code.CaseSignatureMismatch
    if isinstance(op, TailLoop):
        return op.loop_vars, (BOOL,) + op.loop_vars, Code.LoopSignatureMismatch
    if isinstance(op, BasicBlock):
        # output row is (Enum(successors),) + pass row; pass row is free here
        # and checked against the successors by the CFG owner
        return op.inputs, None, Code.CfgShapeError
    raise AssertionError(op)


def _check_dataflow_region(h: Hugr, parent: int, op: OpKind, registry: Registry,
                           facts: dict[OpKind, tuple]) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    children = h.children(parent)

    rows = _region_rows(h, parent)
    if rows is None:
        diags.append(Diagnostic(Code.MissingIO, parent, None,
                                "dataflow region must start with an Input and an Output node"))
        return diags
    in_row, out_row = rows
    exp_in, exp_out, mismatch_code = _expected_rows(h, parent, op)
    if exp_in is not None and tuple(exp_in) != tuple(in_row):
        diags.append(Diagnostic(mismatch_code, parent, None,
                                f"region inputs {list(in_row)} do not match container {list(exp_in)}"))
    if exp_out is not None and tuple(exp_out) != tuple(out_row):
        diags.append(Diagnostic(mismatch_code, parent, None,
                                f"region outputs {list(out_row)} do not match container {list(exp_out)}"))
    if isinstance(op, BasicBlock):
        tag = out_row[0] if out_row else None
        if not isinstance(tag, EnumType) or tag.cardinality != op.successor_count:
            diags.append(Diagnostic(Code.CfgShapeError, parent, None,
                                    f"block body must emit enum({op.successor_count}) first"))

    for c in children[2:]:
        c_op = h.op(c)
        if isinstance(c_op, (Input, Output)):
            diags.append(Diagnostic(Code.MissingIO, c, None,
                                    "Input/Output must be the first two children"))
        elif not isinstance(c_op, _DATAFLOW_CHILDREN):
            diags.append(Diagnostic(Code.BadChildKind, c, None,
                                    f"{type(c_op).__name__} is not a dataflow operation"))

    for c in children:
        diags.extend(_check_node_ports(h, c, registry, facts))

    order = h.derived(region_order, parent)
    if len(order) < len(children):
        diags.append(Diagnostic(Code.DataflowCycle, min(set(children).difference(order)), None,
                                "value edges form a cycle within the region"))
    return diags


def _check_node_ports(h: Hugr, n: int, registry: Registry,
                      facts: dict[OpKind, tuple]) -> list[Diagnostic]:
    """The port checks of ``n``; a peer shares its region if it shares its
    parent, and an id not in the graph is outside every region."""
    diags: list[Diagnostic] = []
    table = h._nodes
    nd = table[n]
    op = nd.op
    region = nd.parent
    ins = op.rows[0]

    if isinstance(op, ExtensionOp):
        diags.extend(_check_extension_op(n, op, registry))

    for off, kind in enumerate(ins):
        edges = nd.in_edges[off]
        if isinstance(kind, Value):
            if len(edges) != 1:
                diags.append(Diagnostic(Code.InputPortUnwired, n, Port(n, Direction.IN, off),
                                        f"value input needs exactly one edge, found {len(edges)}"))
            for e in edges:
                src = table.get(e.src.node)
                # interned kinds: the edge and its source port carry this very Value
                if e.kind is not kind or src is None or src.parent != region \
                        or h.port_kind(e.src) is not kind:
                    diags.extend(_check_value_edge(h, e, kind.type, region))
        elif isinstance(kind, Static):
            if len(edges) != 1:
                diags.append(Diagnostic(Code.InputPortUnwired, n, Port(n, Direction.IN, off),
                                        f"static input needs exactly one edge, found {len(edges)}"))
            for e in edges:
                diags.extend(_check_static_edge(h, e, kind))
        else:  # incoming control flow; counted by the CFG owner
            for e in edges:
                if not isinstance(e.kind, ControlFlow):
                    diags.append(Diagnostic(Code.EdgeTypeMismatch, n, Port(n, Direction.IN, off),
                                            "control-flow port carries a non-control edge"))

    out_facts = facts.get(op)
    if out_facts is None:
        out_facts = facts[op] = _out_facts(op, registry)
    for off, fact in enumerate(out_facts):
        if fact is None:
            continue
        edges = nd.out_edges[off]
        if fact is True and len(edges) != 1:
            diags.append(Diagnostic(Code.LinearityViolation, n, Port(n, Direction.OUT, off),
                                    f"linear output needs exactly one edge, found {len(edges)}"))
        elif isinstance(fact, str):
            diags.append(Diagnostic(Code.UnknownOp, n, Port(n, Direction.OUT, off), fact))
        for e in edges:
            dst = table.get(e.dst.node)
            if dst is None or dst.parent != region:
                diags.append(Diagnostic(Code.EdgeTypeMismatch, n, Port(n, Direction.OUT, off),
                                        "value edge leaves its region"))
    return diags


def _out_facts(op: OpKind, registry: Registry) -> tuple:
    """Per outgoing port of ``op``: None if it carries no value, else whether
    the value is linear, or why its type does not resolve."""
    facts: list[bool | str | None] = []
    for kind in op.rows[1]:
        if not isinstance(kind, Value):
            facts.append(None)
        elif contains_var(kind.type):
            # uninstantiated variables are conservatively linear: sound for every instantiation
            facts.append(True)
        else:
            try:
                facts.append(bool(is_linear(kind.type, registry)))
            except TypeError_ as exc:
                facts.append(str(exc))
    return tuple(facts)


def _check_value_edge(h: Hugr, e: Edge, dst_type: Type, region: int) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    if not isinstance(e.kind, Value):
        diags.append(Diagnostic(Code.EdgeTypeMismatch, e.dst.node, e.dst,
                                f"value port wired with a {type(e.kind).__name__} edge"))
        return diags
    src = h._nodes.get(e.src.node)
    if src is None or src.parent != region:
        diags.append(Diagnostic(Code.EdgeTypeMismatch, e.dst.node, e.dst,
                                "value edge crosses region boundaries"))
        return diags
    src_kind = h.port_kind(e.src)
    if not isinstance(src_kind, Value):
        diags.append(Diagnostic(Code.EdgeTypeMismatch, e.dst.node, e.dst,
                                "value edge leaves a non-value port"))
        return diags
    if src_kind.type != dst_type or e.kind.type != dst_type:
        diags.append(Diagnostic(Code.EdgeTypeMismatch, e.dst.node, e.dst,
                                f"edge type {src_kind.type!r} does not match port type {dst_type!r}"))
    return diags


def _check_static_edge(h: Hugr, e: Edge, expect: Static) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    target = e.dst.node
    if not isinstance(e.kind, Static):
        diags.append(Diagnostic(Code.EdgeTypeMismatch, target, e.dst,
                                f"static port wired with a {type(e.kind).__name__} edge"))
        return diags
    src_op = h.op(e.src.node)
    if not isinstance(src_op, (FuncDef, FuncDecl, Const)):
        diags.append(Diagnostic(Code.StaticScopeError, target, e.dst,
                                f"static edge source must be a definition or constant, got {type(src_op).__name__}"))
        return diags
    src_kind = h.port_kind(e.src)
    if not isinstance(src_kind, Static) or src_kind.payload != expect.payload:
        got = src_kind.payload if isinstance(src_kind, Static) else src_kind
        diags.append(Diagnostic(Code.EdgeTypeMismatch, target, e.dst,
                                f"static payload {got!r} does not match expected {expect.payload!r}"))
    # the source's region must enclose (or be) the target's region
    src_parent = h.parent(e.src.node)
    dst_parent = h.parent(target)
    if src_parent is None or dst_parent is None or not h.is_ancestor(src_parent, dst_parent):
        diags.append(Diagnostic(Code.StaticScopeError, target, e.dst,
                                "static edge source is not visible from the use site"))
    return diags


def _check_extension_op(n: int, op: ExtensionOp, registry: Registry) -> list[Diagnostic]:
    problems = registry.extop_problems.get(op)
    if problems is None:
        problems = registry.extop_problems[op] = _extension_op_problems(op, registry)
    return [Diagnostic(Code.UnknownOp, n, None, msg) for msg in problems]


def _extension_op_problems(op: ExtensionOp, registry: Registry) -> list[str]:
    try:
        scheme = registry.op_def(op.extension, op.name).scheme
    except OpError:
        return [f"{op.extension}.{op.name} is not registered"]
    try:
        expected = instantiate(scheme, op.type_args)
    except TypeError_ as exc:
        return [f"{op.extension}.{op.name}: bad type arguments ({exc})"]
    if expected != op.signature:
        return [f"{op.extension}.{op.name} declares {op.signature!r} "
                f"but registry says {expected!r}"]
    return []


# ── conditionals ───────────────────────────────────────────────────

def _check_conditional(h: Hugr, parent: int, op: Conditional) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    children = h.children(parent)
    cases = []
    for c in children:
        if isinstance(h.op(c), Case):
            cases.append(c)
        else:
            diags.append(Diagnostic(Code.BadChildKind, c, None,
                                    "conditionals may only contain cases"))
    if len(cases) != op.cardinality:
        diags.append(Diagnostic(Code.CaseArityMismatch, parent, None,
                                f"discriminant has {op.cardinality} tags but {len(cases)} cases"))
    return diags


# ── CFGs ───────────────────────────────────────────────────────────

def _check_cfg(h: Hugr, parent: int, op: Cfg) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    children = h.children(parent)
    blocks = [c for c in children if isinstance(h.op(c), BasicBlock)]
    exits = [c for c in children if isinstance(h.op(c), ExitBlock)]
    for c in children:
        if not isinstance(h.op(c), (BasicBlock, ExitBlock)):
            diags.append(Diagnostic(Code.BadChildKind, c, None,
                                    "CFGs may only contain basic blocks and one exit block"))
    if len(exits) != 1:
        diags.append(Diagnostic(Code.CfgShapeError, parent, None,
                                f"CFG needs exactly one exit block, found {len(exits)}"))
    if not children or not isinstance(h.op(children[0]), BasicBlock):
        diags.append(Diagnostic(Code.CfgShapeError, parent, None,
                                "CFG entry (first child) must be a basic block"))
    elif h.op(children[0]).inputs != op.signature.inputs:
        diags.append(Diagnostic(Code.CfgShapeError, children[0], None,
                                "entry block inputs must match the CFG signature"))
    for x in exits:
        if h.op(x).outputs != op.signature.outputs:
            diags.append(Diagnostic(Code.CfgShapeError, x, None,
                                    "exit block outputs must match the CFG signature"))

    for b in blocks:
        bop = h.op(b)
        rows = _region_rows(h, b)
        pass_row = rows[1][1:] if rows is not None and rows[1] else None
        for tag in range(bop.successor_count):
            port = Port(b, Direction.OUT, tag)
            edges = h.edges_at(port)
            if len(edges) != 1:
                diags.append(Diagnostic(Code.CfgShapeError, b, port,
                                        f"successor {tag} needs exactly one control edge, found {len(edges)}"))
                continue
            e = edges[0]
            succ = h._nodes.get(e.dst.node)
            succ_op = succ.op if succ is not None and succ.parent == parent else None
            if not isinstance(e.kind, ControlFlow) \
                    or not isinstance(succ_op, (BasicBlock, ExitBlock)):
                diags.append(Diagnostic(Code.CfgShapeError, b, port,
                                        "control edges must target a sibling block"))
                continue
            expect = succ_op.inputs if isinstance(succ_op, BasicBlock) else succ_op.outputs
            if pass_row is not None and tuple(pass_row) != tuple(expect):
                diags.append(Diagnostic(Code.CfgShapeError, b, port,
                                        f"block passes {list(pass_row)} but successor expects {list(expect)}"))
    return diags
