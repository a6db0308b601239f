"""Independent brute-force oracles the fast implementations are checked against."""

from __future__ import annotations

import heapq
import json
import sys
import warnings
from itertools import permutations
from typing import Any

import numpy as np

from hugr_ir import Direction, Hugr, Port, Registry, Value
from hugr_ir.interp import (
    _EXT_SEMANTICS,
    _NORM_TOL,
    _PROB_TOL,
    EnumValue,
    FnValue,
    ImpossibleOutcome,
    InterpError,
    NonTerminating,
    OutcomeSource,
    QubitCapExceeded,
    QubitValue,
    RtValue,
    Seeded,
    UnboundDecl,
    _scalar,
)
from hugr_ir.ops import (
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
    Static,
    TailLoop,
    instantiate,
    value_signature,
)
from hugr_ir.rewrite import (
    Match,
    MatchStats,
    Pattern,
    RewriteRule,
    _is_convex,
    _op_matches,
    apply,
    fragment_region,
)
from hugr_ir.build import DfBuilder, splice_region
from hugr_ir.graph import Edge, GraphError, in_port, out_port
from hugr_ir.structure import (
    CfgView,
    Frag,
    InvalidInput,
    IrreducibleCfg,
    StructuringError,
    UnsupportedCfg,
    _Block,
    _block_rows,
    _Exit,
    _Loop,
    _Run,
    _reduce,
    _Seq,
    _SuperNode,
)
from hugr_ir.serial import (
    _KINDS,
    _OPS,
    FORMAT_VERSION,
    DecodeError,
    _term_key,
    _term_to_kind,
    term_to_op,
)
from hugr_ir.types import (
    BOOL,
    F64,
    EnumType,
    ExtType,
    FunctionType,
    PolySignature,
    Signature,
    Type,
    TypeError_,
    VarType,
    contains_var,
    is_linear,
)
from hugr_ir.validate import Code, Diagnostic


def naive_find_matches(pattern: Pattern, h: Hugr, region: int) -> set[frozenset]:
    """All embeddings by exhaustive assignment; hosts of about 12 nodes max.

    Returns the set of mappings as frozensets of (pattern node, host node).
    """
    ph = pattern.hugr
    inner = pattern.inner_nodes()
    host = [n for n in h.children(region)]
    found: set[frozenset] = set()
    for combo in permutations(host, len(inner)):
        mapping = dict(zip(inner, combo))
        if _check_assignment(pattern, h, region, mapping):
            found.add(frozenset(mapping.items()))
    return found


def _check_assignment(pattern: Pattern, h: Hugr, region: int,
                      mapping: dict[int, int]) -> bool:
    ph = pattern.hugr
    children = ph.children(fragment_region(ph))
    p_input, p_output = children[0], children[1]
    image = set(mapping.values())

    for pn, hn in mapping.items():
        if not _op_matches(ph.op(pn), h.op(hn)):
            return False

    # every pattern edge between inner nodes must exist in the host
    for pn, hn in mapping.items():
        p_node = ph.node(pn)
        for off, edges in enumerate(p_node.out_edges):
            host_pairs = {(e.dst.node, e.dst.offset)
                          for e in h.edges_at(Port(hn, Direction.OUT, off))}
            for e in edges:
                if e.dst.node in mapping:
                    if (mapping[e.dst.node], e.dst.offset) not in host_pairs:
                        return False

    # boundary inputs resolve to one host source each, outside the image
    n_in = len(pattern.boundary().inputs)
    for off in range(n_in):
        sources = set()
        for e in ph.edges_at(Port(p_input, Direction.OUT, off)):
            if e.dst.node not in mapping:
                continue
            host_in = h.edges_at(Port(mapping[e.dst.node], Direction.IN, e.dst.offset))
            if len(host_in) != 1 or host_in[0].src.node in image:
                return False
            sources.add(host_in[0].src)
        if len(sources) > 1:
            return False

    # values escaping the image must be boundary outputs
    exported = set()
    for off in range(len(pattern.boundary().outputs)):
        for e in ph.edges_at(Port(p_output, Direction.IN, off)):
            exported.add((mapping[e.src.node], e.src.offset))
    for pn, hn in mapping.items():
        for off in range(len(ph.node(pn).out_edges)):
            inside_expected = sum(1 for e in ph.edges_at(Port(pn, Direction.OUT, off))
                                  if e.dst.node in mapping)
            host_edges = h.edges_at(Port(hn, Direction.OUT, off))
            inside = sum(1 for e in host_edges if e.dst.node in image)
            outside = [e for e in host_edges if e.dst.node not in image]
            if inside != inside_expected:
                return False
            if outside and (hn, off) not in exported:
                return False

    return _convex(h, region, image)


def _convex(h: Hugr, region: int, image: set[int]) -> bool:
    # can any value path leave the image and come back?
    def successors(n: int) -> list[int]:
        out = []
        for edges in h.node(n).out_edges:
            for e in edges:
                if isinstance(e.kind, Value) and h.parent(e.dst.node) == region:
                    out.append(e.dst.node)
        return out

    for start in image:
        frontier = [s for s in successors(start) if s not in image]
        seen = set(frontier)
        while frontier:
            n = frontier.pop()
            for s in successors(n):
                if s in image:
                    return False
                if s not in seen:
                    seen.add(s)
                    frontier.append(s)
    return True


# ── full-rescan saturation ─────────────────────────────────────────

def _naive_dataflow_regions(h: Hugr) -> list[int]:

    out = []
    for n in h.preorder():
        if isinstance(h.op(n), (FuncDef, Case, TailLoop, BasicBlock)):
            out.append(n)
    return out


def naive_saturate(rules: list[RewriteRule], h: Hugr, budget: int,
                   registry: Registry) -> tuple[Hugr, list[tuple[str, int]]]:
    """Repeatedly apply the first matching rule (rule order, then leftmost
    anchor) until fixpoint or ``budget`` applications.

    The full-rescan saturation the worklist in ``hugr_ir.rewrite.saturate``
    replaced, kept with its matcher as the reference for its pick order.
    """
    applied: list[tuple[str, int]] = []
    regions = _naive_dataflow_regions(h)
    # per-region index from op to candidate anchors, rebuilt when dirty
    index: dict[int, dict] = {}

    def region_index(region: int) -> dict:
        if region not in index:
            by_op: dict = {}
            for n in sorted(h.children(region)):
                by_op.setdefault(h.op(n), []).append(n)
            index[region] = by_op
        return index[region]

    while len(applied) < budget:
        hit = None
        for rule in rules:
            anchor_op = rule.lhs.hugr.op(rule.lhs.anchor)
            for region in regions:
                if region not in h:
                    continue
                candidates = region_index(region).get(anchor_op)
                if not candidates:
                    continue
                for m in _naive_iter_matches(rule.lhs, h, region, anchors=candidates):
                    hit = (rule, m)
                    break
                if hit:
                    break
            if hit:
                break
        if hit is None:
            break
        rule, m = hit
        apply(rule, m, h, registry)
        applied.append((rule.name, m.anchor_host()))
        index.pop(m.region, None)
        regions = _naive_dataflow_regions(h)
        index = {r: ix for r, ix in index.items() if r in h}
    return h, applied


def _naive_iter_matches(pattern: Pattern, h: Hugr, region: int,
                        stats: MatchStats | None = None,
                        anchors: list[int] | None = None):
    anchor_op = pattern.hugr.op(pattern.anchor)
    steps = _naive_match_program(pattern)

    if anchors is None:
        anchors = [n for n in sorted(h.children(region))
                   if _op_matches(anchor_op, h.op(n))]
    for anchor_host in anchors:
        if stats:
            stats.anchors_tried += 1
        mapping = {pattern.anchor: anchor_host}
        used = {anchor_host}
        yield from _naive_extend(pattern, h, region, steps, 0, mapping, used, stats)


def _naive_match_program(pattern: Pattern) -> list[tuple]:
    """Deterministic frontier steps: (known node, its port, peer node, peer port).

    BFS from the anchor; at each mapped node, ports are visited outgoing
    first, offsets ascending, edges in insertion order.
    """
    ph = pattern.hugr
    inner = set(pattern.inner_nodes())
    steps: list[tuple] = []
    seen = {pattern.anchor}
    queue = [pattern.anchor]
    while queue:
        n = queue.pop(0)
        nd = ph.node(n)
        for off, edges in enumerate(nd.out_edges):
            for e in edges:
                if isinstance(e.kind, Value) and e.dst.node in inner and e.dst.node not in seen:
                    seen.add(e.dst.node)
                    steps.append((n, Port(n, Direction.OUT, off), e.dst.node, e.dst))
                    queue.append(e.dst.node)
        for off, edges in enumerate(nd.in_edges):
            for e in edges:
                if isinstance(e.kind, Value) and e.src.node in inner and e.src.node not in seen:
                    seen.add(e.src.node)
                    steps.append((n, Port(n, Direction.IN, off), e.src.node, e.src))
                    queue.append(e.src.node)
    return steps


def _naive_extend(pattern, h, region, steps, depth, mapping, used, stats):
    if depth == len(steps):
        m = _naive_finalise(pattern, h, region, mapping)
        if m is not None:
            yield m
        return
    p_known, p_port, p_peer, p_peer_port = steps[depth]
    host_node = mapping[p_known]
    host_port = Port(host_node, p_port.direction, p_port.offset)
    if stats:
        stats.frontier_steps += 1
    peer_op = pattern.hugr.op(p_peer)
    for cand in h.neighbours(host_port):
        if stats:
            stats.candidates_explored += 1
        if cand.offset != p_peer_port.offset:
            continue
        c_node = cand.node
        if c_node in used or h.parent(c_node) != region:
            continue
        if not _op_matches(peer_op, h.op(c_node)):
            continue
        mapping[p_peer] = c_node
        used.add(c_node)
        yield from _naive_extend(pattern, h, region, steps, depth + 1, mapping, used, stats)
        del mapping[p_peer]
        used.remove(c_node)


def _naive_finalise(pattern: Pattern, h: Hugr, region: int,
                    mapping: dict[int, int]) -> Match | None:
    ph = pattern.hugr
    children = ph.children(fragment_region(ph))
    p_input, p_output = children[0], children[1]
    image = set(mapping.values())

    # interior edges must all exist with identical ports and types
    for pn, hn in mapping.items():
        for off, edges in enumerate(ph.node(pn).out_edges):
            host_edges = h.edges_at(Port(hn, Direction.OUT, off))
            host_pairs = {(e.dst.node, e.dst.offset) for e in host_edges}
            for e in edges:
                if e.dst.node in mapping:
                    if (mapping[e.dst.node], e.dst.offset) not in host_pairs:
                        return None

    # boundary inputs: consistent host sources outside the image
    n_in = len(pattern.boundary().inputs)
    sources: list[Port | None] = [None] * n_in
    for off in range(n_in):
        for e in ph.edges_at(Port(p_input, Direction.OUT, off)):
            if e.dst.node not in mapping:
                continue
            host_in = h.edges_at(Port(mapping[e.dst.node], Direction.IN, e.dst.offset))
            if len(host_in) != 1:
                return None
            s = host_in[0].src
            if s.node in image:
                return None
            if sources[off] is not None and sources[off] != s:
                return None
            sources[off] = s
    if any(s is None for s in sources):
        return None

    # escapes: host edges leaving the image require a boundary output port
    exported: set[tuple[int, int]] = set()
    for off in range(len(pattern.boundary().outputs)):
        for e in ph.edges_at(Port(p_output, Direction.IN, off)):
            exported.add((mapping[e.src.node], e.src.offset))
    for pn, hn in mapping.items():
        for off in range(len(ph.node(pn).out_edges)):
            p_targets_inside = sum(
                1 for e in ph.edges_at(Port(pn, Direction.OUT, off)) if e.dst.node in mapping)
            host_edges = h.edges_at(Port(hn, Direction.OUT, off))
            outside = [e for e in host_edges if e.dst.node not in image]
            inside = [e for e in host_edges if e.dst.node in image]
            if len(inside) != p_targets_inside:
                return None
            if outside and (hn, off) not in exported:
                return None

    if not _is_convex(h, region, image):
        return None
    return Match(pattern, region, dict(mapping), tuple(sources))


# ── structuring before the incremental fold ────────────────────────
#
# ``naive_is_reducible``, ``naive_reduce``, ``_naive_needs_dispatch``,
# ``_naive_emit`` and ``naive_structure_cfg`` / ``naive_structure_all`` are the
# two full-rescan T1/T2 loops and the recursive emission, kept verbatim apart
# from their names and the fragment fields: blocks carry the identity retag
# (one successor per tag, repeated targets included), and a loop's repeat tags
# are the ``None`` entries of its retag. Each fold rescans every supernode's
# predecessors. The emission builds every successor-tag map as a conditional of
# its own, and ``_naive_sweep_dead_consts`` is the sweep of that time: every
# unused constant in the CFG's parent region goes, the input's own included.


def naive_is_reducible(view: CfgView) -> bool:
    """True iff iterative T1/T2 reduction collapses the graph to one node."""
    succ = {b: [s for s in ss] for b, ss in view.succ.items()}
    changed = True
    while changed:
        changed = False
        for b in sorted(succ):
            if b in succ[b]:  # T1
                succ[b] = [s for s in succ[b] if s != b]
                changed = True
        for s in sorted(succ):
            if s == view.entry:
                continue
            preds = {p for p in succ if s in succ[p]}
            if len(preds) == 1:  # T2
                (p,) = preds
                merged: list[int] = []
                for t in succ[p]:
                    if t == s:
                        merged.extend(succ[s])
                    else:
                        merged.append(t)
                # dedup, order-preserving
                succ[p] = list(dict.fromkeys(merged))
                del succ[s]
                changed = True
                break
    return len(succ) == 1


def naive_reduce(view: CfgView) -> Frag:
    nodes: dict[int, _SuperNode] = {
        b: _SuperNode(_Block(b, len(view.succ[b]), tuple(range(len(view.succ[b])))),
                      list(view.succ[b]))
        for b in view.succ
    }
    exit_ = view.exit

    def fold_self_loops() -> bool:
        for sid in sorted(nodes):
            sn = nodes[sid]
            repeat = frozenset(j for j, t in enumerate(sn.succs) if t == sid)
            if not repeat:
                continue
            remaining = [t for j, t in enumerate(sn.succs) if j not in repeat]
            targets = list(dict.fromkeys(remaining))
            if not targets:
                raise UnsupportedCfg(f"block {sid} loops forever with no exit")
            retag = []
            for j, t in enumerate(sn.succs):
                retag.append(None if j in repeat else targets.index(t))
            sn.frag = _Loop(sn.frag, tuple(retag), len(targets))
            sn.succs = targets
            return True
        return False

    def merge_unique_pred() -> bool:
        for sid in sorted(nodes):
            if sid == view.entry:
                continue
            preds = {p for p, pn in nodes.items() if sid in pn.succs}
            if len(preds) != 1 or sid in preds:
                continue
            (pid,) = preds
            p, s = nodes[pid], nodes[sid]
            merged: list[int] = []
            for t in p.succs:
                if t == sid:
                    merged.extend(s.succs)
                else:
                    merged.append(t)
            targets = list(dict.fromkeys(merged))
            cases: list = []
            for t in p.succs:
                if t == sid:
                    cases.append(_Run(s.frag, tuple(targets.index(x) for x in s.succs)))
                else:
                    cases.append(_Exit(targets.index(t)))
            p.frag = _Seq(p.frag, tuple(cases), len(targets))
            p.succs = targets
            del nodes[sid]
            return True
        return False

    while True:
        if fold_self_loops():
            continue
        if merge_unique_pred():
            continue
        break

    if len(nodes) != 1 or set(nodes[view.entry].succs) != {exit_}:
        raise IrreducibleCfg(
            "control flow is irreducible (a cycle with multiple entries)")
    return nodes[view.entry].frag


def _naive_emit(frag: Frag, b: DfBuilder, src: Hugr, wires, row: tuple[Type, ...]):
    """Build ``frag`` into builder ``b``; returns (tag wire, value wires)."""
    if isinstance(frag, _Block):
        # a block tag per successor: the old fold's fragments, or distinct successors
        assert frag.retag == tuple(range(frag.arity)), frag
        outs = splice_region(b, src, frag.block, tuple(wires))
        return outs[0], tuple(outs[1:])

    if isinstance(frag, _Seq):
        tag, vals = _naive_emit(frag.first, b, src, wires, row)
        if frag.first.arity == 1:
            # no dispatch needed: run the single continuation in sequence
            case = frag.cases[0]
            if isinstance(case, _Exit):
                return b.tag_const(case.tag, frag.arity), vals
            t2, vals2 = _naive_emit(case.frag, b, src, vals, row)
            if case.retag == tuple(range(frag.arity)):
                return t2, vals2
            tag, vals = t2, vals2
            remap, cases = b.conditional(tag, vals, (EnumType(frag.arity),) + row)
            for jj, icb in enumerate(cases):
                icb.set_outputs(icb.tag_const(case.retag[jj], frag.arity), *icb.inputs())
            return remap[0], tuple(remap[1:])
        out_row = (EnumType(frag.arity),) + row
        cond_outs, cases = b.conditional(tag, vals, out_row)
        for j, case in enumerate(frag.cases):
            cb = cases[j]
            ins = cb.inputs()
            if isinstance(case, _Exit):
                cb.set_outputs(cb.tag_const(case.tag, frag.arity), *ins)
            else:
                t2, vals2 = _naive_emit(case.frag, cb, src, ins, row)
                inner_outs, inner_cases = cb.conditional(t2, vals2, out_row)
                for jj, icb in enumerate(inner_cases):
                    icb.set_outputs(icb.tag_const(case.retag[jj], frag.arity),
                                    *icb.inputs())
                cb.set_outputs(*inner_outs)
        return cond_outs[0], tuple(cond_outs[1:])

    if isinstance(frag, _Loop):
        seed = b.tag_const(0, frag.arity)
        loop_outs, body = b.tail_loop((seed,) + tuple(wires))
        ins = body.inputs()  # (previous tag, row...); the tag is discarded
        tag, vals = _naive_emit(frag.body, body, src, ins[1:], row)
        out_row = (BOOL, EnumType(frag.arity)) + row
        cond_outs, cases = body.conditional(tag, vals, out_row)
        for j, cb in enumerate(cases):
            cins = cb.inputs()
            if frag.retag[j] is None:
                cb.set_outputs(cb.bool_const(False), cb.tag_const(0, frag.arity), *cins)
            else:
                cb.set_outputs(cb.bool_const(True),
                               cb.tag_const(frag.retag[j], frag.arity), *cins)
        body.set_outputs(*cond_outs)
        return loop_outs[0], tuple(loop_outs[1:])

    raise AssertionError(frag)


def _naive_sweep_dead_consts(h: Hugr, region: int) -> None:
    while dead := [n for n in h.node(region).children
                   if isinstance(h.op(n), (LoadConst, Const)) and not any(h.node(n).out_edges)]:
        for n in dead:
            h.remove_node(n)


def _naive_needs_dispatch(frag: Frag) -> bool:
    """True when materialising builds a conditional or a loop."""
    if isinstance(frag, _Block):
        return False
    if isinstance(frag, _Loop):
        return True
    if frag.first.arity > 1 or _naive_needs_dispatch(frag.first):
        return True
    case = frag.cases[0]
    if isinstance(case, _Exit):
        return False
    if case.retag != tuple(range(frag.arity)):
        return True
    return _naive_needs_dispatch(case.frag)


def naive_structure_cfg(h: Hugr, cfg: int, registry: Registry) -> Hugr:
    """Replace ``cfg`` in place by an equivalent structured subgraph."""
    from hugr_ir.validate import validate

    op = h.op(cfg)
    if not isinstance(op, Cfg):
        raise InvalidInput(f"node {cfg} is not a CFG")
    inside = set(h.preorder(cfg))
    bad = [d for d in validate(h, registry) if d.node in inside]
    if bad:
        raise InvalidInput(f"CFG does not validate: {bad[0].render()}")

    view = CfgView.of(h, cfg)
    frag = naive_reduce(view)
    row = op.signature.inputs
    if _naive_needs_dispatch(frag):
        # payload-free successor tags force one common value row at dispatches
        if op.signature.outputs != row:
            raise UnsupportedCfg("branching CFGs must preserve their value row")
        for b in view.succ:
            rows = _block_rows(h, b)
            if rows != (row, row):
                raise UnsupportedCfg(
                    f"block {b} is not row-preserving: {rows[0]} -> {rows[1]}")

    parent = h.parent(cfg)
    builder = DfBuilder.attach(h, parent, registry)
    in_wires = tuple(h.neighbours(in_port(cfg, i))[0]
                     for i in range(len(op.signature.inputs)))
    consumers = [list(h.neighbours(out_port(cfg, i)))
                 for i in range(len(op.signature.outputs))]

    _, out_wires = _naive_emit(frag, builder, h, in_wires, row)

    h.remove_node(cfg)
    for i, wire in enumerate(out_wires):
        for dst in consumers[i]:
            builder.connect(wire, dst)
    _naive_sweep_dead_consts(h, parent)

    from hugr_ir.validate import validate_region

    diags = validate_region(h, parent, registry)
    if diags:
        raise StructuringError(f"structuring produced an invalid region: {diags[0].render()}")
    return h


def naive_structure_all(h: Hugr, registry: Registry) -> Hugr:
    """Structure every CFG node, innermost first."""
    while True:
        cfgs = [n for n in h.preorder() if isinstance(h.op(n), Cfg)]
        if not cfgs:
            return h
        # innermost last in preorder within a branch; process deepest first
        deepest = max(cfgs, key=lambda n: _depth(h, n))
        naive_structure_cfg(h, deepest, registry)


def _depth(h: Hugr, n: int) -> int:
    d = 0
    p = h.parent(n)
    while p is not None:
        d += 1
        p = h.parent(p)
    return d


# ── structuring with one whole-graph validation per CFG ────────────
#
# ``revalidating_structure_cfg`` / ``revalidating_structure_all`` are the
# drivers before ``structure_all`` validated once and each structuring checked
# only the nodes it touched, kept verbatim apart from their names, with the
# emission (``_naive_emit`` builds the same bytes) and the dead-constant sweep
# of that time. Every CFG validates the whole graph and its parent region
# afterwards, and each round re-collects the CFGs with a full preorder.


def _revalidating_sweep_dead_consts(h: Hugr, region: int) -> None:
    changed = True
    while changed:
        changed = False
        for n in list(h.children(region)):
            op = h.op(n)
            if isinstance(op, (LoadConst, Const)):
                nd = h.node(n)
                if all(not edges for edges in nd.out_edges):
                    h.remove_node(n)
                    changed = True


def revalidating_structure_cfg(h: Hugr, cfg: int, registry: Registry) -> Hugr:
    """Replace ``cfg`` in place by an equivalent structured subgraph."""
    from hugr_ir.validate import validate, validate_region

    op = h.op(cfg)
    if not isinstance(op, Cfg):
        raise InvalidInput(f"node {cfg} is not a CFG")
    diags = validate(h, registry)
    inside = set(h.preorder(cfg))
    bad = [d for d in diags if d.node in inside]
    if bad:
        raise InvalidInput(f"CFG does not validate: {bad[0].render()}")
    parent = h.parent(cfg)  # the check after structuring sees all of its region
    around = {parent, *h.node(parent).children}
    bad = [d for d in diags if d.node in around]
    if bad:
        raise InvalidInput(f"region {parent} around the CFG does not validate: {bad[0].render()}")

    view = CfgView.of(h, cfg)
    folded = _reduce(view)
    row = op.signature.inputs
    if folded.depth:
        # payload-free successor tags force one common value row at dispatches
        if op.signature.outputs != row:
            raise UnsupportedCfg("branching CFGs must preserve their value row")
        for b in view.succ:
            rows = _block_rows(h, b)
            if rows != (row, row):
                raise UnsupportedCfg(
                    f"block {b} is not row-preserving: {rows[0]} -> {rows[1]}")
    # _emit recurses once per nesting level at most; keep clear of the limit
    limit = sys.getrecursionlimit() // 2
    if folded.depth > limit:
        raise UnsupportedCfg(
            f"control flow nests {folded.depth} deep, over the limit of {limit}")

    builder = DfBuilder.attach(h, parent, registry)
    in_wires = tuple(h.neighbours(in_port(cfg, i))[0]
                     for i in range(len(op.signature.inputs)))
    consumers = [list(h.neighbours(out_port(cfg, i)))
                 for i in range(len(op.signature.outputs))]

    _, out_wires = _naive_emit(folded.frag, builder, h, in_wires, row)

    h.remove_node(cfg)
    for i, wire in enumerate(out_wires):
        for dst in consumers[i]:
            builder.connect(wire, dst)
    _revalidating_sweep_dead_consts(h, parent)
    diags = validate_region(h, parent, registry)
    if diags:
        raise StructuringError(f"structuring produced an invalid region: {diags[0].render()}")
    return h


def revalidating_structure_all(h: Hugr, registry: Registry) -> Hugr:
    """Structure every CFG node, innermost first."""
    while True:
        cfgs = [n for n in h.preorder() if isinstance(h.op(n), Cfg)]
        if not cfgs:
            return h
        # innermost last in preorder within a branch; process deepest first
        deepest = max(cfgs, key=lambda n: _depth(h, n))
        revalidating_structure_cfg(h, deepest, registry)


# ── the evaluator before region schedules and reshape-view kernels ──
#
# ``NaiveQuantumState`` and ``NaiveInterpreter`` are the tensordot kernels and
# the per-run ready-heap evaluator, kept verbatim apart from their names. The
# evaluator derives its execution order afresh on every region execution.


class NaiveQuantumState:
    """Dense statevector over the currently live qubits."""

    def __init__(self, cap: int = 10):
        self.cap = cap
        self.amps = np.ones(1, dtype=complex)
        self._axes: dict[int, int] = {}  # token -> tensor axis
        self._next_token = 0

    @property
    def num_qubits(self) -> int:
        return len(self._axes)

    def _tensor(self) -> np.ndarray:
        return self.amps.reshape([2] * self.num_qubits) if self.num_qubits else self.amps

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

    def _renew(self, q: QubitValue) -> QubitValue:
        # consume the old token, mint a fresh handle on the same axis
        axis = self._axes.pop(q.token)
        token = self._next_token
        self._next_token += 1
        self._axes[token] = axis
        return QubitValue(token)

    def apply1(self, q: QubitValue, u: np.ndarray) -> QubitValue:
        axis = self._axis(q)
        if self.num_qubits == 1:
            self.amps = u @ self.amps
        else:
            t = np.tensordot(u, self._tensor(), axes=([1], [axis]))
            self.amps = np.moveaxis(t, 0, axis).reshape(-1)
        self._check_norm()
        return self._renew(q)

    def apply2(self, q0: QubitValue, q1: QubitValue, u4: np.ndarray
               ) -> tuple[QubitValue, QubitValue]:
        a0, a1 = self._axis(q0), self._axis(q1)
        if a0 == a1:
            raise InterpError("two-qubit gate applied to one qubit twice")
        n = self.num_qubits
        t = self._tensor()
        u = u4.reshape(2, 2, 2, 2)
        t = np.tensordot(u, t, axes=([2, 3], [a0, a1]))
        t = np.moveaxis(t, [0, 1], [a0, a1])
        self.amps = t.reshape(-1)
        self._check_norm()
        return self._renew(q0), self._renew(q1)

    def probability_one(self, q: QubitValue) -> float:
        axis = self._axis(q)
        if self.num_qubits == 1:
            return float(abs(self.amps[1]) ** 2)
        t = self._tensor()
        marginal = np.sum(np.abs(t) ** 2, axis=tuple(i for i in range(self.num_qubits) if i != axis))
        return float(marginal[1])

    def measure(self, q: QubitValue, source: OutcomeSource) -> tuple[QubitValue, bool]:
        axis = self._axis(q)
        p1 = self.probability_one(q)
        outcome = source.next_outcome(p1)
        p = p1 if outcome else 1.0 - p1
        if p < _PROB_TOL:
            raise ImpossibleOutcome(f"scripted outcome {outcome} has probability {p:.3g}")
        t = self._tensor().copy()
        idx = [slice(None)] * self.num_qubits
        idx[axis] = 0 if outcome else 1
        t[tuple(idx)] = 0.0
        self.amps = (t / np.sqrt(p)).reshape(-1)
        self._check_norm()
        return self._renew(q), outcome

    def free(self, q: QubitValue) -> None:
        axis = self._axis(q)
        t = np.moveaxis(self._tensor(), axis, 0)
        s0, s1 = t[0].reshape(-1), t[1].reshape(-1)
        n0, n1 = np.linalg.norm(s0), np.linalg.norm(s1)
        if n1 < _NORM_TOL:
            rest = s0
        elif n0 < _NORM_TOL:
            rest = s1
        else:
            # separable iff the two slices are proportional
            overlap = abs(np.vdot(s0, s1)) / (n0 * n1)
            if abs(overlap - 1.0) > 1e-7:
                raise InterpError("cannot free an entangled qubit")
            rest = s0
        rest = rest / np.linalg.norm(rest)
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
        return np.transpose(self._tensor(), axes).reshape(-1).copy()

    def _check_norm(self) -> None:
        norm2 = float(np.vdot(self.amps, self.amps).real)
        assert abs(norm2 - 1.0) < 2 * _NORM_TOL, f"statevector norm drifted to {norm2 ** 0.5}"


class NaiveInterpreter:
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
        self.state = NaiveQuantumState(qubit_cap)
        self._iterations = 0

    def reset(self) -> None:
        self.state = NaiveQuantumState(self.qubit_cap)
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
        return self._exec_region(node, list(args))

    # region execution ------------------------------------------------

    def _exec_region(self, parent: int, args: list[RtValue]) -> list[RtValue]:
        children = self.h.children(parent)
        input_node, output_node = children[0], children[1]
        values: dict[tuple[int, int], RtValue] = {}
        for i, v in enumerate(args):
            values[(input_node, i)] = v

        dataflow = [c for c in children[2:]
                    if not isinstance(self.h.op(c), (FuncDef, FuncDecl, Const))]
        indeg: dict[int, int] = {}
        for c in dataflow:
            nd = self.h.node(c)
            indeg[c] = sum(1 for edges in nd.in_edges for e in edges
                           if isinstance(e.kind, Value))
        fed: dict[int, int] = {c: 0 for c in dataflow}
        for i in range(len(args)):
            for p in self.h.neighbours(Port(input_node, Direction.OUT, i)):
                if p.node in fed:
                    fed[p.node] += 1

        ready = [c for c in dataflow if fed[c] == indeg[c]]
        heapq.heapify(ready)
        done: set[int] = set()
        while ready:
            n = heapq.heappop(ready)
            if n in done:
                continue
            done.add(n)
            outs = self._exec_node(n, self._gather_inputs(n, values))
            for i, v in enumerate(outs):
                values[(n, i)] = v
            for i in range(len(outs)):
                for p in self.h.neighbours(Port(n, Direction.OUT, i)):
                    if p.node in fed and p.node not in done:
                        fed[p.node] += 1
                        if fed[p.node] == indeg[p.node]:
                            heapq.heappush(ready, p.node)
        return self._gather_inputs(output_node, values)

    def _value_sig(self, n: int) -> Signature:
        return value_signature(self.h.op(n))

    def _gather_inputs(self, n: int, values) -> list[RtValue]:
        nd = self.h.node(n)
        n_in = len(value_signature(nd.op).inputs)
        out: list[RtValue] = []
        for i in range(n_in):
            src = nd.in_edges[i][0].src  # validated: exactly one
            out.append(values[(src.node, src.offset)])
        return out

    def _static_source(self, n: int, offset: int) -> int:
        sources = self.h.neighbours(Port(n, Direction.IN, offset))
        return sources[0].node

    # node execution ----------------------------------------------------

    def _exec_node(self, n: int, invals: list[RtValue]) -> list[RtValue]:
        op = self.h.op(n)
        if isinstance(op, ExtensionOp):
            fn = _EXT_SEMANTICS.get((op.extension, op.name))
            if fn is None:
                raise InterpError(f"no evaluator semantics for {op.extension}.{op.name}")
            return fn(self, op, invals)
        if isinstance(op, Conditional):
            disc = invals[0]
            assert isinstance(disc, EnumValue)
            case = self.h.children(n)[disc.tag]
            return self._exec_region(case, invals[1:])
        if isinstance(op, TailLoop):
            vals = invals
            while True:
                self._tick()
                outs = self._exec_region(n, vals)
                flag = outs[0]
                assert isinstance(flag, EnumValue) and flag.cardinality == 2
                if flag.tag == 1:  # finished
                    return outs[1:]
                vals = outs[1:]
        if isinstance(op, Cfg):
            cur = self.h.children(n)[0]
            vals = invals
            while True:
                cur_op = self.h.op(cur)
                if isinstance(cur_op, ExitBlock):
                    return vals
                self._tick()
                outs = self._exec_region(cur, vals)
                tag = outs[0]
                assert isinstance(tag, EnumValue)
                succ = self.h.neighbours(Port(cur, Direction.OUT, tag.tag))
                cur = succ[0].node
                vals = outs[1:]
        if isinstance(op, Call):
            sig = self._value_sig(n)
            target = self._static_source(n, len(sig.inputs))
            target_op = self.h.op(target)
            if isinstance(target_op, FuncDef):
                return self._exec_region(target, invals)
            return self._call_stub(target_op.name, invals)
        if isinstance(op, LoadFunction):
            target = self._static_source(n, 0)
            return [FnValue(target, instantiate(op.scheme, op.type_args))]
        if isinstance(op, LoadConst):
            target = self._static_source(n, 0)
            const = self.h.op(target)
            assert isinstance(const, Const)
            return [_scalar(const.type, const.value)]
        raise InterpError(f"cannot execute op {op!r}")

    def _call_stub(self, name: str, args: list[RtValue]) -> list[RtValue]:
        fn = self.stubs.get(name)
        if fn is None:
            raise UnboundDecl(f"declaration {name!r} has no bound implementation")
        return list(fn(self, args))

    def _tick(self) -> None:
        self._iterations += 1
        if self._iterations > self.iteration_cap:
            raise NonTerminating(f"iteration cap {self.iteration_cap} exceeded")


# ── serial: the per-kind encoder and decoder the op-term table replaced ──

def naive_type_to_term(t: Type) -> Any:
    if isinstance(t, ExtType):
        term: dict[str, Any] = {"ext": t.extension, "name": t.name}
        if t.args:
            term["args"] = [naive_type_to_term(a) for a in t.args]
        return term
    if isinstance(t, EnumType):
        return {"enum": t.cardinality}
    if isinstance(t, FunctionType):
        return {"fn": {"inputs": [naive_type_to_term(x) for x in t.signature.inputs],
                       "outputs": [naive_type_to_term(x) for x in t.signature.outputs]}}
    if isinstance(t, VarType):
        return {"var": t.index}
    raise DecodeError(f"unserialisable type {t!r}")


def naive_term_to_type(term: Any) -> Type:
    if not isinstance(term, dict):
        raise DecodeError(f"malformed type term {term!r}")
    if "ext" in term:
        args = tuple(naive_term_to_type(a) for a in term.get("args", []))
        return ExtType(term["ext"], term["name"], args)
    if "enum" in term:
        return EnumType(int(term["enum"]))
    if "fn" in term:
        fn = term["fn"]
        return FunctionType(Signature(
            tuple(naive_term_to_type(x) for x in fn["inputs"]),
            tuple(naive_term_to_type(x) for x in fn["outputs"])))
    if "var" in term:
        return VarType(int(term["var"]))
    raise DecodeError(f"malformed type term {term!r}")


def naive_scheme_to_term(s: PolySignature) -> Any:
    return {"params": s.param_count,
            "inputs": [naive_type_to_term(t) for t in s.body.inputs],
            "outputs": [naive_type_to_term(t) for t in s.body.outputs]}


def naive_term_to_scheme(term: Any) -> PolySignature:
    try:
        return PolySignature(int(term["params"]), Signature(
            tuple(naive_term_to_type(t) for t in term["inputs"]),
            tuple(naive_term_to_type(t) for t in term["outputs"])))
    except (KeyError, TypeError) as exc:
        raise DecodeError(f"malformed signature scheme {term!r}") from exc


def _naive_sig_to_term(sig: Signature) -> Any:
    return {"inputs": [naive_type_to_term(t) for t in sig.inputs],
            "outputs": [naive_type_to_term(t) for t in sig.outputs]}


def _naive_term_to_sig(term: Any) -> Signature:
    try:
        return Signature(tuple(naive_term_to_type(t) for t in term["inputs"]),
                         tuple(naive_term_to_type(t) for t in term["outputs"]))
    except (KeyError, TypeError) as exc:
        raise DecodeError(f"malformed signature {term!r}") from exc


def _naive_payload_to_term(payload: Type | PolySignature) -> Any:
    if isinstance(payload, PolySignature):
        return naive_scheme_to_term(payload)
    return naive_type_to_term(payload)


def _naive_row(types) -> list[Any]:
    return [naive_type_to_term(t) for t in types]


def naive_op_to_term(op: OpKind) -> Any:
    if isinstance(op, Module):
        return {"kind": "Module"}
    if isinstance(op, FuncDef):
        return {"kind": "FuncDef", "name": op.name, "scheme": naive_scheme_to_term(op.scheme)}
    if isinstance(op, FuncDecl):
        return {"kind": "FuncDecl", "name": op.name, "scheme": naive_scheme_to_term(op.scheme)}
    if isinstance(op, Input):
        return {"kind": "Input", "types": _naive_row(op.types)}
    if isinstance(op, Output):
        return {"kind": "Output", "types": _naive_row(op.types)}
    if isinstance(op, Call):
        term = {"kind": "Call", "scheme": naive_scheme_to_term(op.scheme)}
        if op.type_args:
            term["type_args"] = _naive_row(op.type_args)
        return term
    if isinstance(op, LoadFunction):
        term = {"kind": "LoadFunction", "scheme": naive_scheme_to_term(op.scheme)}
        if op.type_args:
            term["type_args"] = _naive_row(op.type_args)
        return term
    if isinstance(op, Const):
        return {"kind": "Const", "value": op.value, "type": naive_type_to_term(op.type)}
    if isinstance(op, LoadConst):
        return {"kind": "LoadConst", "type": naive_type_to_term(op.type)}
    if isinstance(op, Conditional):
        return {"kind": "Conditional", "cardinality": op.cardinality,
                "inputs": _naive_row(op.other_inputs), "outputs": _naive_row(op.outputs)}
    if isinstance(op, Case):
        return {"kind": "Case"}
    if isinstance(op, TailLoop):
        return {"kind": "TailLoop", "loop_vars": _naive_row(op.loop_vars)}
    if isinstance(op, Cfg):
        return {"kind": "CFG", "inputs": _naive_row(op.signature.inputs),
                "outputs": _naive_row(op.signature.outputs)}
    if isinstance(op, BasicBlock):
        return {"kind": "BasicBlock", "inputs": _naive_row(op.inputs),
                "successors": op.successor_count}
    if isinstance(op, ExitBlock):
        return {"kind": "ExitBlock", "outputs": _naive_row(op.outputs)}
    if isinstance(op, ExtensionOp):
        term = {"kind": "ExtensionOp", "ext": op.extension, "name": op.name,
                "signature": _naive_sig_to_term(op.signature)}
        if op.type_args:
            term["type_args"] = _naive_row(op.type_args)
        return term
    raise DecodeError(f"unserialisable op {op!r}")


def naive_term_to_op(term: Any) -> OpKind:
    if not isinstance(term, dict) or "kind" not in term:
        raise DecodeError(f"malformed op term {term!r}")
    kind = term["kind"]
    try:
        if kind == "Module":
            return Module()
        if kind == "FuncDef":
            return FuncDef(term["name"], naive_term_to_scheme(term["scheme"]))
        if kind == "FuncDecl":
            return FuncDecl(term["name"], naive_term_to_scheme(term["scheme"]))
        if kind == "Input":
            return Input(tuple(naive_term_to_type(t) for t in term["types"]))
        if kind == "Output":
            return Output(tuple(naive_term_to_type(t) for t in term["types"]))
        if kind == "Call":
            return Call(tuple(naive_term_to_type(t) for t in term.get("type_args", [])),
                        naive_term_to_scheme(term["scheme"]))
        if kind == "LoadFunction":
            return LoadFunction(tuple(naive_term_to_type(t) for t in term.get("type_args", [])),
                                naive_term_to_scheme(term["scheme"]))
        if kind == "Const":
            ty = naive_term_to_type(term["type"])
            value = term["value"]
            value = float(value) if ty == F64 else value
            return Const(value, ty)
        if kind == "LoadConst":
            return LoadConst(naive_term_to_type(term["type"]))
        if kind == "Conditional":
            return Conditional(int(term["cardinality"]),
                               tuple(naive_term_to_type(t) for t in term["inputs"]),
                               tuple(naive_term_to_type(t) for t in term["outputs"]))
        if kind == "Case":
            return Case()
        if kind == "TailLoop":
            return TailLoop(tuple(naive_term_to_type(t) for t in term["loop_vars"]))
        if kind == "CFG":
            return Cfg(Signature(tuple(naive_term_to_type(t) for t in term["inputs"]),
                                 tuple(naive_term_to_type(t) for t in term["outputs"])))
        if kind == "BasicBlock":
            return BasicBlock(tuple(naive_term_to_type(t) for t in term["inputs"]),
                              int(term["successors"]))
        if kind == "ExitBlock":
            return ExitBlock(tuple(naive_term_to_type(t) for t in term["outputs"]))
        if kind == "ExtensionOp":
            return ExtensionOp(term["ext"], term["name"],
                               tuple(naive_term_to_type(t) for t in term.get("type_args", [])),
                               _naive_term_to_sig(term["signature"]))
    except (KeyError, TypeError) as exc:
        raise DecodeError(f"malformed {kind} term: {exc}") from exc
    raise DecodeError(f"unknown op kind {kind!r}")


def _naive_collect_extensions(h: Hugr) -> list[str]:
    exts: set[str] = set()

    def from_type(t: Type) -> None:
        if isinstance(t, ExtType):
            exts.add(t.extension)
            for a in t.args:
                from_type(a)
        elif isinstance(t, FunctionType):
            for x in t.signature.inputs + t.signature.outputs:
                from_type(x)

    def from_scheme(s: PolySignature) -> None:
        for t in s.body.inputs + s.body.outputs:
            from_type(t)

    for n in h.preorder():
        op = h.op(n)
        if isinstance(op, ExtensionOp):
            exts.add(op.extension)
            for t in op.type_args:
                from_type(t)
            for t in op.signature.inputs + op.signature.outputs:
                from_type(t)
        elif isinstance(op, (FuncDef, FuncDecl, Call, LoadFunction)):
            from_scheme(op.scheme)
        elif isinstance(op, (Input, Output)):
            for t in op.types:
                from_type(t)
        elif isinstance(op, (Const, LoadConst)):
            from_type(op.type)
        elif isinstance(op, Conditional):
            for t in op.other_inputs + op.outputs:
                from_type(t)
        elif isinstance(op, TailLoop):
            for t in op.loop_vars:
                from_type(t)
        elif isinstance(op, Cfg):
            for t in op.signature.inputs + op.signature.outputs:
                from_type(t)
        elif isinstance(op, BasicBlock):
            for t in op.inputs:
                from_type(t)
        elif isinstance(op, ExitBlock):
            for t in op.outputs:
                from_type(t)
    return sorted(exts)


def naive_to_document(h: Hugr) -> dict[str, Any]:
    """The canonical JSON document for a graph."""
    order = h.preorder()
    idmap = {old: i for i, old in enumerate(order)}
    nodes = []
    for old in order:
        nd = h.node(old)
        nodes.append({
            "id": idmap[old],
            "parent": None if nd.parent is None else idmap[nd.parent],
            "op": naive_op_to_term(nd.op),
        })
    edges = []
    for e in h.all_edges():
        rec: dict[str, Any] = {
            "src": [idmap[e.src.node], e.src.offset],
            "dst": [idmap[e.dst.node], e.dst.offset],
            "kind": type(e.kind).__name__,
        }
        if isinstance(e.kind, Value):
            rec["type"] = naive_type_to_term(e.kind.type)
        elif isinstance(e.kind, Static):
            rec["type"] = _naive_payload_to_term(e.kind.payload)
        edges.append(rec)
    edges.sort(key=lambda r: (r["src"][0], r["src"][1], r["dst"][0], r["dst"][1], r["kind"]))
    return {
        "version": FORMAT_VERSION,
        "extensions_required": _naive_collect_extensions(h),
        "nodes": nodes,
        "edges": edges,
    }


def naive_encode(h: Hugr) -> str:
    return json.dumps(naive_to_document(h), separators=(",", ":"))


def naive_encode_rule(rule) -> str:
    """Serialize a rewrite rule (lhs/rhs fragments, anchor, name)."""
    lhs_doc = naive_to_document(rule.lhs.hugr)
    order = rule.lhs.hugr.preorder()
    idmap = {old: i for i, old in enumerate(order)}
    doc = {
        "name": rule.name,
        "anchor": idmap[rule.lhs.anchor],
        "lhs": lhs_doc,
        "rhs": naive_to_document(rule.rhs),
    }
    return json.dumps(doc, separators=(",", ":"))


# ── serial: the decoder before the bulk build and strict integers ──
#
# ``naive_from_document`` is the graph reader that built the hierarchy with
# one ``add_node`` per node, coerced record integers with ``int`` and
# consulted only the process-wide term memo; it is kept verbatim apart from
# its name. Its op and edge-kind readers are the current ones.

def naive_from_document(doc: Any) -> tuple[Hugr, dict[int, int]]:
    if not isinstance(doc, dict):
        raise DecodeError("document must be a JSON object")
    known = {"version", "extensions_required", "nodes", "edges"}
    for key in doc:
        if key not in known:
            warnings.warn(f"ignoring unknown document field {key!r}", stacklevel=2)
    if doc.get("version") != FORMAT_VERSION:
        raise DecodeError(f"unsupported format version {doc.get('version')!r}")
    try:
        node_recs = list(doc["nodes"])
        edge_recs = list(doc["edges"])
    except (KeyError, TypeError) as exc:
        raise DecodeError(f"document is missing nodes/edges: {exc}") from exc

    by_id: dict[int, OpKind] = {}
    children: dict[int | None, list[int]] = {}
    for i, rec in enumerate(node_recs):
        try:
            nid, parent, term = int(rec["id"]), rec["parent"], rec["op"]
            if parent is not None:
                parent = int(parent)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DecodeError(f"nodes[{i}]: malformed node record {rec!r}") from exc
        if nid in by_id:
            raise DecodeError(f"nodes[{i}]: duplicate node id {nid}")
        try:
            key = _term_key(term)
            op = _OPS.get(key)
            if op is None:
                op = _OPS[key] = term_to_op(term)
            # a valid block has a control edge, and so a port, per successor
            if isinstance(op, BasicBlock) and op.successor_count > len(edge_recs):
                raise DecodeError(f"{op.successor_count} successors but "
                                  f"{len(edge_recs)} edges in the document")
        except DecodeError as exc:
            raise DecodeError(f"nodes[{i}].op: {exc}") from exc
        by_id[nid] = op
        children.setdefault(parent, []).append(nid)

    roots = children.get(None, [])
    if len(roots) != 1:
        raise DecodeError(f"document must have exactly one root node, found {len(roots)}")
    for parent in children:
        if parent is not None and parent not in by_id:
            raise DecodeError(f"node references unknown parent {parent}")

    h = Hugr(by_id[roots[0]])
    idmap = {roots[0]: h.root}
    stack = [(c, h.root) for c in reversed(children.get(roots[0], []))]
    while stack:
        nid, parent = stack.pop()
        new = h.add_node(by_id[nid], parent)
        idmap[nid] = new
        stack.extend((c, new) for c in reversed(children.get(nid, [])))
    if len(idmap) != len(by_id):
        raise DecodeError("hierarchy contains unreachable nodes (parent cycle?)")

    for i, rec in enumerate(edge_recs):
        try:
            (sn, so), (dn, do) = rec["src"], rec["dst"]
            sn, so, dn, do = int(sn), int(so), int(dn), int(do)
            name, term = rec["kind"], rec.get("type")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DecodeError(f"edges[{i}]: malformed edge record {rec!r}") from exc
        if sn not in idmap or dn not in idmap:
            raise DecodeError(f"edges[{i}]: edge references unknown node in {rec!r}")
        try:
            key = _term_key((name, term))
            kind = _KINDS.get(key)
            if kind is None:
                kind = _KINDS[key] = _term_to_kind(name, term)
        except DecodeError as exc:
            raise DecodeError(f"edges[{i}].type: {exc}") from exc
        try:
            h.connect(Port(idmap[sn], Direction.OUT, so), Port(idmap[dn], Direction.IN, do), kind)
        except GraphError as exc:
            raise DecodeError(f"edges[{i}]: cannot connect {rec!r}: {exc}") from exc
    return h, idmap


# ── validation before per-op port facts ───────────────────────────
#
# ``naive_validate`` and ``naive_validate_region`` are the checks that
# recompute each port's linearity per node, build a ``Port`` per value
# output, and walk the hierarchy twice. They are kept verbatim apart from
# their names and one fix: like ``validate``, ``naive_validate`` runs no
# other check on a hierarchy that is not a tree. ``Code`` and
# ``Diagnostic`` are the real ones.

def _naive_sort_key(d: Diagnostic):
    if d.port is None:
        pkey = (-1, -1)
    else:
        pkey = (0 if d.port.direction is Direction.IN else 1, d.port.offset)
    return (d.node, pkey, d.code.value, d.message)


def _naive_finish(diags: list[Diagnostic]) -> list[Diagnostic]:
    return sorted(set(diags), key=_naive_sort_key)


# Ops admissible as direct children of a dataflow region.
_naive_DATAFLOW_CHILDREN = (
    Input, Output, ExtensionOp, Conditional, TailLoop, Cfg,
    Call, LoadFunction, LoadConst, Const, FuncDef, FuncDecl,
)
# Ops that contain a dataflow region (Input/Output pair first).
_naive_DATAFLOW_CONTAINERS = (FuncDef, Case, TailLoop, BasicBlock)
# Ops with no children at all.
_naive_LEAF_OPS = (
    Input, Output, ExtensionOp, Call, LoadFunction, LoadConst, Const,
    FuncDecl, ExitBlock,
)


def naive_validate(h: Hugr, registry: Registry) -> list[Diagnostic]:
    """All diagnostics for the whole graph; empty means valid."""
    diags = _naive_check_hierarchy(h)
    if not diags:  # the other checks follow children lists and parent links
        for n in h.preorder():
            diags.extend(_naive_check_parent(h, n, registry))
    if not isinstance(h.op(h.root), Module):
        diags.append(Diagnostic(Code.NonTreeHierarchy, h.root, None,
                                "root node must be a Module"))
    return _naive_finish(diags)


def naive_validate_region(h: Hugr, parent: int, registry: Registry) -> list[Diagnostic]:
    """Diagnostics restricted to checks local to ``parent``'s own region."""
    return _naive_finish(_naive_check_parent(h, parent, registry))


# ── hierarchy ──────────────────────────────────────────────────────

def _naive_check_hierarchy(h: Hugr) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    seen: set[int] = set()
    stack = [h.root]
    while stack:
        n = stack.pop()
        if n in seen:
            diags.append(Diagnostic(Code.NonTreeHierarchy, n, None,
                                    "node reachable twice from the root"))
            continue
        seen.add(n)
        for c in h.children(n):
            if c not in h:
                diags.append(Diagnostic(Code.NonTreeHierarchy, n, None,
                                        f"child {c} does not exist"))
                continue
            if h.parent(c) != n:
                diags.append(Diagnostic(Code.NonTreeHierarchy, c, None,
                                        "parent link disagrees with children list"))
            stack.append(c)
    for n in h.preorder():
        if n not in seen:
            diags.append(Diagnostic(Code.NonTreeHierarchy, n, None,
                                    "node not reachable from the root"))
    return diags


# ── per-container checks ───────────────────────────────────────────

def _naive_check_parent(h: Hugr, parent: int, registry: Registry) -> list[Diagnostic]:
    op = h.op(parent)
    diags: list[Diagnostic] = []
    children = h.children(parent)

    if isinstance(op, _naive_LEAF_OPS):
        for c in children:
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
        diags.extend(_naive_check_conditional(h, parent, op))
        return diags

    if isinstance(op, Cfg):
        diags.extend(_naive_check_cfg(h, parent, op))
        return diags

    if isinstance(op, _naive_DATAFLOW_CONTAINERS):
        diags.extend(_naive_check_dataflow_region(h, parent, op, registry))
        return diags

    return diags


def _naive_region_rows(h: Hugr, parent: int) -> tuple[tuple[Type, ...], tuple[Type, ...]] | None:
    """(input row, output row) of a dataflow region, if its IO pair exists."""
    children = h.children(parent)
    if len(children) < 2:
        return None
    i_op, o_op = h.op(children[0]), h.op(children[1])
    if not isinstance(i_op, Input) or not isinstance(o_op, Output):
        return None
    return i_op.types, o_op.types


def _naive_expected_rows(h: Hugr, parent: int, op: OpKind):
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


def _naive_check_dataflow_region(h: Hugr, parent: int, op: OpKind,
                           registry: Registry) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    children = h.children(parent)

    rows = _naive_region_rows(h, parent)
    if rows is None:
        diags.append(Diagnostic(Code.MissingIO, parent, None,
                                "dataflow region must start with an Input and an Output node"))
        return diags
    in_row, out_row = rows
    exp_in, exp_out, mismatch_code = _naive_expected_rows(h, parent, op)
    if exp_in is not None and tuple(exp_in) != tuple(in_row):
        diags.append(Diagnostic(mismatch_code, parent, None,
                                f"region inputs {list(in_row)} do not match container {list(exp_in)}"))
    if exp_out is not None and tuple(exp_out) != tuple(out_row):
        diags.append(Diagnostic(mismatch_code, parent, None,
                                f"region outputs {list(out_row)} do not match container {list(exp_out)}"))
    if isinstance(op, BasicBlock):
        if not out_row or out_row[0] != EnumType(op.successor_count):
            diags.append(Diagnostic(Code.CfgShapeError, parent, None,
                                    f"block body must emit enum({op.successor_count}) first"))

    for c in children[2:]:
        if isinstance(h.op(c), (Input, Output)):
            diags.append(Diagnostic(Code.MissingIO, c, None,
                                    "Input/Output must be the first two children"))
        elif not isinstance(h.op(c), _naive_DATAFLOW_CHILDREN):
            diags.append(Diagnostic(Code.BadChildKind, c, None,
                                    f"{type(h.op(c)).__name__} is not a dataflow operation"))

    member = set(children)
    for c in children:
        diags.extend(_naive_check_node_ports(h, c, member, registry))

    diags.extend(_naive_check_dag(h, children, member))
    return diags


def _naive_check_node_ports(h: Hugr, n: int, region: set[int],
                      registry: Registry) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    nd = h.node(n)
    op = nd.op
    ins, outs = nd.rows

    if isinstance(op, ExtensionOp):
        diags.extend(_naive_check_extension_op(n, op, registry))

    for off, kind in enumerate(ins):
        edges = nd.in_edges[off]
        if isinstance(kind, Value):
            if len(edges) != 1:
                diags.append(Diagnostic(Code.InputPortUnwired, n, Port(n, Direction.IN, off),
                                        f"value input needs exactly one edge, found {len(edges)}"))
            for e in edges:
                diags.extend(_naive_check_value_edge(h, e, kind.type, region))
        elif isinstance(kind, Static):
            if len(edges) != 1:
                diags.append(Diagnostic(Code.InputPortUnwired, n, Port(n, Direction.IN, off),
                                        f"static input needs exactly one edge, found {len(edges)}"))
            for e in edges:
                diags.extend(_naive_check_static_edge(h, e, kind))
        else:  # incoming control flow; counted by the CFG owner
            for e in edges:
                if not isinstance(e.kind, ControlFlow):
                    diags.append(Diagnostic(Code.EdgeTypeMismatch, n, Port(n, Direction.IN, off),
                                            "control-flow port carries a non-control edge"))

    for off, kind in enumerate(outs):
        edges = nd.out_edges[off]
        if isinstance(kind, Value):
            port = Port(n, Direction.OUT, off)
            linear = _naive_linearish(kind.type, registry, diags, n, port)
            if linear and len(edges) != 1:
                diags.append(Diagnostic(Code.LinearityViolation, n, port,
                                        f"linear output needs exactly one edge, found {len(edges)}"))
            for e in edges:
                if e.dst.node not in region:
                    diags.append(Diagnostic(Code.EdgeTypeMismatch, n, port,
                                            "value edge leaves its region"))
    return diags


def _naive_linearish(t: Type, registry: Registry, diags: list[Diagnostic],
               n: int, port: Port) -> bool:
    # uninstantiated variables are conservatively linear: sound for every instantiation
    if isinstance(t, VarType) or contains_var(t):
        return True
    try:
        return is_linear(t, registry)
    except TypeError_ as exc:
        diags.append(Diagnostic(Code.UnknownOp, n, port, str(exc)))
        return False


def _naive_check_value_edge(h: Hugr, e: Edge, dst_type: Type,
                      region: set[int]) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    if not isinstance(e.kind, Value):
        diags.append(Diagnostic(Code.EdgeTypeMismatch, e.dst.node, e.dst,
                                f"value port wired with a {type(e.kind).__name__} edge"))
        return diags
    if e.src.node not in region:
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


def _naive_check_static_edge(h: Hugr, e: Edge, expect: Static) -> list[Diagnostic]:
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


def _naive_check_extension_op(n: int, op: ExtensionOp, registry: Registry) -> list[Diagnostic]:
    problems = registry.extop_problems.get(op)
    if problems is None:
        problems = registry.extop_problems[op] = _naive_extension_op_problems(op, registry)
    return [Diagnostic(Code.UnknownOp, n, None, msg) for msg in problems]


def _naive_extension_op_problems(op: ExtensionOp, registry: Registry) -> list[str]:
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


def _naive_check_dag(h: Hugr, children: list[int], member: set[int]) -> list[Diagnostic]:
    indeg = {c: 0 for c in children}
    succs: dict[int, list[int]] = {c: [] for c in children}
    for c in children:
        for edges in h.node(c).out_edges:
            for e in edges:
                if isinstance(e.kind, Value) and e.dst.node in member:
                    succs[c].append(e.dst.node)
                    indeg[e.dst.node] += 1
    ready = sorted(c for c in children if indeg[c] == 0)
    done = 0
    while ready:
        c = ready.pop()
        done += 1
        for s in succs[c]:
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
    if done != len(children):
        stuck = min(c for c in children if indeg[c] > 0)
        return [Diagnostic(Code.DataflowCycle, stuck, None,
                           "value edges form a cycle within the region")]
    return []


# ── conditionals ───────────────────────────────────────────────────

def _naive_check_conditional(h: Hugr, parent: int, op: Conditional) -> list[Diagnostic]:
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

def _naive_check_cfg(h: Hugr, parent: int, op: Cfg) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    children = h.children(parent)
    member = set(children)
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
        rows = _naive_region_rows(h, b)
        pass_row = rows[1][1:] if rows is not None and rows[1] else None
        for tag in range(bop.successor_count):
            port = Port(b, Direction.OUT, tag)
            edges = h.edges_at(port)
            if len(edges) != 1:
                diags.append(Diagnostic(Code.CfgShapeError, b, port,
                                        f"successor {tag} needs exactly one control edge, found {len(edges)}"))
                continue
            e = edges[0]
            if not isinstance(e.kind, ControlFlow) or e.dst.node not in member:
                diags.append(Diagnostic(Code.CfgShapeError, b, port,
                                        "control edges must target a sibling block"))
                continue
            succ_op = h.op(e.dst.node)
            expect = succ_op.inputs if isinstance(succ_op, BasicBlock) else succ_op.outputs
            if pass_row is not None and tuple(pass_row) != tuple(expect):
                diags.append(Diagnostic(Code.CfgShapeError, b, port,
                                        f"block passes {list(pass_row)} but successor expects {list(expect)}"))
    return diags
