"""Convert CFG nodes into structured conditionals and tail loops.

The algorithm is iterative T1/T2 region folding (Hecht & Ullman, *Flow Graph
Reducibility*, 1972). Each basic block becomes a fragment computing
``row -> successor tag + row``; T1 folds a self-loop into a tail loop (a tag
subset means "repeat"), T2 inlines a block into its unique predecessor behind
a conditional dispatch. A reducible graph collapses to a single fragment whose
remaining exits all target the exit block; the fragment is then materialised
in place of the CFG node. Irreducible inputs (a cycle with more than one
entry) are rejected without touching the graph.

The fold order decides the fragment tree, and so the output bytes: while any
supernode has a self-loop, T1 folds the lowest such id; otherwise T2 merges
the lowest non-entry id with exactly one predecessor. The entry is never
merged away.

Blocks must be row-preserving (inputs equal the passed row) whenever any
dispatch or loop needs to be built, because the payload-free successor tags
force every merged path to carry one common value row. Straight-line CFGs
are inlined without that restriction.

:func:`structure_all` validates its input once. Structuring a CFG changes,
and then checks with ``validate_touched``, only the nodes it added and the
CFG's neighbours, so every later CFG still sees the input's diagnostics.
"""

from __future__ import annotations

import heapq
import sys
import warnings
from dataclasses import dataclass

from .build import DfBuilder, splice_region
from .graph import Hugr, in_port, out_port
from .ops import BasicBlock, Cfg, Const, ExitBlock, LoadConst, Registry
from .types import BOOL, EnumType, Type
from .validate import validate_touched


class StructuringError(Exception):
    pass


class IrreducibleCfg(StructuringError):
    """A cycle has more than one entry; node splitting is out of scope."""


class InvalidInput(StructuringError):
    pass


class UnsupportedCfg(StructuringError):
    """Valid but outside the supported shape (non-row-preserving blocks, or
    control flow nested too deep to build)."""


# ── CFG view ───────────────────────────────────────────────────────

@dataclass
class CfgView:
    """Successor structure of one CFG node, unreachable blocks pruned."""

    blocks: list[int]  # reachable basic blocks, entry first
    entry: int
    exit: int
    succ: dict[int, list[int]]  # tag-ordered successors (exit id included)

    @classmethod
    def of(cls, h: Hugr, cfg: int) -> "CfgView":
        children = h.children(cfg)
        if not children or not isinstance(h.op(children[0]), BasicBlock):
            raise InvalidInput("CFG entry (first child) must be a basic block")
        exits = [c for c in children if isinstance(h.op(c), ExitBlock)]
        if len(exits) != 1:
            raise InvalidInput("CFG must have exactly one exit block")
        entry, exit_ = children[0], exits[0]
        succ: dict[int, list[int]] = {}
        for b in children:
            if isinstance(h.op(b), BasicBlock):
                succ[b] = [h.neighbours(out_port(b, tag))[0].node
                           for tag in range(h.op(b).successor_count)]
        reachable = {entry}
        frontier = [entry]
        while frontier:
            b = frontier.pop()
            for s in succ.get(b, []):
                if s != exit_ and s not in reachable:
                    reachable.add(s)
                    frontier.append(s)
        pruned = [b for b in succ if b not in reachable]
        for b in pruned:
            warnings.warn(f"pruning unreachable block {b}", stacklevel=3)
            del succ[b]
        blocks = [b for b in children if b in reachable]
        return cls(blocks, entry, exit_, succ)


def _predecessors(view: CfgView) -> dict[int, set[int]]:
    """Distinct predecessors of every block; the exit block has none listed."""
    preds: dict[int, set[int]] = {b: set() for b in view.succ}
    for b, succs in view.succ.items():
        for s in succs:
            if s != view.exit:
                preds[s].add(b)
    return preds


def dominators(view: CfgView) -> dict[int, int]:
    """Immediate dominators; the entry maps to itself."""
    preds = _predecessors(view)
    # reverse postorder of a depth-first walk taking successors in tag order
    order: list[int] = []
    seen = {view.entry}
    stack = [(view.entry, iter(view.succ[view.entry]))]
    while stack:
        b, succs = stack[-1]
        for s in succs:
            if s != view.exit and s not in seen:
                seen.add(s)
                stack.append((s, iter(view.succ[s])))
                break
        else:
            stack.pop()
            order.append(b)
    rpo = list(reversed(order))
    position = {b: i for i, b in enumerate(rpo)}

    idom: dict[int, int] = {view.entry: view.entry}
    changed = True
    while changed:
        changed = False
        for b in rpo:
            if b == view.entry:
                continue
            candidates = [p for p in preds[b] if p in idom]
            if not candidates:
                continue
            new = candidates[0]
            for p in candidates[1:]:
                new = _intersect(new, p, idom, position)
            if idom.get(b) != new:
                idom[b] = new
                changed = True
    return idom


def _intersect(a: int, b: int, idom: dict[int, int], pos: dict[int, int]) -> int:
    while a != b:
        while pos[a] > pos[b]:
            a = idom[a]
        while pos[b] > pos[a]:
            b = idom[b]
    return a


@dataclass
class LoopCandidate:
    """A natural loop: back edges into a header that dominates the body."""

    header: int
    back_edges: list[tuple[int, int]]
    body: set[int]


def loop_candidates(view: CfgView) -> list[LoopCandidate]:
    idom = dominators(view)

    def dominates(a: int, b: int) -> bool:
        while True:
            if a == b:
                return True
            if b == view.entry:
                return False
            b = idom[b]

    preds = _predecessors(view)
    loops: dict[int, LoopCandidate] = {}
    for b, succs in view.succ.items():
        for s in succs:
            if s != view.exit and dominates(s, b):
                cand = loops.setdefault(s, LoopCandidate(s, [], {s}))
                cand.back_edges.append((b, s))
                # walk predecessors from the latch up to the header
                stack = [b]
                while stack:
                    n = stack.pop()
                    if n in cand.body:
                        continue
                    cand.body.add(n)
                    stack.extend(preds[n])
    return [loops[k] for k in sorted(loops)]


def is_reducible(view: CfgView) -> bool:
    """True iff iterative T1/T2 reduction collapses the graph to one node."""
    return len(_fold(view)[0]) == 1


# ── fragments ──────────────────────────────────────────────────────

@dataclass
class _Block:
    block: int
    arity: int


@dataclass
class _Exit:
    tag: int


@dataclass
class _Run:
    frag: "Frag"
    retag: tuple[int, ...]


@dataclass
class _Seq:
    first: "Frag"
    cases: tuple  # per tag of ``first``: _Exit or _Run
    arity: int


@dataclass
class _Loop:
    body: "Frag"
    repeat: frozenset  # tags of ``body`` that continue the loop
    retag: tuple  # per body tag: None (repeat) or the exit tag
    arity: int


Frag = _Block | _Seq | _Loop


@dataclass
class _SuperNode:
    frag: Frag
    succs: list[int]  # block ids; the exit block id marks leaving the CFG
    # nesting depth of the conditionals and loops ``_emit`` builds for ``frag``;
    # nonzero iff materialising dispatches on a tag
    depth: int = 0


def _fold(view: CfgView) -> tuple[dict[int, _SuperNode], UnsupportedCfg | None]:
    """Apply T1 and T2 until neither applies, in the order the module states.

    Returns the leftover supernodes and the error for the first self-loop
    folded with no way out, if any; folding goes on past it so that
    ``is_reducible`` sees the whole reduction. Predecessor sets are kept up to
    date fold by fold, and two lazy min-heaps hold the ids that may have
    become T1 or T2 candidates since they were last looked at.
    """
    nodes = {b: _SuperNode(_Block(b, len(ss)), list(ss)) for b, ss in view.succ.items()}
    preds = _predecessors(view)
    loops = [b for b in nodes if b in preds[b]]
    unique = [b for b in nodes if len(preds[b]) == 1]
    heapq.heapify(loops)
    heapq.heapify(unique)
    exitless: UnsupportedCfg | None = None
    while True:
        while loops and (loops[0] not in nodes or loops[0] not in preds[loops[0]]):
            heapq.heappop(loops)
        if loops:  # T1
            sid = heapq.heappop(loops)
            sn = nodes[sid]
            targets = list(dict.fromkeys(t for t in sn.succs if t != sid))
            if not targets and exitless is None:
                exitless = UnsupportedCfg(f"block {sid} loops forever with no exit")
            index = {t: i for i, t in enumerate(targets)}
            repeat = frozenset(j for j, t in enumerate(sn.succs) if t == sid)
            retag = tuple(None if t == sid else index[t] for t in sn.succs)
            sn.frag = _Loop(sn.frag, repeat, retag, len(targets))
            sn.succs = targets
            sn.depth = 1 + max(sn.depth, 1)  # the body and the exit conditional
            preds[sid].discard(sid)
            heapq.heappush(unique, sid)
            continue
        while unique and (unique[0] not in nodes or unique[0] == view.entry
                          or len(preds[unique[0]]) != 1):
            heapq.heappop(unique)
        if not unique:
            return nodes, exitless
        sid = heapq.heappop(unique)  # T2: no self-loop is left anywhere
        (pid,) = preds.pop(sid)
        p, s = nodes[pid], nodes.pop(sid)
        merged: list[int] = []
        for t in p.succs:
            if t == sid:
                merged.extend(s.succs)
            else:
                merged.append(t)
        targets = list(dict.fromkeys(merged))
        index = {t: i for i, t in enumerate(targets)}
        run = _Run(s.frag, tuple(index[x] for x in s.succs))
        if len(p.succs) > 1:  # a dispatch; each case retags in a conditional
            p.depth = max(p.depth, 1 + max(s.depth, 1))
        elif run.retag != tuple(range(len(targets))):
            p.depth = max(p.depth, s.depth, 1)
        else:
            p.depth = max(p.depth, s.depth)
        p.frag = _Seq(p.frag, tuple(run if t == sid else _Exit(index[t]) for t in p.succs),
                      len(targets))
        p.succs = targets
        for t in dict.fromkeys(s.succs):
            if t != view.exit:
                preds[t].discard(sid)
                preds[t].add(pid)
                heapq.heappush(unique, t)
        heapq.heappush(loops, pid)
        heapq.heappush(unique, pid)


def _reduce(view: CfgView) -> _SuperNode:
    nodes, exitless = _fold(view)
    if exitless is not None:
        raise exitless
    if len(nodes) != 1 or set(nodes[view.entry].succs) != {view.exit}:
        raise IrreducibleCfg(
            "control flow is irreducible (a cycle with multiple entries)")
    return nodes[view.entry]


# ── materialisation ────────────────────────────────────────────────

def _emit(frag: Frag, b: DfBuilder, src: Hugr, wires, row: tuple[Type, ...]):
    """Build ``frag`` into builder ``b``; returns (tag wire, value wires).

    Fragments that run one after another in ``b`` are taken from a stack;
    only conditional cases and loop bodies recurse, so the recursion is as
    deep as the fold-time ``depth`` at most.
    """
    tag, vals = None, tuple(wires)
    todo: list = [frag]
    while todo:
        f = todo.pop()
        if isinstance(f, _Block):
            outs = splice_region(b, src, f.block, vals)
            tag, vals = outs[0], tuple(outs[1:])
        elif isinstance(f, _Seq):
            if f.first.arity > 1:
                todo.append(("dispatch", f))
            else:  # first's one successor was the merged block: run it next
                (case,) = f.cases
                if case.retag != tuple(range(f.arity)):
                    todo.append(("retag", case.retag, f.arity))
                todo.append(case.frag)
            todo.append(f.first)
        elif isinstance(f, _Loop):
            seed = b.tag_const(0, f.arity)
            loop_outs, body = b.tail_loop((seed,) + vals)
            ins = body.inputs()  # (previous tag, row...); the tag is discarded
            t2, vals2 = _emit(f.body, body, src, ins[1:], row)
            out_row = (BOOL, EnumType(f.arity)) + row
            cond_outs, cases = body.conditional(t2, vals2, out_row)
            for j, cb in enumerate(cases):
                cins = cb.inputs()
                if j in f.repeat:
                    cb.set_outputs(cb.bool_const(False), cb.tag_const(0, f.arity), *cins)
                else:
                    cb.set_outputs(cb.bool_const(True),
                                   cb.tag_const(f.retag[j], f.arity), *cins)
            body.set_outputs(*cond_outs)
            tag, vals = loop_outs[0], tuple(loop_outs[1:])
        elif f[0] == "retag":
            tag, vals = _retag(b, tag, vals, f[1], f[2], row)
        else:  # dispatch on the tag of the _Seq's first fragment
            seq = f[1]
            cond_outs, cases = b.conditional(tag, vals, (EnumType(seq.arity),) + row)
            for case, cb in zip(seq.cases, cases):
                ins = cb.inputs()
                if isinstance(case, _Exit):
                    cb.set_outputs(cb.tag_const(case.tag, seq.arity), *ins)
                else:
                    t2, vals2 = _emit(case.frag, cb, src, ins, row)
                    t2, vals2 = _retag(cb, t2, vals2, case.retag, seq.arity, row)
                    cb.set_outputs(t2, *vals2)
            tag, vals = cond_outs[0], tuple(cond_outs[1:])
    return tag, vals


def _retag(b: DfBuilder, tag, vals, retag: tuple[int, ...], arity: int,
           row: tuple[Type, ...]):
    """Map tag ``j`` to ``retag[j]`` of ``arity`` through a conditional."""
    outs, cases = b.conditional(tag, vals, (EnumType(arity),) + row)
    for j, cb in enumerate(cases):
        cb.set_outputs(cb.tag_const(retag[j], arity), *cb.inputs())
    return outs[0], tuple(outs[1:])


def _sweep_dead_consts(h: Hugr, region: int) -> None:
    while dead := [n for n in h.node(region).children
                   if isinstance(h.op(n), (LoadConst, Const)) and not any(h.node(n).out_edges)]:
        for n in dead:
            h.remove_node(n)


def structure_cfg(h: Hugr, cfg: int, registry: Registry) -> Hugr:
    """Replace ``cfg`` in place by an equivalent structured subgraph."""
    from .validate import validate

    return _structure(h, cfg, registry, validate(h, registry))


def _structure(h: Hugr, cfg: int, registry: Registry, diags: list) -> Hugr:
    """:func:`structure_cfg` given the diagnostics of the graph as it is."""
    op = h.op(cfg)
    if not isinstance(op, Cfg):
        raise InvalidInput(f"node {cfg} is not a CFG")
    parent = h.parent(cfg)
    if diags:  # a fault beside the CFG is the input's, not the structuring's
        inside = set(h.preorder(cfg))
        bad = [d for d in diags if d.node in inside]
        if bad:
            raise InvalidInput(f"CFG does not validate: {bad[0].render()}")
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

    watermark = h._next_id
    _, out_wires = _emit(folded.frag, builder, h, in_wires, row)

    h.remove_node(cfg)
    for i, wire in enumerate(out_wires):
        for dst in consumers[i]:
            builder.connect(wire, dst)
    _sweep_dead_consts(h, parent)
    # a DAG wired only at the CFG's boundary: check it as ``rewrite.apply`` does
    touched = {*range(watermark, h._next_id), *(w.node for w in in_wires),
               *(dst.node for ports in consumers for dst in ports)}
    diags = validate_touched(h, parent, touched, registry)
    if diags:
        raise StructuringError(f"structuring produced an invalid region: {diags[0].render()}")
    return h


def _block_rows(h: Hugr, block: int) -> tuple[tuple[Type, ...], tuple[Type, ...]]:
    children = h.children(block)
    out_types = h.op(children[1]).types
    return h.op(block).inputs, tuple(out_types[1:])


def structure_all(h: Hugr, registry: Registry) -> Hugr:
    """Structure every CFG node, innermost first."""
    from .validate import validate

    walk, stack = [], [h.root]  # reversed, the postorder with siblings left to right
    while stack:
        walk.append(stack.pop())
        stack.extend(h.node(walk[-1]).children)
    cfgs = [n for n in reversed(walk) if isinstance(h.op(n), Cfg)]
    if cfgs:
        diags = validate(h, registry)
        for cfg in cfgs:
            _structure(h, cfg, registry, diags)
    return h
