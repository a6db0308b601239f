"""Convert CFG nodes into structured conditionals and tail loops.

The algorithm is iterative T1/T2 region folding (Hecht & Ullman, *Flow Graph
Reducibility*, 1972). Each basic block becomes a fragment computing
``row -> successor tag + row``; T1 folds a self-loop into a tail loop (the
self edge's index means "repeat"), T2 inlines a block into its unique
predecessor behind a conditional dispatch. A reducible graph collapses to a single fragment whose
remaining exits all target the exit block; the fragment is then materialised
in place of the CFG node. Irreducible inputs (a cycle with more than one
entry) are rejected without touching the graph.

Every supernode starts from its block's distinct successors, and keeps them
distinct: a dispatch has one case per distinct successor, so each reachable
block is spliced exactly once and the output is linear in the reachable
blocks, however many tags share a target and whatever the node ids. A block
maps its own tags onto its distinct successors.

The fold order decides the fragment tree, and so the output bytes: while any
supernode has a self-loop, T1 folds the lowest such id; otherwise T2 merges
the lowest non-entry id with exactly one predecessor. The entry is never
merged away.

Materialising pushes each successor-tag map down to where the tag is made. A
tag of arity 1 is a constant, never a wire, so a block whose tags all go to
one successor needs no tag at all; a dispatch composes the map into its cases,
whose exits become the mapped constants; only a measured block's tag can need
a conditional of its own to map it; and a loop with one exit uses its body's
tag, with 1 for leaving, as the ``TailLoop`` flag. Where a block's own tag
goes unread, the ``LoadConst`` that made it is removed as soon as the block
is spliced, and so is its ``Const`` if nothing else reads it. Nothing else is
removed: a block's other constants stay, used or not.

Blocks must be row-preserving (inputs equal the passed row) whenever any
dispatch or loop needs to be built, because the payload-free successor tags
force every merged path to carry one common value row. Straight-line CFGs,
branches whose tags all go to one block included, are inlined without that
restriction.

Structuring a CFG is one checked replacement (:func:`~hugr_ir.build.replace`,
as ``rewrite.apply`` is): the structured nodes are built beside the CFG, the
CFG's consumers move onto them, the CFG goes, and only the nodes added and
the CFG's neighbours are checked. If the check fails, the graph is restored
exactly and :class:`StructuringError` is raised; an exception from the build
restores it too, so a refused CFG is left as it was. Nothing is removed
after the check. :func:`structure_all` validates its input once, and every
later CFG still sees its diagnostics.
"""

from __future__ import annotations

import heapq
import sys
import warnings
from dataclasses import dataclass

from .build import DfBuilder, replace, splice_region
from .graph import Hugr, Port, in_port, out_port
from .ops import BasicBlock, Cfg, ExitBlock, LoadConst, Registry
from .types import BOOL, EnumType, Type


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
        members = {c for c in children if isinstance(h.op(c), (BasicBlock, ExitBlock))}
        succ: dict[int, list[int]] = {}
        for b in children:
            if isinstance(h.op(b), BasicBlock):
                ports = [h.neighbours(out_port(b, tag)) for tag in range(h.op(b).successor_count)]
                for tag, p in enumerate(ports):
                    if not p or p[0].node not in members:
                        raise InvalidInput(f"block {b} has no successor block on tag {tag}")
                succ[b] = [p[0].node for p in ports]
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


def is_reducible(view: CfgView) -> bool:
    """True iff iterative T1/T2 reduction collapses the graph to one node."""
    return len(_fold(view)[0]) == 1


# ── fragments ──────────────────────────────────────────────────────

@dataclass
class _Block:
    block: int
    arity: int  # distinct successors
    retag: tuple[int, ...]  # per block tag: the index of its successor


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
    cases: tuple  # per successor of ``first``: _Exit or _Run
    arity: int


@dataclass
class _Loop:
    body: "Frag"
    retag: tuple  # per body tag: None (repeat) or the exit tag
    arity: int


Frag = _Block | _Seq | _Loop


@dataclass
class _SuperNode:
    frag: Frag
    succs: list[int]  # block ids; the exit block id marks leaving the CFG
    # an upper bound on the nesting depth of the conditionals and loops
    # ``_emit`` builds for ``frag``, counting every tag map as a conditional;
    # a nonzero depth needs row-preserving blocks
    depth: int = 0


def _fold(view: CfgView) -> tuple[dict[int, _SuperNode], UnsupportedCfg | None]:
    """Apply T1 and T2 until neither applies, in the order the module states.

    Returns the leftover supernodes and the error for the first self-loop
    folded with no way out, if any; folding goes on past it so that
    ``is_reducible`` sees the whole reduction. Predecessor sets are kept up to
    date fold by fold, and two lazy min-heaps hold the ids that may have
    become T1 or T2 candidates since they were last looked at.
    """
    nodes = {}
    for b, ss in view.succ.items():
        targets = list(dict.fromkeys(ss))  # every supernode's successors are distinct
        index = {t: i for i, t in enumerate(targets)}
        nodes[b] = _SuperNode(_Block(b, len(targets), tuple(index[t] for t in ss)), targets)
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
            targets = [t for t in sn.succs if t != sid]
            if not targets and exitless is None:
                exitless = UnsupportedCfg(f"block {sid} loops forever with no exit")
            index = {t: i for i, t in enumerate(targets)}
            retag = tuple(None if t == sid else index[t] for t in sn.succs)
            sn.frag = _Loop(sn.frag, retag, len(targets))
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
        for t in s.succs:
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

def _emit(frag: Frag, b: DfBuilder, src: Hugr, wires, row: tuple[Type, ...],
          retag: tuple[int, ...], n: int):
    """Build ``frag`` into builder ``b`` with its tag ``j`` mapped to ``retag[j]``
    of arity ``n``; returns (tag wire, value wires).

    Maps are pushed down to where tags are made:

    - an arity-1 tag is a constant, never a wire: for ``n == 1`` the tag is
      ``None`` and conditionals leave it out of their rows, and a fragment
      with one successor asked for ``n > 1`` is followed by ``tag_const``;
    - a block's tags are first mapped onto its distinct successors
      (``_Block.retag``), so tags that share a successor share a case;
    - a dispatch composes the map into its cases, so an ``_Exit`` case makes
      the mapped constant and a ``_Run`` case is built with the composed map;
    - only a measured block's tag can need a ``_retag`` conditional, and only
      when the map is neither constant nor the identity;
    - a loop with one exit builds its body with "repeat -> 0, exit -> 1", and
      that tag is the ``TailLoop`` flag; loops with several exits carry a
      seed tag and map the body's tag in an exit conditional.

    Fragments that run one after another in ``b`` are taken from a stack;
    only conditional cases and loop bodies recurse, so the recursion is as
    deep as the fold-time ``depth`` at most.
    """
    tag, vals = None, tuple(wires)
    todo: list = [(frag, retag, n)]
    while todo:
        f, rt, k = todo.pop()
        if k > 1 and isinstance(f, (_Seq, _Loop)) and f.arity == 1:
            todo.append((_Exit(0), rt, k))  # build it untagged, then the constant
            rt, k = (0,), 1
        if isinstance(f, _Block):
            made = b.hugr.next_id
            outs = splice_region(b, src, f.block, vals)
            tag, vals = outs[0], tuple(outs[1:])
            rt = tuple(rt[j] for j in f.retag)
            if len(set(rt)) == 1:  # the block's own tag goes unread
                _drop_unread_load(b.hugr, tag, vals, made)
                tag = b.tag_const(rt[0], k) if k > 1 else None
            elif rt != tuple(range(k)):
                tag, vals = _retag(b, tag, vals, rt, k, row)
        elif isinstance(f, _Exit):
            tag = b.tag_const(rt[f.tag], k) if k > 1 else None
        elif isinstance(f, _Run):
            todo.append((f.frag, tuple(rt[j] for j in f.retag), k))
        elif isinstance(f, _Seq):
            if f.first.arity > 1:
                todo.append((f.cases, rt, k))
                todo.append((f.first, tuple(range(f.first.arity)), f.first.arity))
            else:  # first's one successor was the merged block: run it next
                todo.append((f.cases[0], rt, k))
                todo.append((f.first, (0,), 1))
        elif isinstance(f, _Loop) and f.arity == 1:  # the body's tag is the flag
            outs, body = b.tail_loop(vals)
            flag = tuple(int(t is not None) for t in f.retag)  # 1 (BOOL true) leaves
            t2, vals2 = _emit(f.body, body, src, body.inputs(), row, flag, 2)
            body.set_outputs(t2, *vals2)
            tag, vals = None, outs
        elif isinstance(f, _Loop):
            outs, body = b.tail_loop((b.tag_const(0, k),) + vals)
            ins = body.inputs()  # (previous tag, row...); the tag is discarded
            arity = f.body.arity
            t2, vals2 = _emit(f.body, body, src, ins[1:], row, tuple(range(arity)), arity)
            cond_outs, cases = body.conditional(t2, vals2, (BOOL, EnumType(k)) + row)
            for j, cb in zip(f.retag, cases):
                leave = j is not None
                cb.set_outputs(cb.bool_const(leave), cb.tag_const(rt[j] if leave else 0, k),
                               *cb.inputs())
            body.set_outputs(*cond_outs)
            tag, vals = outs[0], outs[1:]
        else:  # dispatch on the tag of a _Seq's first fragment to its cases
            outs, cases = b.conditional(tag, vals, _tagged(EnumType(k), row, k))
            for case, cb in zip(f, cases):
                cb.set_outputs(*_tagged(*_emit(case, cb, src, cb.inputs(), row, rt, k), k))
            tag, vals = (None, outs) if k == 1 else (outs[0], outs[1:])
    return tag, vals


def _tagged(tag, vals, n: int) -> tuple:
    """``vals`` behind ``tag``, or ``vals`` alone for an arity-1 tag."""
    return tuple(vals) if n == 1 else (tag, *vals)


def _retag(b: DfBuilder, tag, vals, retag: tuple[int, ...], arity: int,
           row: tuple[Type, ...]):
    """Map tag ``j`` to ``retag[j]`` of ``arity`` through a conditional."""
    outs, cases = b.conditional(tag, vals, (EnumType(arity),) + row)
    for j, cb in enumerate(cases):
        cb.set_outputs(cb.tag_const(retag[j], arity), *cb.inputs())
    return outs[0], tuple(outs[1:])


def _drop_unread_load(h: Hugr, wire: Port, vals: tuple[Port, ...], made: int) -> None:
    """Remove the ``LoadConst`` behind ``wire`` if nothing reads it, ``vals``
    included, then its ``Const`` if that is left unread. Only nodes with ids
    from ``made`` on, the ones the last splice made, are removed."""
    load = wire.node
    nd = h.node(load)
    if load < made or wire in vals or not isinstance(nd.op, LoadConst) or any(nd.out_edges):
        return
    (const,) = h.neighbours(in_port(load, 0))  # the CFG validated
    h.remove_node(load)
    if const.node >= made and not any(h.node(const.node).out_edges):
        h.remove_node(const.node)


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

    in_wires = tuple(h.neighbours(in_port(cfg, i))[0] for i in range(len(row)))
    outputs = [out_port(cfg, i) for i in range(len(op.signature.outputs))]
    replace(h, parent, [cfg], outputs, in_wires,
            lambda b, ins: _emit(folded.frag, b, h, ins, row, (0,) * folded.frag.arity, 1)[1],
            registry, lambda msg: StructuringError(f"structuring produced an invalid region: {msg}"))
    return h


def _block_rows(h: Hugr, block: int) -> tuple[tuple[Type, ...], tuple[Type, ...]]:
    children = h.children(block)
    out_types = h.op(children[1]).types
    return h.op(block).inputs, tuple(out_types[1:])


def structure_all(h: Hugr, registry: Registry) -> Hugr:
    """Structure every CFG node, innermost first.

    On a :class:`StructuringError` the failing CFG is left unchanged, and the
    CFGs structured before it stay structured.
    """
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
