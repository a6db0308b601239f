"""Independent brute-force oracles the fast implementations are checked against."""

from __future__ import annotations

from itertools import permutations

from hugr_ir import Direction, Hugr, Port, Registry, Value
from hugr_ir.ops import BasicBlock, Case, FuncDef, TailLoop
from hugr_ir.rewrite import (
    Match,
    MatchStats,
    Pattern,
    RewriteRule,
    _is_convex,
    _op_matches,
    apply,
)
from hugr_ir.structure import CfgView


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
    children = ph.children(pattern.region())
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
    children = ph.children(pattern.region())
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


def removal_dominators(view: CfgView) -> dict[int, set[int]]:
    """Dominator sets by the removal definition: a dominates b iff deleting a
    disconnects b from the entry."""
    blocks = [b for b in view.blocks]

    def reachable_without(removed: int | None) -> set[int]:
        if view.entry == removed:
            return set()
        seen = {view.entry}
        frontier = [view.entry]
        while frontier:
            n = frontier.pop()
            for s in view.succ.get(n, []):
                if s == view.exit or s == removed or s in seen:
                    continue
                seen.add(s)
                frontier.append(s)
        return seen

    doms: dict[int, set[int]] = {}
    for b in blocks:
        doms[b] = {b}
        for a in blocks:
            if a != b and b not in reachable_without(a):
                doms[b].add(a)
    return doms


def removal_idom(view: CfgView) -> dict[int, int]:
    doms = removal_dominators(view)
    idom = {view.entry: view.entry}
    for b in view.blocks:
        if b == view.entry:
            continue
        strict = doms[b] - {b}
        # the immediate dominator is the strict dominator dominated by all others
        for d in strict:
            if doms[d] == strict:
                idom[b] = d
                break
    return idom
