"""Anchored pattern matching and validated subgraph replacement.

Matching exploits the port structure: an anchor node fixes the first
correspondence and the embedding grows by following edges port-by-port.
Linear ports have exactly one connected edge, so most frontier steps extend
uniquely; copyable fan-out is explored in edge insertion order. Matches must
be convex (no host path leaves and re-enters the image) so splicing in the
replacement can never create a dataflow cycle. Given a topological position
for each node of the region, the convexity walk is bounded by the image's
last node: a path that leaves the image and comes back passes only through
nodes placed before it.

Applying a rule removes the matched image, splices in the replacement
fragment with the same boundary signature, re-validates the nodes whose
wiring changed, and returns an invertible delta. On any error the host is
left unchanged. A match is re-verified before it is applied unless the
matcher verified it on this very host at its current version.

Saturation keeps a worklist of candidate anchors per rule, so each
application re-matches only near the rewrite instead of rescanning the host.
The rules anchored at one op are dispatched on their first matching step:
an anchor runs only the rules whose first peer (port and op) is present.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property
from math import inf

from .build import DfBuilder, splice_region
from .graph import Hugr, Port, RemovedSubtree, in_port, out_port, region_order
from .ops import ExtensionOp, FuncDef, OpKind, Registry, Value, value_signature
from .types import Signature
from .validate import dataflow_regions, validate_touched

WILDCARD_EXTENSION = "pattern.wild"


class RewriteError(Exception):
    pass


class StaleMatch(RewriteError):
    """The host changed since the match was found."""


class WouldCreateCycle(RewriteError):
    """The match is no longer convex; applying it would create a cycle."""


class ValidationFailed(RewriteError):
    """The spliced replacement does not validate; the host was rolled back."""


def wildcard(signature: Signature) -> ExtensionOp:
    """A pattern node matching any operation with the given signature."""
    return ExtensionOp(WILDCARD_EXTENSION, "node", (), signature)


def _is_wildcard(op) -> bool:
    return isinstance(op, ExtensionOp) and op.extension == WILDCARD_EXTENSION


def _op_matches(pattern_op, host_op) -> bool:
    if _is_wildcard(pattern_op):
        return value_signature(pattern_op) is value_signature(host_op)
    return pattern_op is host_op  # ops are interned


@dataclass
class Pattern:
    """A dataflow fragment with a designated anchor node.

    The fragment is the body of the single function in ``hugr``; its Input
    and Output rows are the pattern's boundary. Inner nodes are extension
    ops (exact match) or wildcards (signature match).
    """

    hugr: Hugr
    anchor: int

    def __post_init__(self) -> None:
        region = fragment_region(self.hugr)
        inner = self.inner_nodes()
        if not inner:
            raise RewriteError("pattern fragment has no inner nodes")
        for n in inner:
            if not isinstance(self.hugr.op(n), ExtensionOp):
                raise RewriteError("pattern inner nodes must be extension ops or wildcards")
        if self.anchor not in inner:
            raise RewriteError("anchor must be an inner node of the fragment")
        if _is_wildcard(self.hugr.op(self.anchor)):
            raise RewriteError("anchor must not be a wildcard")
        children = self.hugr.children(region)
        out_node = children[1]
        for i in range(len(self.boundary().outputs)):
            feeds = self.hugr.neighbours(in_port(out_node, i))
            if feeds and feeds[0].node == children[0]:
                raise RewriteError("pattern boundary must not pass inputs through")
        self._check_connected()

    def boundary(self) -> Signature:
        return _fragment_boundary(self.hugr)

    def inner_nodes(self) -> list[int]:
        return self.hugr.children(fragment_region(self.hugr))[2:]

    @cached_property
    def program(self) -> _Program:
        """The compiled match program, built on first use."""
        return _compile(self)

    def _check_connected(self) -> None:
        inner = set(self.inner_nodes())
        seen = {self.anchor}
        frontier = [self.anchor]
        while frontier:
            n = frontier.pop()
            nd = self.hugr.node(n)
            for edges in nd.in_edges + nd.out_edges:
                for e in edges:
                    for other in (e.src.node, e.dst.node):
                        if other in inner and other not in seen:
                            seen.add(other)
                            frontier.append(other)
        if seen != inner:
            raise RewriteError("pattern fragment must be connected")


@dataclass
class Match:
    """An embedding of a pattern into one host region."""

    pattern: Pattern
    region: int
    mapping: dict[int, int]  # pattern inner node -> host node
    boundary_sources: tuple[Port, ...]  # host source port per pattern input index
    # (host, host version) at which the matcher verified every check
    verified: tuple[Hugr, int] | None = field(default=None, init=False, repr=False,
                                              compare=False)

    def key(self) -> tuple:
        return tuple(self.mapping[p] for p in sorted(self.mapping))

    def anchor_host(self) -> int:
        return self.mapping[self.pattern.anchor]

    def image(self) -> set[int]:
        return set(self.mapping.values())

    def host_output_port(self, index: int) -> Port:
        """The host port providing boundary output ``index``."""
        ph = self.pattern.hugr
        out_node = ph.children(fragment_region(ph))[1]
        src = ph.neighbours(in_port(out_node, index))[0]
        return out_port(self.mapping[src.node], src.offset)


@dataclass
class MatchStats:
    """Exploration counters; linear frontier ports must extend uniquely."""

    anchors_tried: int = 0
    frontier_steps: int = 0
    candidates_explored: int = 0
    convexity_checks: int = 0
    convexity_visits: int = 0  # nodes outside an image a convexity walk reached


@dataclass
class RewriteDelta:
    """Invertible record of one rule application."""

    rule_name: str
    region: int
    anchor_host: int
    removed: list[RemovedSubtree]
    added_nodes: list[int]
    # reconnections between pre-existing nodes (pass-through replacements)
    added_edges: list


@dataclass
class RewriteRule:
    lhs: Pattern
    rhs: Hugr  # fragment shaped like a pattern's graph
    name: str

    def __post_init__(self) -> None:
        if self.lhs.boundary() != _fragment_boundary(self.rhs):
            raise RewriteError(f"rule {self.name!r}: boundary signatures differ")


def fragment_region(fragment: Hugr) -> int:
    """The function definition whose body is the fragment of a pattern or
    replacement."""
    for c in fragment.children(fragment.root):
        if isinstance(fragment.op(c), FuncDef):
            return c
    raise RewriteError("fragment must contain one function definition")


def _fragment_boundary(fragment: Hugr) -> Signature:
    return fragment.op(fragment_region(fragment)).scheme.body


# ── matching ───────────────────────────────────────────────────────

@dataclass(frozen=True)
class _Program:
    """A pattern compiled for matching, built once per pattern.

    ``steps`` are deterministic frontier steps, each (known node, outgoing,
    port offset, peer node, peer port offset, peer op): BFS from the anchor;
    at each mapped node, ports are visited outgoing first, offsets ascending,
    edges in insertion order. ``out_ports`` and ``inputs`` are the final
    embedding checks, precomputed per pattern port.
    """

    anchor_op: OpKind
    steps: tuple[tuple, ...]
    radius: int  # largest BFS distance from the anchor to an inner node
    out_ports: tuple[tuple, ...]  # (node, offset, inner (node, offset) targets, exported)
    inputs: tuple[tuple[tuple[int, int], ...], ...]  # inner (node, offset) fed per input


def _compile(pattern: Pattern) -> _Program:
    ph = pattern.hugr
    inner = set(pattern.inner_nodes())
    steps: list[tuple] = []
    depth = {pattern.anchor: 0}
    queue = [pattern.anchor]
    while queue:
        n = queue.pop(0)
        nd = ph.node(n)
        for outgoing, rows in ((True, nd.out_edges), (False, nd.in_edges)):
            for off, edges in enumerate(rows):
                for e in edges:
                    peer = e.dst if outgoing else e.src
                    if isinstance(e.kind, Value) and peer.node in inner \
                            and peer.node not in depth:
                        depth[peer.node] = depth[n] + 1
                        steps.append((n, outgoing, off, peer.node, peer.offset,
                                      ph.op(peer.node)))
                        queue.append(peer.node)

    # a complete mapping holds exactly the nodes the steps reach
    p_input, p_output = ph.children(fragment_region(ph))[:2]
    boundary = pattern.boundary()
    exported = {(e.src.node, e.src.offset)
                for off in range(len(boundary.outputs))
                for e in ph.edges_at(in_port(p_output, off))}
    out_ports = tuple(
        (pn, off, tuple((e.dst.node, e.dst.offset) for e in edges if e.dst.node in depth),
         (pn, off) in exported)
        for pn in depth for off, edges in enumerate(ph.node(pn).out_edges))
    inputs = tuple(
        tuple((e.dst.node, e.dst.offset) for e in ph.edges_at(out_port(p_input, off))
              if e.dst.node in depth)
        for off in range(len(boundary.inputs)))
    return _Program(ph.op(pattern.anchor), tuple(steps), max(depth.values()),
                    out_ports, inputs)


def _anchor_candidates(h: Hugr, region: int, ops) -> dict[OpKind, list[int]]:
    """The children of ``region`` whose op is one of ``ops``, ascending, per op."""
    by_op: dict[OpKind, list[int]] = {op: [] for op in ops}
    for n in sorted(h.children(region)):
        bucket = by_op.get(h.op(n))
        if bucket is not None:
            bucket.append(n)
    return by_op


class _FirstSteps:
    """Rules anchored at one op, grouped by their program's first step: the
    anchor port it follows, and the peer's port and op."""

    def __init__(self, programs: list[tuple[int, _Program]]):
        self.always: list[int] = []  # no first step, or a wildcard peer
        groups: dict[tuple, dict[OpKind, list[int]]] = {}
        for i, prog in programs:
            if not prog.steps or _is_wildcard(prog.steps[0][5]):
                self.always.append(i)
                continue
            _, outgoing, off, _, peer_off, peer_op = prog.steps[0]
            groups.setdefault((outgoing, off, peer_off), {}).setdefault(peer_op, []).append(i)
        self.groups = [(*port, by_op) for port, by_op in groups.items()]

    def rules_at(self, h: Hugr, anchor: int) -> list[int]:
        """The rules whose first-step peer is present at ``anchor``, ascending."""
        nd = h.node(anchor)
        hits = list(self.always)
        for outgoing, off, peer_off, by_op in self.groups:
            for e in (nd.out_edges if outgoing else nd.in_edges)[off]:
                peer = e.dst if outgoing else e.src
                if peer.offset == peer_off:
                    hits += by_op.get(h.op(peer.node), ())
        return sorted(set(hits)) if len(hits) > 1 else hits


def find_matches(pattern: Pattern, h: Hugr, region: int,
                 stats: MatchStats | None = None) -> list[Match]:
    """Every embedding of ``pattern`` in the region, deduplicated and ordered
    by (anchor host id, embedding)."""
    anchor_op = pattern.program.anchor_op
    first = _FirstSteps([(0, pattern.program)])
    unique: dict[tuple, Match] = {}
    for anchor in _anchor_candidates(h, region, (anchor_op,))[anchor_op]:
        if not first.rules_at(h, anchor):
            continue
        for m in _embeddings(pattern, h, region, anchor, stats):
            if _is_convex(h, region, m.image(), None, stats):
                m.verified = (h, h.version)
                unique.setdefault((anchor, m.key()), m)
    return [unique[k] for k in sorted(unique)]


def _embeddings(pattern: Pattern, h: Hugr, region: int, anchor: int,
                stats: MatchStats | None):
    """Every embedding at ``anchor`` that passes the local checks (all but
    convexity), in the matcher's order."""
    if stats is not None:
        stats.anchors_tried += 1
    prog = pattern.program
    for mapping in _extend(prog, h, region, 0, {pattern.anchor: anchor}, {anchor}, stats):
        sources = _boundary_sources(prog, h, mapping)
        if sources is not None:
            yield Match(pattern, region, dict(mapping), sources)


def _extend(prog: _Program, h: Hugr, region: int, depth: int,
            mapping: dict[int, int], used: set[int], stats: MatchStats | None):
    if depth == len(prog.steps):
        yield mapping
        return
    known, outgoing, off, peer, peer_off, peer_op = prog.steps[depth]
    nd = h.node(mapping[known])
    if stats is not None:
        stats.frontier_steps += 1
    for e in (nd.out_edges if outgoing else nd.in_edges)[off]:
        if stats is not None:
            stats.candidates_explored += 1
        cand = e.dst if outgoing else e.src
        if cand.offset != peer_off:
            continue
        c_node = cand.node
        if c_node in used or h.parent(c_node) != region:
            continue
        if not _op_matches(peer_op, h.op(c_node)):
            continue
        mapping[peer] = c_node
        used.add(c_node)
        yield from _extend(prog, h, region, depth + 1, mapping, used, stats)
        del mapping[peer]
        used.remove(c_node)


def _boundary_sources(prog: _Program, h: Hugr,
                      mapping: dict[int, int]) -> tuple[Port, ...] | None:
    """The host source per boundary input when ``mapping`` embeds the
    pattern's edges and boundary exactly; every check but convexity."""
    image = set(mapping.values())

    # interior edges exist with identical ports; values leave only as outputs
    for pn, off, targets, exported in prog.out_ports:
        edges = h.node(mapping[pn]).out_edges[off]
        inside = sum(1 for e in edges if e.dst.node in image)
        if inside != len(targets) or (inside < len(edges) and not exported):
            return None
        if targets:
            pairs = {(e.dst.node, e.dst.offset) for e in edges}
            if any((mapping[n], o) not in pairs for n, o in targets):
                return None

    # boundary inputs: consistent host sources outside the image
    sources: list[Port] = []
    for consumers in prog.inputs:
        src = None
        for pn, off in consumers:
            edges = h.node(mapping[pn]).in_edges[off]
            if len(edges) != 1 or edges[0].src.node in image:
                return None
            if src is not None and src != edges[0].src:
                return None
            src = edges[0].src
        if src is None:
            return None
        sources.append(src)
    return tuple(sources)


def _is_convex(h: Hugr, region: int, image: set[int],
               pos: dict[int, float] | None = None,
               stats: MatchStats | None = None) -> bool:
    """No value path may leave the image and come back into it.

    ``pos``, if given, places every child of ``region`` so that each value
    edge runs from a lower position to a higher one. A path that leaves the
    image and comes back passes only through nodes placed before the image's
    last node, so the walk skips every node placed at or after it. Without
    ``pos`` it walks everything downstream of the image in the region.
    """
    if pos is None:
        def inside(d: int) -> bool:
            return h.parent(d) == region
    else:
        limit = max(pos[n] for n in image)

        def inside(d: int) -> bool:
            return pos.get(d, limit) < limit
    outside_reach: set[int] = set()
    frontier: list[int] = []
    try:
        for n in image:
            for edges in h.node(n).out_edges:
                for e in edges:
                    d = e.dst.node
                    if isinstance(e.kind, Value) and d not in image \
                            and d not in outside_reach and inside(d):
                        outside_reach.add(d)
                        frontier.append(d)
        while frontier:
            for edges in h.node(frontier.pop()).out_edges:
                for e in edges:
                    d = e.dst.node
                    if isinstance(e.kind, Value):
                        if d in image:
                            return False
                        if d not in outside_reach and inside(d):
                            outside_reach.add(d)
                            frontier.append(d)
        return True
    finally:
        if stats is not None:
            stats.convexity_checks += 1
            stats.convexity_visits += len(outside_reach)


# ── application ────────────────────────────────────────────────────

def apply(rule: RewriteRule, match: Match, h: Hugr, registry: Registry) -> RewriteDelta:
    """Replace the matched image by the rule's rhs; validate; return a delta.

    Raises StaleMatch / WouldCreateCycle / ValidationFailed, in which case
    the host graph is left unchanged.

    The match is re-checked (its nodes, ops, convexity and boundary) unless
    the matcher verified it on ``h`` itself at ``h``'s current version; a
    match built by hand, or applied to a copy, is always re-checked.

    The post-splice check covers every node whose wiring changed. Replacing a
    convex image by a dataflow fragment attached only at the boundary cannot
    create cycles, so on a valid host the region stays valid whenever this
    check passes. No step looks at the region's other children.
    """
    verified = match.verified
    if verified is None or verified[0] is not h or verified[1] != h.version:
        _recheck(rule.lhs, match, h)

    region = match.region
    image = match.image()
    n_out = len(rule.lhs.boundary().outputs)
    consumers: list[list[Port]] = []
    for j in range(n_out):
        hp = match.host_output_port(j)
        consumers.append([e.dst for e in h.edges_at(hp) if e.dst.node not in image])

    watermark = h._next_id
    removed = [h.remove_node(match.mapping[pn]) for pn in sorted(match.mapping)]
    added_edges: list = []

    try:
        builder = DfBuilder.attach(h, region, registry)
        rhs_outs = splice_region(builder, rule.rhs, fragment_region(rule.rhs),
                                 match.boundary_sources)
        for j, wire in enumerate(rhs_outs):
            for dst in consumers[j]:
                edge = builder.connect(wire, dst)
                if wire.node < watermark and dst.node < watermark:
                    added_edges.append(edge)
        added = _added_children(h, region, watermark)
        touched = set(added)
        touched.update(s.node for s in match.boundary_sources)
        touched.update(dst.node for ports in consumers for dst in ports)
        diags = validate_touched(h, region, touched, registry)
        if diags:
            raise ValidationFailed(
                f"rule {rule.name!r} left the region invalid: {diags[0].render()}")
    except Exception:
        _revert(h, added_edges, _added_children(h, region, watermark), removed)
        raise

    return RewriteDelta(rule.name, region, match.anchor_host(), removed, added,
                        added_edges)


def _added_children(h: Hugr, region: int, watermark: int) -> list[int]:
    """The children of ``region`` made since node id ``watermark``, ascending.
    Ids are never reused, so only the new ids are looked at."""
    return [n for n in range(watermark, h._next_id) if n in h and h.parent(n) == region]


def _recheck(pattern: Pattern, match: Match, h: Hugr) -> None:
    for pn, hn in match.mapping.items():
        if hn not in h or h.parent(hn) != match.region:
            raise StaleMatch(f"host node {hn} vanished or moved")
        if not _op_matches(pattern.hugr.op(pn), h.op(hn)):
            raise StaleMatch(f"host node {hn} changed operation")
    if not _is_convex(h, match.region, match.image()):
        raise WouldCreateCycle("match image is no longer convex")
    if _boundary_sources(pattern.program, h, match.mapping) != match.boundary_sources:
        raise StaleMatch("match no longer embeds")


def undo(h: Hugr, delta: RewriteDelta) -> None:
    """Invert a successful application, restoring the original structure."""
    _revert(h, delta.added_edges, delta.added_nodes, delta.removed)


def _revert(h: Hugr, added_edges: list, added_nodes: list[int],
            removed: list[RemovedSubtree]) -> None:
    for e in added_edges:
        if h.has_edge(e):
            h.disconnect(e)
    for n in added_nodes:
        if n in h:
            h.remove_node(n)
    for sub in reversed(removed):
        h.restore(sub)


# ── saturation ─────────────────────────────────────────────────────

def saturate(rules: list[RewriteRule], h: Hugr, budget: int, registry: Registry,
             stats: MatchStats | None = None) -> tuple[Hugr, list[tuple[str, int]]]:
    """Apply the first match until fixpoint or ``budget`` applications.

    Each application is the one a full rescan of the host would pick: rule
    order first, then dataflow regions in hierarchy preorder, then the lowest
    anchor host id, then the first embedding the matcher yields there.

    The rescan is replaced by a worklist. One initial pass tries every anchor
    and keeps, per rule, those with an embedding that passes every check but
    convexity. An anchor tries only the rules whose first step finds its peer
    there (see :class:`_FirstSteps`). Selection re-verifies the best kept
    anchor with the full matcher and drops it if it no longer matches; the
    match it returns is stamped with the host version, so ``apply`` does not
    check it again. Apart from convexity, whether an anchor matches depends
    only on the ops and edges of nodes within the pattern radius of it: the
    BFS distance from the anchor to the farthest inner node. So after an
    application only the nodes of the rewritten region within that radius of
    the rewrite's boundary sources, its consumers and its added nodes are
    queued again; the first two are the surviving ends of the edges it
    removed. Convexity is not local: a rewrite can cut a path that leaves an
    image and re-enters it anywhere in the region. So an anchor whose
    embeddings failed the convexity check alone is rechecked after every
    application. The region list is recomputed only when an application adds
    or removes a node that has children.

    Convexity is checked by topological position. The first check in a region
    places its children in :func:`~hugr_ir.graph.region_order`; a walk then
    stops at the image's last node, so it costs what lies between the image's
    nodes, not what lies downstream of them. An application keeps the
    positions valid: its added nodes go, in the replacement's region order,
    strictly between the highest position that feeds them and the lowest one
    they feed. When there is no such gap, or an added edge between two old
    nodes runs backwards, the region's positions are dropped and rebuilt at
    its next check. A region in which no convexity check runs builds none.
    """
    applied: list[tuple[str, int]] = []
    if budget <= 0:
        return h, applied
    work = _Worklist(rules, h, stats)
    while len(applied) < budget:
        hit = work.select()
        if hit is None:
            break
        rule, m = hit
        delta = apply(rule, m, h, registry)
        applied.append((rule.name, m.anchor_host()))
        work.update(rule, delta)
    return h, applied


class _Worklist:
    """Candidate anchors per rule, each a heap in saturate's pick order."""

    def __init__(self, rules: list[RewriteRule], h: Hugr, stats: MatchStats | None):
        self.rules, self.h, self.stats = rules, h, stats
        programs: dict[OpKind, list[tuple[int, _Program]]] = {}
        for i, rule in enumerate(rules):
            prog = rule.lhs.program
            programs.setdefault(prog.anchor_op, []).append((i, prog))
        self.by_op = {op: _FirstSteps(progs) for op, progs in programs.items()}
        self.radius = max((rule.lhs.program.radius for rule in rules), default=0)
        # per rule: heap of (region position, anchor, region), and its anchors
        self.queues: list[list[tuple[int, int, int]]] = [[] for _ in rules]
        self.queued: list[set[int]] = [set() for _ in rules]  # parked ones too
        self.parked: list[tuple[int, tuple[int, int, int]]] = []  # convexity-rejected
        self.positions: dict[int, int] = {}  # region -> preorder position
        self.orders: dict[int, dict[int, float]] = {}  # region -> child -> topological position
        self._reindex()

    def select(self) -> tuple[RewriteRule, Match] | None:
        for i, rule in enumerate(self.rules):
            queue = self.queues[i]
            while queue:
                entry = heapq.heappop(queue)
                _, anchor, region = entry
                m, convex_rejected = (None, False)
                if anchor in self.h:
                    m, convex_rejected = self._first_match(rule.lhs, region, anchor)
                if convex_rejected:
                    self.parked.append((i, entry))
                    continue
                self.queued[i].discard(anchor)
                if m is not None:
                    return rule, m
        return None

    def _first_match(self, pattern: Pattern, region: int,
                     anchor: int) -> tuple[Match | None, bool]:
        """The first convex embedding at ``anchor``; failing that, whether some
        embedding was rejected by the convexity check alone."""
        h = self.h
        convex_rejected = False
        for m in _embeddings(pattern, h, region, anchor, self.stats):
            if _is_convex(h, region, m.image(), self._order(region), self.stats):
                m.verified = (h, h.version)
                return m, False
            convex_rejected = True
        return None, convex_rejected

    def _order(self, region: int) -> dict[int, float] | None:
        """Topological positions of the region's children, built on first use;
        None while a value cycle leaves some child unplaced."""
        pos = self.orders.get(region)
        if pos is None:
            order = self.h.derived(region_order, region)
            if len(order) < len(self.h.node(region).children):
                return None
            pos = self.orders[region] = {n: float(i) for i, n in enumerate(order)}
        return pos

    def update(self, rule: RewriteRule, delta: RewriteDelta) -> None:
        """Queue again what applying ``rule`` (recorded in ``delta``) may have
        made match."""
        h = self.h
        for i, entry in self.parked:
            heapq.heappush(self.queues[i], entry)
        self.parked.clear()
        if any(len(sub.nodes) > 1 for sub in delta.removed) or \
                any(h.children(n) for n in delta.added_nodes):
            self._reindex()
        self._place(rule, delta)

        region = delta.region
        seeds = set(delta.added_nodes)
        for sub in delta.removed:
            for e in sub.edges:
                seeds.update((e.src.node, e.dst.node))
        dist = {n: 0 for n in seeds if n in h and h.parent(n) == region}
        frontier = list(dist)
        for d in range(1, self.radius + 1):
            reached = []
            for n in frontier:
                nd = h.node(n)
                peers = [e.src.node for edges in nd.in_edges for e in edges]
                peers += [e.dst.node for edges in nd.out_edges for e in edges]
                for p in peers:
                    if p not in dist and h.parent(p) == region:
                        dist[p] = d
                        reached.append(p)
            frontier = reached
        for n, d in dist.items():
            first = self.by_op.get(h.op(n))
            if first is not None:
                for i in first.rules_at(h, n):
                    if d <= self.rules[i].lhs.program.radius:
                        self._push(i, region, n)

    def _place(self, rule: RewriteRule, delta: RewriteDelta) -> None:
        """Keep the rewritten region's positions topological, or drop them."""
        pos = self.orders.get(delta.region)
        if pos is None:
            return
        for sub in delta.removed:
            for n, *_ in sub.nodes:
                pos.pop(n, None)
        if any(pos[e.src.node] >= pos[e.dst.node] for e in delta.added_edges):
            del self.orders[delta.region]
            return
        added = delta.added_nodes
        if not added:
            return
        h, new = self.h, set(added)
        lo, hi = -inf, inf  # highest old node feeding the new ones, lowest fed
        for n in added:
            nd = h.node(n)
            for edges in nd.in_edges:
                for e in edges:
                    if isinstance(e.kind, Value) and e.src.node not in new:
                        lo = max(lo, pos[e.src.node])
            for edges in nd.out_edges:
                for e in edges:
                    if isinstance(e.kind, Value) and e.dst.node not in new:
                        hi = min(hi, pos[e.dst.node])
        k = len(added)
        if lo == -inf:
            lo = 0.0 if hi == inf else hi - k - 1
        if hi == inf:
            hi = lo + k + 1
        step = (hi - lo) / (k + 1)
        bounds = [lo, *(lo + step * j for j in range(1, k + 1)), hi]
        # the i-th added node copies the i-th rhs child after Input and Output
        rhs, body = rule.rhs, fragment_region(rule.rhs)
        rank = {c: i for i, c in enumerate(rhs.node(body).children[2:])}
        order = [added[rank[c]] for c in rhs.derived(region_order, body) if c in rank]
        if len(order) < k or not all(a < b for a, b in zip(bounds, bounds[1:])):
            del self.orders[delta.region]  # no gap, or no float left in it
            return
        for n, p in zip(order, bounds[1:]):
            pos[n] = p

    def _reindex(self) -> None:
        """Recompute the region list; scan the regions that are new."""
        old = self.positions
        self.positions = {r: i for i, r in enumerate(dataflow_regions(self.h))}
        self.orders = {r: pos for r, pos in self.orders.items() if r in self.positions}
        for i, queue in enumerate(self.queues):
            kept = [(self.positions[r], a, r) for _, a, r in queue if r in self.positions]
            heapq.heapify(kept)
            self.queues[i] = kept
            self.queued[i] = {a for _, a, _ in kept}
        for region in self.positions:
            if region not in old:
                self._scan(region)

    def _scan(self, region: int) -> None:
        """Queue every anchor in ``region`` with an embedding that passes the
        local checks; selection checks convexity."""
        h = self.h
        for op, anchors in _anchor_candidates(h, region, self.by_op).items():
            first = self.by_op[op]
            for anchor in anchors:
                for i in first.rules_at(h, anchor):
                    if next(_embeddings(self.rules[i].lhs, h, region, anchor, self.stats),
                            None):
                        self._push(i, region, anchor)

    def _push(self, i: int, region: int, anchor: int) -> None:
        if anchor not in self.queued[i]:
            self.queued[i].add(anchor)
            heapq.heappush(self.queues[i], (self.positions[region], anchor, region))

