"""Storage and mutation of the hierarchical port graph.

Nodes live in a tree (parent links, ordered children) and expose numbered,
directed ports determined by their operation. Edges connect an outgoing port
to an incoming port and carry an explicit kind (value, static or control
flow). Children order is significant everywhere: region inputs/outputs, case
order, CFG entry.

``Port``, ``Edge`` and ``RemovedSubtree`` are named tuples: immutable, and
built, hashed and compared field by field in C, so an edge costs three small
tuples. ``Node`` is a slotted record whose edge lists are sized from its
op's port rows. A new node gets its id only from :meth:`Hugr.add_node` and
an edge is recorded only by :meth:`Hugr.connect`, in the decoder too.

Node ids are never reused within one graph instance, which keeps undo logs
and rewrite deltas unambiguous; :attr:`Hugr.next_id` is the id the next
node will get. :meth:`Hugr.remove_node` unlinks only the boundary: an edge
leaves the list of its endpoint outside the removed subtree, and the
subtree's own lists go with its nodes. Removing or restoring a subtree
costs its size and its boundary edges plus one search of its siblings list:
no mutator audits the whole hierarchy, which ``validate`` checks
(``NonTreeHierarchy``). Mutation requires exclusive access; reads are safe
to share.

Every mutating method bumps :attr:`Hugr.version`. Values derived from the
graph by :meth:`Hugr.derived` are kept until the version next moves, so any
mutation invalidates all of them. :func:`region_order` is one: the single
execution order of a region, which ``validate`` reads to find value cycles,
the evaluator compiles its region schedules from, and ``saturate`` numbers
the topological positions of its convexity checks from.
"""

from __future__ import annotations

import enum
from heapq import heapify, heappop, heappush
from typing import Callable, NamedTuple, TypeVar

from .ops import ControlFlow, OpKind, PortKind, Static, Value


T = TypeVar("T")


class GraphError(Exception):
    """Raised on malformed graph mutations (unknown nodes, bad ports, ...)."""


class Direction(enum.Enum):
    IN = "in"
    OUT = "out"


_IN, _OUT = Direction.IN, Direction.OUT  # module names read faster than members


class Port(NamedTuple):
    """A numbered connection point on a node."""

    node: int
    direction: Direction
    offset: int

    def __repr__(self) -> str:
        return f"{self.node}.{self.direction.value}{self.offset}"


# tuple.__new__ builds a named tuple without its Python-level __new__
_new = tuple.__new__


def out_port(node: int, offset: int = 0) -> Port:
    return _new(Port, (node, _OUT, offset))


def in_port(node: int, offset: int = 0) -> Port:
    return _new(Port, (node, _IN, offset))


class Edge(NamedTuple):
    """A recorded connection; ``src`` is always outgoing, ``dst`` incoming."""

    src: Port
    dst: Port
    kind: PortKind


class Node:
    """One node: its parent, op, ordered children, and one edge list per port
    in insertion order, sized from the op's port rows."""

    __slots__ = ("id", "parent", "op", "children", "in_edges", "out_edges")

    def __init__(self, id: int, parent: int | None, op: OpKind,
                 children: list[int] | None = None,
                 in_edges: list[list[Edge]] | None = None,
                 out_edges: list[list[Edge]] | None = None) -> None:
        self.id = id
        self.parent = parent
        self.op = op
        self.children = [] if children is None else children
        ins, outs = op.rows
        self.in_edges = [[] for _ in ins] if in_edges is None else in_edges
        self.out_edges = [[] for _ in outs] if out_edges is None else out_edges

    @property
    def rows(self) -> tuple[tuple[PortKind, ...], tuple[PortKind, ...]]:
        """(incoming, outgoing) port kinds of ``op``, shared by its nodes."""
        return self.op.rows


class RemovedSubtree(NamedTuple):
    """Material returned by :meth:`Hugr.remove_node`, sufficient for undo."""

    nodes: list[tuple[int, int, OpKind]]  # (id, parent, op) in preorder
    edges: list[Edge]
    index: int  # the subtree root's position among its siblings


class Hugr:
    """The hierarchical port graph."""

    def __init__(self, root_op: OpKind | None = None):
        from .ops import Module

        self._nodes: dict[int, Node] = {}
        self._next_id = 0
        self.version = 0  # bumped by every mutation
        self._derived: dict = {}
        self._derived_version = 0
        self.root = self._fresh_node(root_op if root_op is not None else Module(), None)

    # ── accessors ──────────────────────────────────────────────────

    def __contains__(self, node: int) -> bool:
        return node in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def next_id(self) -> int:
        """The id the next added node gets; every id below it has been used."""
        return self._next_id

    def node(self, node: int) -> Node:
        try:
            return self._nodes[node]
        except KeyError:
            raise GraphError(f"unknown node {node}") from None

    def op(self, node: int) -> OpKind:
        return self.node(node).op

    def parent(self, node: int) -> int | None:
        return self.node(node).parent

    def children(self, node: int) -> list[int]:
        return list(self.node(node).children)

    def preorder(self, start: int | None = None) -> list[int]:
        """Hierarchy preorder following children order."""
        order: list[int] = []
        stack = [self.root if start is None else start]
        while stack:
            n = stack.pop()
            order.append(n)
            stack.extend(reversed(self._nodes[n].children))
        return order

    def is_ancestor(self, ancestor: int, node: int) -> bool:
        """True iff ``ancestor`` is ``node`` or a proper ancestor of it."""
        cur: int | None = node
        while cur is not None:
            if cur == ancestor:
                return True
            cur = self._nodes[cur].parent
        return False

    def port_kind(self, port: Port) -> PortKind:
        node = self.node(port.node)
        ins, outs = node.rows
        row = ins if port.direction is _IN else outs
        if not 0 <= port.offset < len(row):
            raise GraphError(f"port {port!r} out of range for {node.op!r}")
        return row[port.offset]

    def edges_at(self, port: Port) -> list[Edge]:
        return list(self._edge_list(port))

    def _edge_list(self, port: Port) -> list[Edge]:
        """The edges recorded at ``port`` (the list itself, not a copy)."""
        node = self.node(port.node)
        row = node.in_edges if port.direction is _IN else node.out_edges
        if not 0 <= port.offset < len(row):
            raise GraphError(f"port {port!r} out of range for {node.op!r}")
        return row[port.offset]

    def neighbours(self, port: Port) -> list[Port]:
        """Ports connected to ``port`` by any edge, in insertion order."""
        if port.direction is _IN:
            return [e.src for e in self.edges_at(port)]
        return [e.dst for e in self.edges_at(port)]

    def all_edges(self) -> list[Edge]:
        out: list[Edge] = []
        for n in self.preorder():
            for edges in self._nodes[n].out_edges:
                out.extend(edges)
        return out

    def derived(self, build: Callable[["Hugr", int], T], node: int) -> T:
        """``build(self, node)``, computed once per :attr:`version`.

        The cache belongs to this graph: every mutation empties it, and a
        :meth:`copy` starts with an empty one.
        """
        if self._derived_version != self.version:
            self._derived = {}
            self._derived_version = self.version
        key = (build, node)
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = build(self, node)
            return value

    # ── mutation ───────────────────────────────────────────────────

    def _fresh_node(self, op: OpKind, parent: int | None) -> int:
        nid = self._next_id
        self._next_id += 1
        self._nodes[nid] = Node(nid, parent, op)
        return nid

    def add_node(self, op: OpKind, parent: int) -> int:
        """Append a new node to ``parent``'s children; returns its fresh id."""
        pnode = self.node(parent)
        nid = self._fresh_node(op, parent)
        pnode.children.append(nid)
        self.version += 1
        return nid

    def connect(self, src: Port, dst: Port, kind: PortKind) -> Edge:
        """Record an edge. Typing is checked later by validation; direction,
        port range and duplication are checked here."""
        if src.direction is not _OUT or dst.direction is not _IN:
            raise GraphError(f"edge must run outgoing -> incoming, got {src!r} -> {dst!r}")
        outs, ins = self._edge_list(src), self._edge_list(dst)
        edge = _new(Edge, (src, dst, kind))
        if edge in (ins if len(ins) <= len(outs) else outs):
            raise GraphError(f"duplicate edge {src!r} -> {dst!r}")
        outs.append(edge)
        ins.append(edge)
        self.version += 1
        return edge

    def has_edge(self, edge: Edge) -> bool:
        """True iff an edge equal to ``edge`` is recorded; scans the shorter
        of its two port edge lists."""
        try:
            outs = self._nodes[edge.src.node].out_edges[edge.src.offset]
            ins = self._nodes[edge.dst.node].in_edges[edge.dst.offset]
        except (KeyError, IndexError):
            return False
        return edge in (ins if len(ins) <= len(outs) else outs)

    def disconnect(self, edge: Edge) -> None:
        if not self.has_edge(edge):
            raise GraphError(f"no such edge {edge.src!r} -> {edge.dst!r}")
        self._nodes[edge.src.node].out_edges[edge.src.offset].remove(edge)
        self._nodes[edge.dst.node].in_edges[edge.dst.offset].remove(edge)
        self.version += 1

    def remove_node(self, node: int) -> RemovedSubtree:
        """Remove ``node`` and all descendants plus every incident edge.

        Returns the removed material; :meth:`restore` undoes the removal.
        """
        target = self.node(node)
        if node == self.root:
            raise GraphError("cannot remove the root node")
        table = self._nodes
        siblings = table[target.parent].children
        index = siblings.index(node)
        del siblings[index]
        popped, stack = [], [node]
        while stack:
            popped.append(table.pop(stack.pop()))
            stack.extend(reversed(popped[-1].children))
        edges: list[Edge] = []  # preorder, in-edges then out-edges
        inner: set[int] = set()  # an edge inside the subtree is listed at both ends
        for nd in popped:
            for es in nd.in_edges + nd.out_edges:
                for e in es:
                    src, dst = table.get(e.src.node), table.get(e.dst.node)
                    if src is not None:
                        src.out_edges[e.src.offset].remove(e)
                    elif dst is not None:
                        dst.in_edges[e.dst.offset].remove(e)
                    elif id(e) in inner:
                        continue
                    else:
                        inner.add(id(e))
                    edges.append(e)
        self.version += 1
        return RemovedSubtree([(nd.id, nd.parent, nd.op) for nd in popped], edges, index)

    def restore(self, removed: RemovedSubtree) -> None:
        """Re-insert a removed subtree at its original positions."""
        for nid, parent, op in removed.nodes:
            if nid in self._nodes:
                raise GraphError(f"node {nid} already present")
            self._nodes[nid] = Node(nid, parent, op)
        # the subtree root goes back at its index; the rest are in preorder,
        # so appending rebuilds their children order
        (root, parent, _), *rest = removed.nodes
        self._nodes[parent].children.insert(removed.index, root)
        for nid, parent, _ in rest:
            self._nodes[parent].children.append(nid)
        for e in removed.edges:
            self.connect(e.src, e.dst, e.kind)
        self.version += 1

    def copy(self) -> "Hugr":
        """Structural copy preserving node ids and edge insertion order."""
        h = Hugr.__new__(Hugr)
        h._nodes = {}
        h._next_id = self._next_id
        h.version = 0
        h._derived = {}
        h._derived_version = 0
        h.root = self.root
        for nid, nd in self._nodes.items():
            h._nodes[nid] = Node(nd.id, nd.parent, nd.op, list(nd.children),
                                 [list(es) for es in nd.in_edges],
                                 [list(es) for es in nd.out_edges])
        return h


def region_order(h: Hugr, region: int) -> list[int]:
    """The children of ``region`` in topological order over the value edges
    between them: the first child (a region's Input) leads, then the
    smallest ready id goes next. Children on or behind a value cycle are
    left out. Read it through :meth:`Hugr.derived`.
    """
    nodes = h._nodes
    children = nodes[region].children
    waiting = dict.fromkeys(children[1:], 0)  # value in-edges from unplaced siblings
    for c in children:
        for edges in nodes[c].out_edges:
            for e in edges:
                m = e.dst.node
                if m in waiting and isinstance(e.kind, Value):
                    waiting[m] += 1
    ready = [c for c, k in waiting.items() if not k]
    heapify(ready)
    order = children[:1]
    for n in order:  # grows as it goes
        for edges in nodes[n].out_edges:
            for e in edges:
                m = e.dst.node
                if m in waiting and isinstance(e.kind, Value):
                    k = waiting[m] = waiting[m] - 1
                    if not k:
                        heappush(ready, m)
        if ready:
            order.append(heappop(ready))
    return order


__all__ = [
    "Direction",
    "Edge",
    "GraphError",
    "Hugr",
    "Node",
    "Port",
    "RemovedSubtree",
    "in_port",
    "out_port",
    "region_order",
    "ControlFlow",
    "Static",
    "Value",
]
