"""Deterministic JSON interchange for graphs, extensions and rewrite rules.

The encoding is canonical: node ids are densely re-indexed in hierarchy
preorder and edges sorted, so two structurally equal graphs produce identical
bytes regardless of construction history. ``encode(decode(encode(h)))`` is
byte-for-byte ``encode(h)``. Canonical equality doubles as the structural
equality oracle used by tests.

Ops and types are interned, so a document repeats few distinct terms. The
encoder writes the document as text: it dumps each distinct op term, and
each distinct edge kind with its type term, to JSON once, and formats the
node and edge records around that text. The decoder memoises in two
levels, both keyed by the ``marshal`` bytes of each op term and edge kind
and type term. One memo per process holds its objects weakly, so each
distinct term is read once while the object it names is alive, and ops
still die with the last graph that uses them. In front of it, a plain dict
per document answers a repeated term with one lookup. Those bytes keep JSON
``1``, ``1.0`` and ``true`` apart, and ``0.0`` from ``-0.0``. The decoder
adds every node through :meth:`Hugr.add_node`, in hierarchy preorder, and
records every edge through :meth:`Hugr.connect`.

Integer fields are strict: node ``id`` and ``parent``, edge ports,
``successors``, ``cardinality``, ``{"enum"}``, ``{"var"}``, ``params`` and a
rule's ``anchor`` must be JSON integers, and ``true`` is not one. Every
malformed record or term raises :class:`DecodeError` naming its place in
the document, such as ``nodes[2]`` or ``edges[3].type``.

File conventions: ``.hugr.json`` for graphs, ``.hugrext.json`` for extension
declarations, ``.hugrrule.json`` for rewrite rules.
"""

from __future__ import annotations

import json
import marshal
import warnings
import weakref
from functools import partial
from typing import Any, Callable, Iterable, NamedTuple

from .graph import GraphError, Hugr, in_port, out_port
from .ops import (
    BasicBlock,
    Call,
    Case,
    Cfg,
    Conditional,
    Const,
    ControlFlow,
    ExitBlock,
    Extension,
    ExtensionOp,
    FuncDecl,
    FuncDef,
    Input,
    LoadConst,
    LoadFunction,
    Module,
    OpDef,
    OpError,
    OpKind,
    Output,
    PortKind,
    Static,
    TailLoop,
    TypeDef,
    Value,
    value_signature,
)
from .types import (
    EnumType,
    ExtType,
    FunctionType,
    PolySignature,
    Signature,
    Type,
    TypeError_,
    VarType,
)

FORMAT_VERSION = 1


class DecodeError(Exception):
    pass


# what a malformed term raises before it is wrapped in a DecodeError
_MALFORMED = (KeyError, TypeError, ValueError, OverflowError, RecursionError, TypeError_)


_dumps = json.JSONEncoder(separators=(",", ":")).encode


# the op and the edge kind each term read so far names, by _term_key; a hit
# is the very object a fresh read would return, since both are interned
_OPS: weakref.WeakValueDictionary[bytes, OpKind] = weakref.WeakValueDictionary()
_KINDS: weakref.WeakValueDictionary[bytes, PortKind] = weakref.WeakValueDictionary()


def _term_key(term: Any) -> bytes:
    """The exact JSON value of ``term``, as a memo key.

    Equal keys mean equal values. Equal values that share their strings
    differently may get two keys; that costs one more read of the term, and
    both reads return the same interned object.
    """
    try:
        return marshal.dumps(term)
    except ValueError:
        raise DecodeError(f"not a JSON term: {term!r}") from None


# ── type terms ─────────────────────────────────────────────────────

def type_to_term(t: Type) -> Any:
    if isinstance(t, ExtType):
        term: dict[str, Any] = {"ext": t.extension, "name": t.name}
        if t.args:
            term["args"] = [type_to_term(a) for a in t.args]
        return term
    if isinstance(t, EnumType):
        return {"enum": t.cardinality}
    if isinstance(t, FunctionType):
        return {"fn": _sig_to_term(t.signature)}
    if isinstance(t, VarType):
        return {"var": t.index}
    raise DecodeError(f"unserialisable type {t!r}")


def term_to_type(term: Any) -> Type:
    if isinstance(term, dict):
        try:
            if "ext" in term:
                return ExtType(_str(term["ext"]), _str(term["name"]),
                               _term_to_row(term.get("args", ())))
            if "enum" in term:
                return EnumType(_int(term["enum"]))
            if "fn" in term:
                return FunctionType(_term_to_sig(term["fn"]))
            if "var" in term:
                return VarType(_int(term["var"]))
        except _MALFORMED as exc:
            raise DecodeError(f"malformed type term {term!r}: {exc}") from exc
    raise DecodeError(f"malformed type term {term!r}")


def _row(types: tuple[Type, ...]) -> list[Any]:
    return [type_to_term(t) for t in types]


def _term_to_row(term: Any) -> tuple[Type, ...]:
    return tuple(term_to_type(t) for t in term)


def _sig_to_term(sig: Signature) -> Any:
    return {"inputs": _row(sig.inputs), "outputs": _row(sig.outputs)}


def _term_to_sig(term: Any) -> Signature:
    try:
        return Signature(_term_to_row(term["inputs"]), _term_to_row(term["outputs"]))
    except _MALFORMED as exc:
        raise DecodeError(f"malformed signature {term!r}") from exc


def scheme_to_term(s: PolySignature) -> Any:
    return {"params": s.param_count, **_sig_to_term(s.body)}


def term_to_scheme(term: Any) -> PolySignature:
    try:
        return PolySignature(_int(term["params"]), _term_to_sig(term))
    except _MALFORMED as exc:
        raise DecodeError(f"malformed signature scheme {term!r}") from exc


# ── op terms ───────────────────────────────────────────────────────

class _Codec(NamedTuple):
    """How one op field becomes JSON and back, and the types it holds."""

    encode: Callable[[Any], Any]
    decode: Callable[[Any], Any]
    types: Callable[[Any], tuple[Type, ...]]


def _same(value: Any) -> Any:
    return value


def _of(cls: type, value: Any) -> Any:
    """``value``, if JSON gave it as a ``cls``: ``true`` is no integer here."""
    if type(value) is not cls:
        raise TypeError(f"expected a JSON {cls.__name__}, got {value!r}")
    return value


_str = partial(_of, str)
_int = partial(_of, int)


def _no_types(value: Any) -> tuple[Type, ...]:
    return ()


_AS_IS = _Codec(_same, _same, _no_types)
_STR = _Codec(_same, _str, _no_types)
_INT = _Codec(_same, _int, _no_types)
_TYPE = _Codec(type_to_term, term_to_type, lambda t: (t,))
_ROW = _Codec(_row, _term_to_row, _same)
_SIG = _Codec(_sig_to_term, _term_to_sig, lambda s: s.inputs + s.outputs)
_SCHEME = _Codec(scheme_to_term, term_to_scheme, lambda s: s.body.inputs + s.body.outputs)


class _Field(NamedTuple):
    """One op attribute in its term. ``key`` None spreads the encoded
    mapping into the term; ``optional`` leaves an empty value out."""

    key: str | None
    attr: str
    codec: _Codec
    optional: bool = False


_TYPE_ARGS = _Field("type_args", "type_args", _ROW, optional=True)

# Every op kind: its "kind" name, class and fields, in canonical key order.
_OP_TERMS: tuple[tuple[str, type[OpKind], tuple[_Field, ...]], ...] = (
    ("Module", Module, ()),
    ("FuncDef", FuncDef, (_Field("name", "name", _STR), _Field("scheme", "scheme", _SCHEME))),
    ("FuncDecl", FuncDecl, (_Field("name", "name", _STR), _Field("scheme", "scheme", _SCHEME))),
    ("Input", Input, (_Field("types", "types", _ROW),)),
    ("Output", Output, (_Field("types", "types", _ROW),)),
    ("Call", Call, (_Field("scheme", "scheme", _SCHEME), _TYPE_ARGS)),
    ("LoadFunction", LoadFunction, (_Field("scheme", "scheme", _SCHEME), _TYPE_ARGS)),
    ("Const", Const, (_Field("value", "value", _AS_IS), _Field("type", "type", _TYPE))),
    ("LoadConst", LoadConst, (_Field("type", "type", _TYPE),)),
    ("Conditional", Conditional, (_Field("cardinality", "cardinality", _INT),
                                  _Field("inputs", "other_inputs", _ROW),
                                  _Field("outputs", "outputs", _ROW))),
    ("Case", Case, ()),
    ("TailLoop", TailLoop, (_Field("loop_vars", "loop_vars", _ROW),)),
    ("CFG", Cfg, (_Field(None, "signature", _SIG),)),
    ("BasicBlock", BasicBlock, (_Field("inputs", "inputs", _ROW),
                                _Field("successors", "successor_count", _INT))),
    ("ExitBlock", ExitBlock, (_Field("outputs", "outputs", _ROW),)),
    ("ExtensionOp", ExtensionOp, (_Field("ext", "extension", _STR),
                                  _Field("name", "name", _STR),
                                  _Field("signature", "signature", _SIG), _TYPE_ARGS)),
)
_BY_CLASS = {cls: (kind, fields) for kind, cls, fields in _OP_TERMS}
_BY_KIND = {kind: (cls, fields) for kind, cls, fields in _OP_TERMS}


def op_to_term(op: OpKind) -> Any:
    try:
        kind, fields = _BY_CLASS[type(op)]
    except KeyError:
        raise DecodeError(f"unserialisable op {op!r}") from None
    term: dict[str, Any] = {"kind": kind}
    for key, attr, codec, optional in fields:
        value = getattr(op, attr)
        if optional and not value:
            continue
        if key is None:
            term.update(codec.encode(value))
        else:
            term[key] = codec.encode(value)
    return term


def term_to_op(term: Any) -> OpKind:
    if not isinstance(term, dict) or "kind" not in term:
        raise DecodeError(f"malformed op term {term!r}")
    kind = term["kind"]
    entry = _BY_KIND.get(kind) if isinstance(kind, str) else None
    if entry is None:
        raise DecodeError(f"unknown op kind {kind!r}")
    cls, fields = entry
    args: dict[str, Any] = {}
    try:
        for key, attr, codec, optional in fields:
            if key is None:
                raw = term
            elif optional:
                raw = term.get(key, ())
            else:
                raw = term[key]
            args[attr] = codec.decode(raw)
        op = cls(**args)
        value_signature(op)  # bad type arguments fail here; rows wait for decode's bound
        return op
    except _MALFORMED as exc:
        raise DecodeError(f"malformed {kind} term: {exc}") from exc


# ── envelopes ──────────────────────────────────────────────────────

def _collect_extensions(ops: Iterable[OpKind]) -> list[str]:
    exts: set[str] = set()
    types: list[Type] = []
    for op in ops:
        if isinstance(op, ExtensionOp):
            exts.add(op.extension)
        for f in _BY_CLASS[type(op)][1]:
            types.extend(f.codec.types(getattr(op, f.attr)))
    while types:
        t = types.pop()
        if isinstance(t, ExtType):
            exts.add(t.extension)
            types.extend(t.args)
        elif isinstance(t, FunctionType):
            types.extend(t.signature.inputs + t.signature.outputs)
    return sorted(exts)


def _term_to_kind(name: Any, term: Any) -> PortKind:
    if name == "Value":
        return Value(term_to_type(term))
    if name == "Static":
        scheme = isinstance(term, dict) and "params" in term
        return Static(term_to_scheme(term) if scheme else term_to_type(term))
    if name == "ControlFlow":
        return ControlFlow()
    raise DecodeError(f"unknown edge kind {name!r}")


def _kind_text(kind: PortKind) -> tuple[str, str]:
    """An edge kind's name, and its ``"kind"`` and ``"type"`` members as JSON."""
    name = type(kind).__name__
    if isinstance(kind, Value):
        term = type_to_term(kind.type)
    elif isinstance(kind, Static):
        p = kind.payload
        term = scheme_to_term(p) if isinstance(p, PolySignature) else type_to_term(p)
    else:
        return name, f'"kind":{_dumps(name)}'
    return name, f'"kind":{_dumps(name)},"type":{_dumps(term)}'


def encode(h: Hugr) -> str:
    """The canonical JSON text for a graph.

    Each distinct op term, and each distinct edge kind with its type term,
    is dumped once; node and edge records are formatted around that text.
    """
    order = h.preorder()
    idmap = {old: i for i, old in enumerate(order)}
    op_text: dict[OpKind, str] = {}
    kind_text: dict[PortKind, tuple[str, str]] = {}
    nodes: list[str] = []
    edges: list[str] = []
    for i, old in enumerate(order):
        nd = h.node(old)
        text = op_text.get(nd.op)
        if text is None:
            text = op_text[nd.op] = _dumps(op_to_term(nd.op))
        parent = "null" if nd.parent is None else idmap[nd.parent]
        nodes.append(f'{{"id":{i},"parent":{parent},"op":{text}}}')
        for offset, out in enumerate(nd.out_edges):
            recs = []
            for e in out:
                kind = kind_text.get(e.kind)
                if kind is None:
                    kind = kind_text[e.kind] = _kind_text(e.kind)
                recs.append((idmap[e.dst.node], e.dst.offset, kind))
            if len(recs) > 1:  # the canonical order; ties keep insertion order
                recs.sort(key=lambda r: (r[0], r[1], r[2][0]))
            for dst, port, (_, members) in recs:
                edges.append(f'{{"src":[{i},{offset}],"dst":[{dst},{port}],{members}}}')
    return (f'{{"version":{FORMAT_VERSION},'
            f'"extensions_required":{_dumps(_collect_extensions(op_text))},'
            f'"nodes":[{",".join(nodes)}],"edges":[{",".join(edges)}]}}')


def from_document(doc: Any) -> Hugr:
    h, _ = _from_document_mapped(doc)
    return h


def _from_document_mapped(doc: Any) -> tuple[Hugr, dict[int, int]]:
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

    # a plain dict per document in front of the weak process-wide memo, so a
    # repeated term costs one C-level lookup; a document's first read of an
    # op also checks it against that document's edge count
    ops: dict[bytes, OpKind] = {}
    kinds: dict[bytes, PortKind] = {}
    by_id: dict[int, OpKind] = {}
    children: dict[int | None, list[int]] = {}
    for i, rec in enumerate(node_recs):
        try:
            nid, parent, term = rec["id"], rec["parent"], rec["op"]
        except (KeyError, TypeError) as exc:
            raise DecodeError(f"nodes[{i}]: malformed node record {rec!r}") from exc
        if type(nid) is not int or (parent is not None and type(parent) is not int):
            raise DecodeError(f"nodes[{i}]: malformed node record {rec!r}")
        if nid in by_id:
            raise DecodeError(f"nodes[{i}]: duplicate node id {nid}")
        try:
            key = _term_key(term)
            op = ops.get(key)
            if op is None:
                op = _OPS.get(key)
                if op is None:
                    op = _OPS[key] = term_to_op(term)
                # a valid block has a control edge, and so a port, per successor
                if isinstance(op, BasicBlock) and op.successor_count > len(edge_recs):
                    raise DecodeError(f"{op.successor_count} successors but "
                                      f"{len(edge_recs)} edges in the document")
                ops[key] = op
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

    # new ids in hierarchy preorder, as add_node calls in that order give
    h = Hugr(by_id[roots[0]])
    idmap = {roots[0]: h.root}
    stack = [(c, h.root) for c in reversed(children.get(roots[0], []))]
    while stack:
        nid, parent = stack.pop()
        idmap[nid] = new = h.add_node(by_id[nid], parent)
        stack.extend((c, new) for c in reversed(children.get(nid, [])))
    if len(idmap) != len(by_id):
        raise DecodeError("hierarchy contains unreachable nodes (parent cycle?)")

    for i, rec in enumerate(edge_recs):
        try:
            (sn, so), (dn, do) = rec["src"], rec["dst"]
            name, term = rec["kind"], rec.get("type")
        except (KeyError, TypeError, ValueError) as exc:
            raise DecodeError(f"edges[{i}]: malformed edge record {rec!r}") from exc
        if not type(sn) is type(so) is type(dn) is type(do) is int:
            raise DecodeError(f"edges[{i}]: malformed edge record {rec!r}")
        if sn not in idmap or dn not in idmap:
            raise DecodeError(f"edges[{i}]: edge references unknown node in {rec!r}")
        try:
            key = _term_key((name, term))
            kind = kinds.get(key)
            if kind is None:
                kind = _KINDS.get(key)
                if kind is None:
                    kind = _KINDS[key] = _term_to_kind(name, term)
                kinds[key] = kind
        except DecodeError as exc:
            raise DecodeError(f"edges[{i}].type: {exc}") from exc
        try:
            h.connect(out_port(idmap[sn], so), in_port(idmap[dn], do), kind)
        except GraphError as exc:
            raise DecodeError(f"edges[{i}]: cannot connect {rec!r}: {exc}") from exc
    return h, idmap


def decode(text: str) -> Hugr:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DecodeError(f"not valid JSON: {exc}") from exc
    return from_document(doc)


def structurally_equal(a: Hugr, b: Hugr) -> bool:
    """Canonical-form equality; the structural-equality oracle."""
    return encode(a) == encode(b)


# ── extension declaration files ────────────────────────────────────

def encode_extension(e: Extension) -> str:
    doc = {
        "id": e.id,
        "types": [{"name": t.name, "linear": t.linear, "arity": t.arity} for t in e.types],
        "ops": [{"name": o.name, "scheme": scheme_to_term(o.scheme), "doc": o.doc}
                for o in e.ops],
    }
    return _dumps(doc)


def decode_extension(text: str) -> Extension:
    try:
        doc = json.loads(text)
        return Extension(
            _str(doc["id"]),
            tuple(TypeDef(_str(t["name"]), _of(bool, t["linear"]), _int(t.get("arity", 0)))
                  for t in doc.get("types", [])),
            tuple(OpDef(_str(o["name"]), term_to_scheme(o["scheme"]), _str(o.get("doc", "")))
                  for o in doc.get("ops", [])),
        )
    except (*_MALFORMED, OpError) as exc:
        raise DecodeError(f"malformed extension declaration: {exc}") from exc


# ── rewrite rule files ─────────────────────────────────────────────

def encode_rule(rule) -> str:
    """Serialize a rewrite rule (lhs/rhs fragments, anchor, name)."""
    anchor = rule.lhs.hugr.preorder().index(rule.lhs.anchor)
    return (f'{{"name":{_dumps(rule.name)},"anchor":{anchor},'
            f'"lhs":{encode(rule.lhs.hugr)},"rhs":{encode(rule.rhs)}}}')


def decode_rule(text: str):
    from .rewrite import Pattern, RewriteError, RewriteRule

    try:
        doc = json.loads(text)
        lhs_h, lhs_map = _from_document_mapped(doc["lhs"])
        rhs = from_document(doc["rhs"])
        anchor_doc_id = _int(doc["anchor"])
        name = _str(doc["name"])
    except _MALFORMED as exc:
        raise DecodeError(f"malformed rule file: {exc}") from exc
    if anchor_doc_id not in lhs_map:
        raise DecodeError(f"rule anchor {anchor_doc_id} is not a node of the lhs")
    try:
        return RewriteRule(Pattern(lhs_h, lhs_map[anchor_doc_id]), rhs, name)
    except RewriteError as exc:
        raise DecodeError(f"invalid rule {name!r}: {exc}") from exc
