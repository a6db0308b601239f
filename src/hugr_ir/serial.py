"""Deterministic JSON interchange for graphs, extensions and rewrite rules.

The encoding is canonical: node ids are densely re-indexed in hierarchy
preorder and edges sorted, so two structurally equal graphs produce identical
bytes regardless of construction history. ``encode(decode(encode(h)))`` is
byte-for-byte ``encode(h)``. Canonical equality doubles as the structural
equality oracle used by tests.

File conventions: ``.hugr.json`` for graphs, ``.hugrext.json`` for extension
declarations, ``.hugrrule.json`` for rewrite rules.
"""

from __future__ import annotations

import json
import warnings
from typing import Any, Callable, Iterable, NamedTuple

from .graph import Direction, Hugr, Port
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
    OpKind,
    Output,
    Static,
    TailLoop,
    TypeDef,
    Value,
)
from .types import (
    EnumType,
    ExtType,
    F64,
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
    if not isinstance(term, dict):
        raise DecodeError(f"malformed type term {term!r}")
    if "ext" in term:
        args = tuple(term_to_type(a) for a in term.get("args", []))
        return ExtType(term["ext"], term["name"], args)
    if "enum" in term:
        return EnumType(int(term["enum"]))
    if "fn" in term:
        return FunctionType(_term_to_sig(term["fn"]))
    if "var" in term:
        return VarType(int(term["var"]))
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
    except (KeyError, TypeError) as exc:
        raise DecodeError(f"malformed signature {term!r}") from exc


def scheme_to_term(s: PolySignature) -> Any:
    return {"params": s.param_count, **_sig_to_term(s.body)}


def term_to_scheme(term: Any) -> PolySignature:
    try:
        return PolySignature(int(term["params"]), _term_to_sig(term))
    except (KeyError, TypeError, ValueError, TypeError_) as exc:
        raise DecodeError(f"malformed signature scheme {term!r}") from exc


def _payload_to_term(payload: Type | PolySignature) -> Any:
    if isinstance(payload, PolySignature):
        return scheme_to_term(payload)
    return type_to_term(payload)


def _term_to_payload(term: Any) -> Type | PolySignature:
    if isinstance(term, dict) and "params" in term:
        return term_to_scheme(term)
    return term_to_type(term)


# ── op terms ───────────────────────────────────────────────────────

class _Codec(NamedTuple):
    """How one op field becomes JSON and back, and the types it holds."""

    encode: Callable[[Any], Any]
    decode: Callable[[Any], Any]
    types: Callable[[Any], tuple[Type, ...]]


def _same(value: Any) -> Any:
    return value


def _no_types(value: Any) -> tuple[Type, ...]:
    return ()


_AS_IS = _Codec(_same, _same, _no_types)
_INT = _Codec(_same, int, _no_types)
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
    ("FuncDef", FuncDef, (_Field("name", "name", _AS_IS), _Field("scheme", "scheme", _SCHEME))),
    ("FuncDecl", FuncDecl, (_Field("name", "name", _AS_IS), _Field("scheme", "scheme", _SCHEME))),
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
    ("ExtensionOp", ExtensionOp, (_Field("ext", "extension", _AS_IS),
                                  _Field("name", "name", _AS_IS),
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
        # f64 constants evaluate as floats even when written as JSON integers
        if cls is Const and args["type"] == F64:
            args["value"] = float(args["value"])
        return cls(**args)
    except (KeyError, TypeError, ValueError, TypeError_) as exc:
        raise DecodeError(f"malformed {kind} term: {exc}") from exc


# ── envelopes ──────────────────────────────────────────────────────

_KIND_NAMES = {"Value": Value, "Static": Static, "ControlFlow": ControlFlow}


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


def to_document(h: Hugr) -> dict[str, Any]:
    """The canonical JSON document for a graph."""
    order = h.preorder()
    idmap = {old: i for i, old in enumerate(order)}
    nodes = []
    for old in order:
        nd = h.node(old)
        nodes.append({
            "id": idmap[old],
            "parent": None if nd.parent is None else idmap[nd.parent],
            "op": op_to_term(nd.op),
        })
    edges = []
    for e in h.all_edges():
        rec: dict[str, Any] = {
            "src": [idmap[e.src.node], e.src.offset],
            "dst": [idmap[e.dst.node], e.dst.offset],
            "kind": type(e.kind).__name__,
        }
        if isinstance(e.kind, Value):
            rec["type"] = type_to_term(e.kind.type)
        elif isinstance(e.kind, Static):
            rec["type"] = _payload_to_term(e.kind.payload)
        edges.append(rec)
    edges.sort(key=lambda r: (r["src"][0], r["src"][1], r["dst"][0], r["dst"][1], r["kind"]))
    return {
        "version": FORMAT_VERSION,
        "extensions_required": _collect_extensions(h.op(n) for n in order),
        "nodes": nodes,
        "edges": edges,
    }


def encode(h: Hugr) -> str:
    return json.dumps(to_document(h), separators=(",", ":"))


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

    by_id: dict[int, Any] = {}
    children: dict[int | None, list[int]] = {}
    for rec in node_recs:
        try:
            nid, parent = int(rec["id"]), rec["parent"]
        except (KeyError, TypeError) as exc:
            raise DecodeError(f"malformed node record {rec!r}") from exc
        if nid in by_id:
            raise DecodeError(f"duplicate node id {nid}")
        by_id[nid] = rec
        children.setdefault(None if parent is None else int(parent), []).append(nid)

    roots = children.get(None, [])
    if len(roots) != 1:
        raise DecodeError(f"document must have exactly one root node, found {len(roots)}")
    for parent in children:
        if parent is not None and parent not in by_id:
            raise DecodeError(f"node references unknown parent {parent}")

    h = Hugr(term_to_op(by_id[roots[0]]["op"]))
    idmap = {roots[0]: h.root}
    stack = [(c, h.root) for c in reversed(children.get(roots[0], []))]
    while stack:
        nid, parent = stack.pop()
        new = h.add_node(term_to_op(by_id[nid]["op"]), parent)
        idmap[nid] = new
        stack.extend((c, new) for c in reversed(children.get(nid, [])))
    if len(idmap) != len(by_id):
        raise DecodeError("hierarchy contains unreachable nodes (parent cycle?)")

    for rec in edge_recs:
        try:
            (sn, so), (dn, do) = rec["src"], rec["dst"]
            kind_cls = _KIND_NAMES[rec["kind"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise DecodeError(f"malformed edge record {rec!r}") from exc
        if int(sn) not in idmap or int(dn) not in idmap:
            raise DecodeError(f"edge references unknown node in {rec!r}")
        if kind_cls is Value:
            kind = Value(term_to_type(rec["type"]))
        elif kind_cls is Static:
            kind = Static(_term_to_payload(rec["type"]))
        else:
            kind = ControlFlow()
        src = Port(idmap[int(sn)], Direction.OUT, int(so))
        dst = Port(idmap[int(dn)], Direction.IN, int(do))
        try:
            h.connect(src, dst, kind)
        except Exception as exc:
            raise DecodeError(f"cannot connect {rec!r}: {exc}") from exc
    return h, idmap


def decode(text: str) -> Hugr:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
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
    return json.dumps(doc, separators=(",", ":"))


def decode_extension(text: str) -> Extension:
    try:
        doc = json.loads(text)
        return Extension(
            doc["id"],
            tuple(TypeDef(t["name"], bool(t["linear"]), int(t.get("arity", 0)))
                  for t in doc.get("types", [])),
            tuple(OpDef(o["name"], term_to_scheme(o["scheme"]), o.get("doc", ""))
                  for o in doc.get("ops", [])),
        )
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise DecodeError(f"malformed extension declaration: {exc}") from exc


# ── rewrite rule files ─────────────────────────────────────────────

def encode_rule(rule) -> str:
    """Serialize a rewrite rule (lhs/rhs fragments, anchor, name)."""
    lhs_doc = to_document(rule.lhs.hugr)
    order = rule.lhs.hugr.preorder()
    idmap = {old: i for i, old in enumerate(order)}
    doc = {
        "name": rule.name,
        "anchor": idmap[rule.lhs.anchor],
        "lhs": lhs_doc,
        "rhs": to_document(rule.rhs),
    }
    return json.dumps(doc, separators=(",", ":"))


def decode_rule(text: str):
    from .rewrite import Pattern, RewriteError, RewriteRule

    try:
        doc = json.loads(text)
        lhs_h, lhs_map = _from_document_mapped(doc["lhs"])
        rhs = from_document(doc["rhs"])
        anchor_doc_id = int(doc["anchor"])
        name = doc["name"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise DecodeError(f"malformed rule file: {exc}") from exc
    if anchor_doc_id not in lhs_map:
        raise DecodeError(f"rule anchor {anchor_doc_id} is not a node of the lhs")
    try:
        return RewriteRule(Pattern(lhs_h, lhs_map[anchor_doc_id]), rhs, name)
    except RewriteError as exc:
        raise DecodeError(f"invalid rule {name!r}: {exc}") from exc
