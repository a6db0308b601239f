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
from typing import Any

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
        return {"fn": {"inputs": [type_to_term(x) for x in t.signature.inputs],
                       "outputs": [type_to_term(x) for x in t.signature.outputs]}}
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
        fn = term["fn"]
        return FunctionType(Signature(
            tuple(term_to_type(x) for x in fn["inputs"]),
            tuple(term_to_type(x) for x in fn["outputs"])))
    if "var" in term:
        return VarType(int(term["var"]))
    raise DecodeError(f"malformed type term {term!r}")


def scheme_to_term(s: PolySignature) -> Any:
    return {"params": s.param_count,
            "inputs": [type_to_term(t) for t in s.body.inputs],
            "outputs": [type_to_term(t) for t in s.body.outputs]}


def term_to_scheme(term: Any) -> PolySignature:
    try:
        return PolySignature(int(term["params"]), Signature(
            tuple(term_to_type(t) for t in term["inputs"]),
            tuple(term_to_type(t) for t in term["outputs"])))
    except (KeyError, TypeError) as exc:
        raise DecodeError(f"malformed signature scheme {term!r}") from exc


def _sig_to_term(sig: Signature) -> Any:
    return {"inputs": [type_to_term(t) for t in sig.inputs],
            "outputs": [type_to_term(t) for t in sig.outputs]}


def _term_to_sig(term: Any) -> Signature:
    try:
        return Signature(tuple(term_to_type(t) for t in term["inputs"]),
                         tuple(term_to_type(t) for t in term["outputs"]))
    except (KeyError, TypeError) as exc:
        raise DecodeError(f"malformed signature {term!r}") from exc


def _payload_to_term(payload: Type | PolySignature) -> Any:
    if isinstance(payload, PolySignature):
        return scheme_to_term(payload)
    return type_to_term(payload)


def _term_to_payload(term: Any) -> Type | PolySignature:
    if isinstance(term, dict) and "params" in term:
        return term_to_scheme(term)
    return term_to_type(term)


# ── op terms ───────────────────────────────────────────────────────

def _row(types) -> list[Any]:
    return [type_to_term(t) for t in types]


def op_to_term(op: OpKind) -> Any:
    if isinstance(op, Module):
        return {"kind": "Module"}
    if isinstance(op, FuncDef):
        return {"kind": "FuncDef", "name": op.name, "scheme": scheme_to_term(op.scheme)}
    if isinstance(op, FuncDecl):
        return {"kind": "FuncDecl", "name": op.name, "scheme": scheme_to_term(op.scheme)}
    if isinstance(op, Input):
        return {"kind": "Input", "types": _row(op.types)}
    if isinstance(op, Output):
        return {"kind": "Output", "types": _row(op.types)}
    if isinstance(op, Call):
        term = {"kind": "Call", "scheme": scheme_to_term(op.scheme)}
        if op.type_args:
            term["type_args"] = _row(op.type_args)
        return term
    if isinstance(op, LoadFunction):
        term = {"kind": "LoadFunction", "scheme": scheme_to_term(op.scheme)}
        if op.type_args:
            term["type_args"] = _row(op.type_args)
        return term
    if isinstance(op, Const):
        return {"kind": "Const", "value": op.value, "type": type_to_term(op.type)}
    if isinstance(op, LoadConst):
        return {"kind": "LoadConst", "type": type_to_term(op.type)}
    if isinstance(op, Conditional):
        return {"kind": "Conditional", "cardinality": op.cardinality,
                "inputs": _row(op.other_inputs), "outputs": _row(op.outputs)}
    if isinstance(op, Case):
        return {"kind": "Case"}
    if isinstance(op, TailLoop):
        return {"kind": "TailLoop", "loop_vars": _row(op.loop_vars)}
    if isinstance(op, Cfg):
        return {"kind": "CFG", "inputs": _row(op.signature.inputs),
                "outputs": _row(op.signature.outputs)}
    if isinstance(op, BasicBlock):
        return {"kind": "BasicBlock", "inputs": _row(op.inputs),
                "successors": op.successor_count}
    if isinstance(op, ExitBlock):
        return {"kind": "ExitBlock", "outputs": _row(op.outputs)}
    if isinstance(op, ExtensionOp):
        term = {"kind": "ExtensionOp", "ext": op.extension, "name": op.name,
                "signature": _sig_to_term(op.signature)}
        if op.type_args:
            term["type_args"] = _row(op.type_args)
        return term
    raise DecodeError(f"unserialisable op {op!r}")


def term_to_op(term: Any) -> OpKind:
    if not isinstance(term, dict) or "kind" not in term:
        raise DecodeError(f"malformed op term {term!r}")
    kind = term["kind"]
    try:
        if kind == "Module":
            return Module()
        if kind == "FuncDef":
            return FuncDef(term["name"], term_to_scheme(term["scheme"]))
        if kind == "FuncDecl":
            return FuncDecl(term["name"], term_to_scheme(term["scheme"]))
        if kind == "Input":
            return Input(tuple(term_to_type(t) for t in term["types"]))
        if kind == "Output":
            return Output(tuple(term_to_type(t) for t in term["types"]))
        if kind == "Call":
            return Call(tuple(term_to_type(t) for t in term.get("type_args", [])),
                        term_to_scheme(term["scheme"]))
        if kind == "LoadFunction":
            return LoadFunction(tuple(term_to_type(t) for t in term.get("type_args", [])),
                                term_to_scheme(term["scheme"]))
        if kind == "Const":
            ty = term_to_type(term["type"])
            value = term["value"]
            value = float(value) if ty == F64 else value
            return Const(value, ty)
        if kind == "LoadConst":
            return LoadConst(term_to_type(term["type"]))
        if kind == "Conditional":
            return Conditional(int(term["cardinality"]),
                               tuple(term_to_type(t) for t in term["inputs"]),
                               tuple(term_to_type(t) for t in term["outputs"]))
        if kind == "Case":
            return Case()
        if kind == "TailLoop":
            return TailLoop(tuple(term_to_type(t) for t in term["loop_vars"]))
        if kind == "CFG":
            return Cfg(Signature(tuple(term_to_type(t) for t in term["inputs"]),
                                 tuple(term_to_type(t) for t in term["outputs"])))
        if kind == "BasicBlock":
            return BasicBlock(tuple(term_to_type(t) for t in term["inputs"]),
                              int(term["successors"]))
        if kind == "ExitBlock":
            return ExitBlock(tuple(term_to_type(t) for t in term["outputs"]))
        if kind == "ExtensionOp":
            return ExtensionOp(term["ext"], term["name"],
                               tuple(term_to_type(t) for t in term.get("type_args", [])),
                               _term_to_sig(term["signature"]))
    except (KeyError, TypeError) as exc:
        raise DecodeError(f"malformed {kind} term: {exc}") from exc
    raise DecodeError(f"unknown op kind {kind!r}")


# ── envelopes ──────────────────────────────────────────────────────

_KIND_NAMES = {"Value": Value, "Static": Static, "ControlFlow": ControlFlow}


def _collect_extensions(h: Hugr) -> list[str]:
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
        "extensions_required": _collect_extensions(h),
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
