"""Hierarchical typed port-graph IR for mixed quantum-classical programs.

Only the reference evaluator (``hugr run``, :class:`Interpreter`,
:func:`unitary_of` and the rest of :mod:`hugr_ir.interp`) needs numpy. Its
names are imported on first access, so reading, validating, rewriting,
structuring and writing graphs never load numpy.
"""

import importlib

from .build import CfgBuilder, DfBuilder, ModuleBuilder, new_module, splice_region
from .graph import Direction, Edge, GraphError, Hugr, Port, in_port, out_port
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
    Output,
    Registry,
    Static,
    TailLoop,
    TypeDef,
    Value,
    ext_op,
    port_rows,
    register,
    signature_of,
    stdlib,
    value_signature,
)
from .rewrite import (
    Match,
    Pattern,
    RewriteDelta,
    RewriteRule,
    StaleMatch,
    ValidationFailed,
    WouldCreateCycle,
    apply,
    find_matches,
    saturate,
    undo,
    wildcard,
)
from .serial import DecodeError, decode, encode, structurally_equal
from .structure import (
    CfgView,
    IrreducibleCfg,
    dominators,
    is_reducible,
    loop_candidates,
    structure_all,
    structure_cfg,
)
from .types import (
    BOOL,
    F64,
    I64,
    QUBIT,
    EnumType,
    ExtType,
    FunctionType,
    PolySignature,
    Signature,
    Type,
    VarType,
    instantiate,
    is_linear,
    monomorphic,
    types_equal,
)
from .validate import Code, Diagnostic, validate, validate_region

__version__ = "0.1.0"

_EVALUATOR = frozenset({
    "EnumValue", "F64Value", "FnValue", "I64Value", "Interpreter", "InterpError", "QubitValue",
    "Scripted", "Seeded", "bool_value", "run", "state_fidelity", "unitary_fidelity", "unitary_of",
})


def __getattr__(name: str):
    # PEP 562: the evaluator, and numpy with it, is imported on first access
    if name != "interp" and name not in _EVALUATOR:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    interp = importlib.import_module(".interp", __name__)
    return interp if name == "interp" else getattr(interp, name)
