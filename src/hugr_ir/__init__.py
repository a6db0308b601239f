"""Hierarchical typed port-graph IR for mixed quantum-classical programs.

Importing the package loads the types, ops, graph, serial and validate
modules: what reading, checking and writing a graph needs. The modules only
some commands need are imported on first access to one of their names:
:mod:`~hugr_ir.build`, :mod:`~hugr_ir.rewrite` (``hugr optimize``),
:mod:`~hugr_ir.structure` (``hugr structure``) and the reference evaluator
:mod:`~hugr_ir.interp` (``hugr run``), which alone needs numpy.
"""

import importlib

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
from .serial import DecodeError, decode, encode, structurally_equal
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

# the names of the modules only some commands need, imported on first access
_LAZY = {name: module for module, names in {
    "build": ("CfgBuilder", "DfBuilder", "ModuleBuilder", "new_module", "splice_region"),
    "interp": ("EnumValue", "F64Value", "FnValue", "I64Value", "Interpreter", "InterpError",
               "QubitValue", "Scripted", "Seeded", "bool_value", "run", "state_fidelity",
               "unitary_fidelity", "unitary_of"),
    "rewrite": ("Match", "Pattern", "RewriteDelta", "RewriteRule", "StaleMatch",
                "ValidationFailed", "WouldCreateCycle", "apply", "find_matches", "saturate",
                "undo", "wildcard"),
    "structure": ("CfgView", "IrreducibleCfg", "is_reducible", "structure_all", "structure_cfg"),
}.items() for name in (module, *names)}


def __getattr__(name: str):
    # PEP 562: called only for names the package does not hold yet
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = importlib.import_module(f".{module}", __name__)
    return loaded if name == module else getattr(loaded, name)
