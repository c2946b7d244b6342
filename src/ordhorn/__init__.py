"""Quantified constraint satisfaction over Ord-Horn temporal relations.

The package centers on a polynomial-time clause-deriving solver for
quantified M+ constraints over the rationals, cross-validated by an exact
game-tree oracle, together with a proof-system saturation engine, a
polymorphism-based relation classifier, and a coNP-hardness gadget
generator.
"""

from .formula import (
    Atom,
    NotPivotedError,
    OhClause,
    ParseError,
    QcspInstance,
    QfFormula,
    normalize,
    parse_instance,
    parse_relation,
    print_instance,
)
from .game import Move, brute_solve, play_against
from .ohsat import OhConjunction, entails, oh_sat
from .orders import WeakOrder, apply_op, enumerate_weak_orders, eval_qf
from .proofsystem import FactBase, check_cover, ep_move, saturate
from .relations import TemporalRelation, catalogue
from .solver import Verdict, compile_to_mplus, cut_set, solve, up_set

__all__ = [
    "Atom",
    "FactBase",
    "Move",
    "NotPivotedError",
    "OhClause",
    "OhConjunction",
    "ParseError",
    "QcspInstance",
    "QfFormula",
    "TemporalRelation",
    "Verdict",
    "WeakOrder",
    "apply_op",
    "brute_solve",
    "catalogue",
    "check_cover",
    "compile_to_mplus",
    "cut_set",
    "entails",
    "enumerate_weak_orders",
    "ep_move",
    "eval_qf",
    "normalize",
    "oh_sat",
    "parse_instance",
    "parse_relation",
    "play_against",
    "print_instance",
    "saturate",
    "solve",
    "up_set",
]

__version__ = "0.1.0"
