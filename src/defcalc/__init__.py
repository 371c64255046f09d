"""Concolic test generation for a small functional language with first-class
default terms: exhaustive path exploration of loop-free programs, conflict
and empty-outcome detection, and replayable testcases."""

from .lang import (
    BOOL, CONFLICT, EMPTY, INT, MONEY, RAT,
    BinOp, Binding, Call, Default, EnumMake, EnumT, FieldGet, Function, If,
    Let, Lit, Match, MatchArm, Not, Program, Scope, StructMake, StructT, Var,
    VBool, VConflict, VEmpty, VEnum, VInt, VMoney, VRat, VStruct,
    free_input_vars, money, rat, validate,
)
from .parser import parse, parse_or_raise, print_expr, print_program, print_value
from .interp import Mode, Outcome, OutcomeKind, eval_expr, round_rat, run_scope
from .concolic import (
    BranchRecord, CompiledScope, ConcolicOpts, Origin, compile_scope,
    run_scope_concolic,
)
from .solver import Query, Sat, SolverSession, Unknown, Unsat, simplify
from .smtlib import ExternalSolver, emit_smtlib
from .explorer import ExploreConfig, TestSuite, Testcase, explore
from .testkit import (
    MutationOp, emit_suite, mutate, mutation_campaign, replay,
)
from .transforms import (
    fold_match_cases, fold_program, reorder_exceptions, simplify_frontend,
)

__version__ = "0.1.0"
