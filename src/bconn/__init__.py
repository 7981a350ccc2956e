"""Connectivity of Boolean solution graphs over arbitrary finite bases.

The solution graph of a formula/circuit is the subgraph of the n-cube
induced by its satisfying assignments.  This package classifies a base
in the lattice of closed classes, decides connectivity and
st-connectivity in polynomial time on the tractable side of the
dichotomy, enumerates exhaustively otherwise, and generates the
hard-side reduction instances and exponential-diameter witnesses.
"""

from .circuits import parse_circuit, print_circuit
from .clones import (
    STANDARD_BASE,
    BaseSet,
    DichotomyVerdict,
    clone_closure,
    clone_identify,
    dispatch,
    parse_base_file,
    print_base_file,
)
from .cnf import CnfFormula, cnf_to_formula, parse_dimacs, print_dimacs
from .easy import (
    EasyAnswer,
    linear_decide,
    linear_form_of,
    monotone_decide,
    qbf_easy_decide,
    zerosep_decide,
)
from .errors import (
    ArityMismatch,
    ArityOverflow,
    BadCharacter,
    BadThreshold,
    BconnError,
    BudgetError,
    BudgetExceeded,
    DegreeBoundTooSmall,
    DuplicateName,
    EmptyClause,
    FormulaSyntaxError,
    ForwardReference,
    HeaderMismatch,
    KTooLarge,
    LengthMismatch,
    LiteralOutOfRange,
    MissingOutput,
    MissingVariable,
    NonAffineBaseFunction,
    NotASolution,
    NotOneReproducing,
    NotRealizable,
    SizeOverflow,
    TooLarge,
    UnknownClass,
    UnknownFunction,
    UsageError,
    WitnessBudgetExceeded,
    WrongClass,
)
from .formulas import (
    Apply,
    FormulaAst,
    Var,
    formula_size,
    formula_vars,
    parse_formula,
    print_formula,
    substitute,
)
from .graph import (
    EXACT,
    LOWER_BOUND,
    ComponentLabeling,
    SolutionSet,
    components,
    diameter,
    enumerate_solutions,
    export_dot,
    is_connected,
    is_induced_path,
    parse_relation,
    print_relation,
    random_relation,
    shortest_path,
)
from .properties import (
    ALL,
    PropertyReport,
    affine_form_of,
    is_affine,
    is_monotone,
    is_reproducing,
    is_self_dual,
    is_separating,
    max_separation_degree,
    property_report,
    separating_coordinate,
)
from .qbf import EXISTS, FORALL, QuantifiedFormula, parse_qbf, print_qbf
from .reduce import (
    SynthBudget,
    TVariant,
    apply_t_relation,
    gen_expdiam,
    shift_to_one_reproducing,
    synth_bformula,
    t_transform,
    tr_combine,
)
from .semantics import evaluate, min_dimension, truth_table_of
from .truthtable import (
    BitVector,
    LinearForm,
    TruthTable,
    dual,
    threshold_tt,
    tt_eval,
    tt_parse,
    tt_print,
    var_mask,
)
