"""Connectivity of Boolean solution graphs over arbitrary finite bases.

The solution graph of a formula/circuit is the subgraph of the n-cube
induced by its satisfying assignments.  This package classifies a base
in the lattice of closed classes, decides connectivity and
st-connectivity in polynomial time on the tractable side of the
dichotomy, enumerates exhaustively otherwise, and generates the
hard-side reduction instances and exponential-diameter witnesses.

Package names resolve on first use (PEP 562): `import bconn` loads no
submodule, and `bconn.X` or `from bconn import X` loads X's module and
what it imports.  The CLI does the same per call, so a `python -m
bconn.cli` child loads only the modules its input kind and subcommand
run: a `--rel` query, for one, never compiles the synthesizer, the
lattice tables or the deciders, and `closure`, `reduce` of a
1-reproducing CNF or a query the polynomial deciders answer never
compiles the graph engine.
"""

import sys

_NAMES = {
    "circuits": "parse_circuit print_circuit",
    "clones": (
        "STANDARD_BASE BaseSet DichotomyVerdict clone_closure clone_identify "
        "dispatch parse_base_file print_base_file"
    ),
    "cnf": "CnfFormula cnf_to_formula parse_dimacs print_dimacs",
    "easy": (
        "EasyAnswer linear_decide linear_form_of monotone_decide "
        "qbf_easy_decide zerosep_decide"
    ),
    "errors": (
        "ArityMismatch ArityOverflow BadCharacter BadThreshold BconnError "
        "BudgetError BudgetExceeded DegreeBoundTooSmall DuplicateName "
        "EmptyClause FormulaSyntaxError ForwardReference HeaderMismatch "
        "KTooLarge LengthMismatch LiteralOutOfRange MissingOutput "
        "MissingVariable NonAffineBaseFunction NotASolution NotOneReproducing "
        "NotRealizable SizeOverflow TooLarge UnknownClass UnknownFunction "
        "UsageError WitnessBudgetExceeded WrongClass"
    ),
    "formulas": "formula_size parse_formula print_formula",
    "graph": (
        "EXACT LOWER_BOUND ComponentLabeling SolutionSet components diameter "
        "enumerate_solutions export_dot is_connected is_induced_path "
        "parse_relation print_relation random_relation shortest_path"
    ),
    "properties": (
        "ALL affine_form_of is_affine is_monotone is_reproducing "
        "is_self_dual is_separating max_separation_degree property_report "
        "separating_coordinate"
    ),
    "qbf": "EXISTS FORALL parse_qbf print_qbf",
    "reduce": (
        "TVariant apply_t_relation gen_expdiam "
        "shift_to_one_reproducing synth_bformula t_transform tr_combine"
    ),
    "semantics": "evaluate min_dimension truth_table_of",
    "truthtable": (
        "BitVector LinearForm TruthTable dual threshold_tt tt_eval tt_parse "
        "tt_print var_mask"
    ),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names.split()}
__all__ = sorted(_HOME)


def _load(module: str):
    """The submodule, imported on first request."""
    __import__(f"{__name__}.{module}")
    return sys.modules[f"{__name__}.{module}"]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_load(_HOME[name]), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


def _later(module: str, name: str):
    """A stand-in for `name` of a submodule that loads the module when
    called, then calls through.  It never rebinds itself, so a wrapper
    set over it where it is bound stays in place."""

    def call(*args, **kwargs):
        return getattr(_load(module), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call
