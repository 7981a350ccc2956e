"""Command-line surface for classification, connectivity, and reductions.

Exit codes: 0 = query answered; 1 = negative answer when --exit-status
is set; 2 = usage error (including --mode poly on an intractable base);
3 = budget exceeded or a refusal to run an intractable instance.

AUTO mode runs the polynomial algorithms whenever the base dispatches
as tractable, falls back to exhaustive enumeration otherwise, and
refuses (exit 3) when enumeration would blow the budget.

Only the error and truth-table layers load with this module.  Every
other function the commands call is a stand-in that loads its module on
first call, and constants and classes are imported in the command that
uses them, so a query compiles only the modules it runs: `classify`,
`closure`, `reduce --cnf` and a query the polynomial deciders answer
never load the graph engine.  A relation is told apart by
its input flag (--rel), not by its class.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import ExitStack, contextmanager, suppress
from itertools import repeat

from . import _later
from .errors import (
    BconnError,
    BudgetError,
    BudgetExceeded,
    NotRealizable,
    TooLarge,
    UsageError,
    WitnessBudgetExceeded,
    WrongClass,
    charge,
)
from .truthtable import BitVector, tt_print

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .clones import BaseSet
    from .easy import EasyAnswer
    from .graph import SolutionSet
    from .reduce import TVariant

parse_circuit = _later("circuits", "parse_circuit")
clone_closure = _later("clones", "clone_closure")
clone_identify = _later("clones", "clone_identify")
dispatch = _later("clones", "dispatch")
parse_base_file = _later("clones", "parse_base_file")
cnf_to_formula = _later("cnf", "cnf_to_formula")
parse_dimacs = _later("cnf", "parse_dimacs")
linear_decide = _later("easy", "linear_decide")
monotone_decide = _later("easy", "monotone_decide")
qbf_easy_decide = _later("easy", "qbf_easy_decide")
zerosep_decide = _later("easy", "zerosep_decide")
parse_formula = _later("formulas", "parse_formula")
print_formula = _later("formulas", "print_formula")
check_dot_size = _later("graph", "check_dot_size")
components = _later("graph", "components")
diameter = _later("graph", "diameter")
enumerate_solutions = _later("graph", "enumerate_solutions")
export_dot = _later("graph", "export_dot")
parse_relation = _later("graph", "parse_relation")
print_relation = _later("graph", "print_relation")
random_relation = _later("graph", "random_relation")
shortest_path = _later("graph", "shortest_path")
parse_qbf = _later("qbf", "parse_qbf")
print_qbf = _later("qbf", "print_qbf")
apply_t_relation = _later("reduce", "apply_t_relation")
gen_expdiam = _later("reduce", "gen_expdiam")
shift_to_one_reproducing = _later("reduce", "shift_to_one_reproducing")
tr_combine = _later("reduce", "tr_combine")
truth_table_of = _later("semantics", "truth_table_of")

# representatives per write of `components --json`; a chunk's texts are
# the largest transient of the write, so a smaller one lowers the peak
_CHUNK = 1024


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise UsageError(f"cannot read {path}: {e}") from None


@contextmanager
def _writing(*paths: str):
    """Files open for writing at the paths, opened before the block's work
    so that an unwritable path is refused first.  If a path is refused or
    the block fails, the files this call created are removed again."""
    made: list[str] = []
    path = ""
    try:
        with ExitStack() as stack:
            files = []
            for path in paths:
                if not os.path.lexists(path):
                    made.append(path)
                files.append(stack.enter_context(open(path, "w", encoding="utf-8")))
            yield files
    except BaseException as e:
        for new in made:
            with suppress(OSError):
                os.remove(new)
        if isinstance(e, OSError):
            raise UsageError(f"cannot write {path}: {e}") from None
        raise


def _emit(args, text: str, payload: dict):
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _emit_relation(args, sol: SolutionSet, payload: dict):
    """_emit with the relation file of sol as the text, written in chunks."""
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print_relation(sol, sys.stdout.write)


def _bool(v: bool) -> str:
    return "true" if v else "false"


def _load_base(args, required: bool) -> BaseSet | None:
    if getattr(args, "base", None):
        return parse_base_file(_read(args.base))
    if getattr(args, "cnf", None):
        from .clones import STANDARD_BASE

        return STANDARD_BASE
    if required:
        raise UsageError("--base FILE is required for this input")
    return None


def _load_object(args, base: BaseSet | None):
    """The one input file: a relation, or any other kind lowered to gates."""
    picked = [
        (name, path)
        for name in ("formula", "circuit", "cnf", "qbf", "rel")
        if (path := getattr(args, name, None))
    ]
    if len(picked) != 1:
        raise UsageError("give exactly one of --formula/--circuit/--cnf/--qbf/--rel")
    kind, path = picked[0]
    # formula offsets count from the stripped text, the one copy the parse holds
    text = _read(path).strip() if kind in ("formula", "qbf") else _read(path)
    if kind == "formula":
        return parse_formula(text, base)
    if kind == "circuit":
        return parse_circuit(text, base)
    if kind == "cnf":
        return cnf_to_formula(parse_dimacs(text))
    if kind == "qbf":
        return parse_qbf(text, base)
    return parse_relation(text)


def _load(args) -> tuple[BaseSet | None, object, int]:
    """The base, the input object and its ambient dimension.  A query
    sure to run the graph engine (a relation, or brute mode, the only mode
    of a command without --mode) compiles it first, so that its code is not
    laid out on top of the input's data.  In auto or poly mode it loads only
    if the query falls back to enumeration."""
    if args.rel or getattr(args, "mode", "brute") == "brute":
        from . import graph  # noqa: F401

    base = _load_base(args, required=not args.rel)
    obj = _load_object(args, base)
    return base, obj, _ambient(args, obj)


def _ambient(args, obj) -> int:
    if args.rel:
        if args.vars is not None and args.vars != obj.n:
            raise UsageError(f"relation has dimension {obj.n}, not {args.vars}")
        return obj.n
    low = obj.dim
    if obj.prefix is not None:
        if args.vars is not None and args.vars != low:
            raise UsageError(f"quantified formula has {low} free variables")
        return low
    if args.vars is not None:
        if args.vars < low:
            raise UsageError(f"--vars {args.vars} below the highest variable x{low}")
        return args.vars
    return max(low, 1)


def _endpoints(args, n: int) -> tuple[BitVector | None, BitVector | None]:
    s = BitVector.parse(args.s) if args.s is not None else None
    t = BitVector.parse(args.t) if args.t is not None else None
    for v in (s, t):
        if v is not None and v.n != n:
            raise UsageError(f"endpoint {v.text} does not have dimension {n}")
    return s, t


def _poly_answer(obj, base: BaseSet, n: int, s, t) -> EasyAnswer:
    if obj.prefix is not None:
        verdict = dispatch(base, quantified=True)
        if verdict.side != "EASY":
            raise WrongClass(
                f"no polynomial algorithm: quantified dispatch is {verdict.describe()}"
            )
        return qbf_easy_decide(obj, base, s, t)
    verdict = dispatch(base)
    if verdict.side != "EASY":
        raise WrongClass(f"no polynomial algorithm: dispatch is {verdict.describe()}")
    if verdict.easy_class == "MONOTONE":
        return monotone_decide(obj, base, s, t)
    if verdict.easy_class == "LINEAR":
        return linear_decide(obj, base, s, t)
    return zerosep_decide(obj, base, n, s, t)


def _pick_mode(args, obj, base: BaseSet | None) -> str:
    """Resolve AUTO to poly or brute; validate explicit choices."""
    mode = getattr(args, "mode", "auto")
    if args.rel:
        if mode == "poly":
            raise UsageError("--mode poly needs a formula-like input")
        return "brute"
    if mode != "auto":
        return mode
    verdict = dispatch(base, quantified=obj.prefix is not None)
    return "poly" if verdict.side == "EASY" else "brute"


def _brute_guarded(args, obj, base: BaseSet | None, n: int) -> SolutionSet:
    if args.rel:
        return obj
    try:
        return enumerate_solutions(obj, base, n)
    except BudgetExceeded as e:
        verdict = dispatch(base, quantified=obj.prefix is not None)
        if verdict.side == "EASY":
            tail = "so conn, stconn and path answer without enumerating"
        else:
            tail = "so no polynomial algorithm applies"
        raise BudgetExceeded(f"{e}; dispatch for this base is {verdict.describe()}, {tail}") from None


def _cmd_classify(args) -> int:
    base = _load_base(args, required=True)
    clone = clone_identify(base, degree_bound=args.degree_bound)
    plain = dispatch(base, degree_bound=args.degree_bound)
    quant = dispatch(base, quantified=True, degree_bound=args.degree_bound)

    def blob(v):
        return {f: getattr(v, f) for f in v._fields} | {"describe": v.describe()}

    _emit(
        args,
        f"clone: {clone}\ndispatch: {plain.describe()}\n"
        f"quantified: {quant.describe()}",
        {
            "clone": clone,
            "dispatch": blob(plain),
            "quantified_dispatch": blob(quant),
        },
    )
    return 0


def _cmd_conn(args) -> int:
    base, obj, n = _load(args)
    mode = _pick_mode(args, obj, base)
    if mode == "poly":
        ans = _poly_answer(obj, base, n, None, None)
        connected, rationale = ans.connected, ans.rationale
        extra = {}
    else:
        sol = _brute_guarded(args, obj, base, n)
        lab = components(sol)
        connected = lab.count <= 1
        rationale = (
            f"exhaustive enumeration over {n} variables: "
            f"{len(sol)} solutions, {lab.count} components"
        )
        extra = {"count": len(sol), "components": lab.count}
    _emit(
        args,
        f"connected: {_bool(connected)} ({rationale})",
        {"connected": connected, "rationale": rationale, "mode": mode, "n": n, **extra},
    )
    return 0 if connected or not args.exit_status else 1


def _st_answer(args) -> tuple[bool, list[BitVector] | None, str, str, int]:
    base, obj, n = _load(args)
    if args.s is None or args.t is None:
        raise UsageError("--s and --t are required")
    s, t = _endpoints(args, n)
    mode = _pick_mode(args, obj, base)
    if mode == "poly":
        ans = _poly_answer(obj, base, n, s, t)
        return bool(ans.st_connected), ans.witness_path, ans.rationale, mode, n
    sol = _brute_guarded(args, obj, base, n)
    path = shortest_path(sol, s, t)
    if path is None:
        return False, None, "exhaustive search found no connecting path", mode, n
    return True, path, f"breadth-first search, {len(path) - 1} steps", mode, n


def _cmd_stconn(args) -> int:
    st, path, rationale, mode, n = _st_answer(args)
    if st and path is not None:
        text = f"connected: true; path: {' '.join(v.text for v in path)}"
    else:
        text = f"connected: {_bool(st)} ({rationale})"
    _emit(
        args,
        text,
        {
            "connected": st,
            "path": None if path is None else [v.text for v in path],
            "rationale": rationale,
            "mode": mode,
            "n": n,
        },
    )
    return 0 if st or not args.exit_status else 1


def _cmd_path(args) -> int:
    st, path, rationale, mode, n = _st_answer(args)
    if st and path is None:
        raise WitnessBudgetExceeded(rationale)
    if not st:
        _emit(
            args,
            f"connected: false ({rationale})",
            {"connected": False, "path": None, "rationale": rationale, "mode": mode},
        )
        return 1 if args.exit_status else 0
    _emit(
        args,
        f"path: {' '.join(v.text for v in path)}\nlength: {len(path) - 1}",
        {
            "connected": True,
            "path": [v.text for v in path],
            "length": len(path) - 1,
            "mode": mode,
        },
    )
    return 0


def _cmd_diameter(args) -> int:
    from .graph import EXACT, LOWER_BOUND

    base, obj, n = _load(args)
    sol = _brute_guarded(args, obj, base, n)
    lab = components(sol)
    mode = EXACT if args.diameter_mode == "exact" else LOWER_BOUND
    d = diameter(sol, mode=mode)
    _emit(
        args,
        f"diameter: {d} (count={len(sol)}, components={lab.count}, mode={mode})",
        {"count": len(sol), "components": lab.count, "diameter": d, "mode": mode},
    )
    return 0


def _cmd_components(args) -> int:
    base, obj, n = _load(args)
    sol = _brute_guarded(args, obj, base, n)
    lab = components(sol)
    if not args.json:
        print(f"components: {lab.count} (count={len(sol)})")
        return 0
    # json.dumps of the payload, whose last key holds the representatives,
    # written _CHUNK representatives at a time so that no list of every
    # representative's text is built
    head = json.dumps(
        {"count": len(sol), "components": lab.count, "representatives": []}, sort_keys=True
    )
    reps, spec = lab.representatives, f"0{max(n, 1)}b"
    write = sys.stdout.write
    write(head[:-2])
    for i in range(0, len(reps), _CHUNK):
        write(", " if i else "")
        write(json.dumps(list(map(format, reps[i:i + _CHUNK], repeat(spec))))[1:-1])
    write("]}\n")
    return 0


def _variant_from(args) -> TVariant:
    from .reduce import S02K, TVariant

    kind = args.variant.upper()
    if kind == S02K:
        return TVariant(kind, args.k)
    if args.k != 2:
        raise UsageError("--k only applies to --variant s02k")
    return TVariant(kind)


def _cmd_reduce(args) -> int:
    from .clones import STANDARD_BASE

    variant = _variant_from(args)
    if args.rel:
        if args.cnf or args.base:
            raise UsageError("reduce --rel reads no --cnf or --base")
        rel = parse_relation(_read(args.rel))
        out = apply_t_relation(rel, variant)
        n, facts = rel.n, {"n": out.n, "count": len(out)}

        def spell(write):
            print_relation(out, write)
    elif args.cnf:
        phi = parse_dimacs(_read(args.cnf))
        shifted = None
        if not phi.is_one_reproducing():
            bits = truth_table_of(phi, STANDARD_BASE, phi.n).bits
            if not bits:
                raise UsageError("CNF is unsatisfiable; no 1-reproducing shift exists")
            anchor = BitVector(phi.n, (bits & -bits).bit_length() - 1)  # the smallest solution
            phi = shift_to_one_reproducing(phi, anchor)
            shifted = anchor.text
        base = parse_base_file(_read(args.base)) if args.base else STANDARD_BASE
        stats: dict = {}
        gl = tr_combine(phi, variant, base, stats=stats)
        # refused before --out is opened or a byte is written
        charge("formula nodes", stats["size"], error=TooLarge)
        n, facts = phi.n, {"size": stats["size"], "depth": stats["depth"], "shifted_by": shifted}
        printer = print_qbf if gl.prefix else print_formula

        def spell(write):
            printer(gl, base, write)
            write("\n")
    else:
        raise UsageError("reduce needs --cnf or --rel input")
    sidecar = {
        "variant": str(variant),
        "new_variable_indices": list(range(n + 1, n + variant.new_var_count + 1)),
        "pad_vector": variant.pad_vector(),
        **facts,
    }
    if args.out:
        with _writing(args.out, args.out + ".json") as (fh, side):
            spell(fh.write)
            side.write(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
        if not args.json:
            print(f"wrote {args.out} and {args.out}.json")
            return 0
    if args.rel:  # a relation's payload is its sidecar
        _emit_relation(args, out, sidecar)
    elif not args.json:
        spell(sys.stdout.write)
    else:  # a formula's carries it, each piece escaped in its place
        head, _, tail = json.dumps({"formula": "\0", **sidecar}, sort_keys=True).partition("\\u0000")
        write = sys.stdout.write
        write(head)
        printer(gl, base, lambda piece: write(json.dumps(piece)[1:-1]))
        print(tail)
    return 0


def _write_dot(args, sol: SolutionSet) -> tuple[dict, str]:
    """The DOT rendering, written to --dot if given, and its summary."""
    check_dot_size(sol)  # before the component sweep, as is an unwritable --dot
    with _writing(*filter(None, [args.dot])) as files:
        lab = components(sol)
        dot = export_dot(sol, lab)
        for fh in files:
            fh.write(dot)
    return {"vertices": len(sol), "components": lab.count, "dot": args.dot}, dot


def _cmd_gen_expdiam(args) -> int:
    sol = gen_expdiam(args.k)
    info = {
        "k": args.k,
        "n": sol.n,
        "count": len(sol),
        "diameter": (1 << (args.k + 1)) - 2,
    }
    if args.dot:
        info.update(_write_dot(args, sol)[0])
    _emit_relation(args, sol, info)
    return 0


def _cmd_gen_random(args) -> int:
    if args.vars is None:
        raise UsageError("--vars is required")
    sol = random_relation(args.vars, args.count, args.seed)
    info = {"n": sol.n, "count": len(sol), "seed": args.seed}
    if args.json:  # plain output prints the relation file, never this list
        info["words"] = sol.texts()
    if args.dot:
        info.update(_write_dot(args, sol)[0])
    _emit_relation(args, sol, info)
    return 0


def _cmd_closure(args) -> int:
    base = _load_base(args, required=True)
    if args.vars is None:
        raise UsageError("--vars (the maximum arity) is required")
    tables = clone_closure(base, args.vars)
    ordered = sorted(tables, key=lambda f: (f.n, f.bits))
    lines = [f"f{i} {f.n} {tt_print(f)}" for i, f in enumerate(ordered, start=1)]
    _emit(
        args,
        "\n".join([f"count: {len(ordered)}"] + lines),
        {
            "count": len(ordered),
            "tables": [
                {"name": f"f{i}", "arity": f.n, "table": tt_print(f)}
                for i, f in enumerate(ordered, start=1)
            ],
        },
    )
    return 0


def _cmd_export_dot(args) -> int:
    base, obj, n = _load(args)
    info, dot = _write_dot(args, _brute_guarded(args, obj, base, n))
    if args.dot:
        _emit(
            args,
            f"wrote {args.dot} ({info['vertices']} vertices, {info['components']} components)",
            info,
        )
    elif args.json:
        _emit(args, "", {**info, "dot": dot})
    else:
        print(dot, end="")
    return 0


def _add_io(p: argparse.ArgumentParser):
    p.add_argument("--base", help="base file: `name arity bits` lines")
    p.add_argument("--formula", help="formula file over the base")
    p.add_argument("--circuit", help="circuit file over the base")
    p.add_argument("--cnf", help="DIMACS CNF file (standard base implied)")
    p.add_argument("--qbf", help="quantified formula file over the base")
    p.add_argument("--rel", help="explicit solution-set file")
    p.add_argument("--vars", type=int, help="ambient dimension (adds fictive variables)")
    p.add_argument("--json", action="store_true", help="machine-readable output")


def _add_query(p: argparse.ArgumentParser):
    p.add_argument(
        "--mode",
        choices=["auto", "poly", "brute"],
        default="auto",
        help="auto dispatches on the base; poly refuses intractable bases",
    )
    p.add_argument(
        "--exit-status",
        action="store_true",
        help="exit 1 when the answer is negative",
    )


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="bconn",
        description="Connectivity of Boolean solution graphs over arbitrary bases",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="clone and tractability of a base")
    p.add_argument("--base", required=True)
    p.add_argument("--degree-bound", type=int, default=8)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("conn", help="is the solution graph connected")
    _add_io(p)
    _add_query(p)
    p.set_defaults(func=_cmd_conn)

    p = sub.add_parser("stconn", help="are two solutions connected")
    _add_io(p)
    _add_query(p)
    p.add_argument("--s", help="start assignment bits")
    p.add_argument("--t", help="target assignment bits")
    p.set_defaults(func=_cmd_stconn)

    p = sub.add_parser("path", help="print a connecting path")
    _add_io(p)
    _add_query(p)
    p.add_argument("--s", help="start assignment bits")
    p.add_argument("--t", help="target assignment bits")
    p.set_defaults(func=_cmd_path)

    p = sub.add_parser("diameter", help="exact diameter by enumeration")
    _add_io(p)
    p.add_argument(
        "--diameter-mode",
        choices=["exact", "lower-bound"],
        default="exact",
        help="lower-bound uses a double-sweep heuristic",
    )
    p.set_defaults(func=_cmd_diameter)

    p = sub.add_parser("components", help="count connected components")
    _add_io(p)
    p.set_defaults(func=_cmd_components)

    p = sub.add_parser("reduce", help="hard-side transform of a CNF or relation")
    p.add_argument("--base", help="base file: `name arity bits` lines")
    p.add_argument("--cnf", help="DIMACS CNF file (standard base implied)")
    p.add_argument("--rel", help="explicit solution-set file")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "--variant",
        choices=["s12", "d1", "s02k", "s02q"],
        required=True,
    )
    p.add_argument("--k", type=int, default=2, help="degree for --variant s02k")
    p.add_argument("--out", help="write the formula or relation here plus a .json sidecar")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("gen-expdiam", help="exponential-diameter induced path")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--dot", help="also write a DOT rendering")
    p.set_defaults(func=_cmd_gen_expdiam)

    p = sub.add_parser("gen-random", help="random solution set")
    p.add_argument("--vars", type=int)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--dot", help="also write a DOT rendering")
    p.set_defaults(func=_cmd_gen_random)

    p = sub.add_parser("closure", help="all expressible tables up to an arity")
    p.add_argument("--base", required=True)
    p.add_argument("--vars", type=int, help="maximum arity")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("export-dot", help="DOT rendering of a solution graph")
    _add_io(p)
    p.add_argument("--dot", help="output file (stdout when omitted)")
    p.set_defaults(func=_cmd_export_dot)

    return top


def run_cli(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        return args.func(args)
    except (BudgetError, NotRealizable) as e:
        _report_error(args, e)
        return 3
    except BconnError as e:
        _report_error(args, e)
        return 2


def _report_error(args, e: BconnError):
    if getattr(args, "json", False):
        blob = {"error": {"code": type(e).__name__, "message": str(e)}}
        print(json.dumps(blob, sort_keys=True), file=sys.stderr)
    else:
        print(f"error [{type(e).__name__}]: {e}", file=sys.stderr)


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
