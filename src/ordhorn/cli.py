"""Command-line front end.

Exit status: 0 on success (verdicts are printed, not encoded), 1 when a
check fails (a selftest disagreement, or a strategy with no admissible
move), 2 on usage errors, 3 on input errors, 4 on resource limits.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from .formula import (
    NotPivotedError,
    ParseError,
    QcspInstance,
    QfFormula,
    ResourceLimitError,
    decimal,
    flip_order,
    normalize,
    parse_instance,
    parse_relation,
    print_instance,
)
from .game import brute_solve, play_against
from .orders import ArityTooLarge
from .proofsystem import StrategyUndefinedError, ep_move, saturate
from .reductions import parse_dimacs, reduction_text
from .solver import DialectError, compile_to_mplus, solve

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_RESOURCE = 4

def non_negative_int(text):
    """argparse type of the count and limit options: plain decimals only."""
    value = decimal(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot decode {path} as UTF-8: {exc}")


def _load_instance(args) -> QcspInstance:
    inst = parse_instance(_read(args.file))
    if args.reverse_order:
        inst = QcspInstance(inst.names, inst.quants, flip_order(inst.general_matrix()))
    return inst


def _compiled(args) -> QcspInstance:
    """The loaded instance, normalized and compiled to M+."""
    return compile_to_mplus(normalize(_load_instance(args)))


def _cmd_solve(args):
    verdict = solve(normalize(_load_instance(args)), max_probes=args.max_probes)
    if args.json:
        print(json.dumps(verdict.to_json_dict(), indent=2))
    else:
        print("true" if verdict.value else "false")
    return EXIT_OK


def _cmd_brute(args):
    inst = _load_instance(args)
    verdict = brute_solve(
        inst, max_vars=args.max_vars, max_nodes=args.max_nodes, emit_strategy=args.emit_strategy
    )
    if args.json:
        out = {"verdict": verdict.value, "nodes": verdict.nodes}
        if args.emit_strategy:
            out["strategy"] = verdict.strategy
        print(json.dumps(out, indent=2))
    else:
        print("true" if verdict.value else "false")
        if args.emit_strategy and verdict.strategy is not None:
            print(json.dumps(verdict.strategy, indent=2))
    return EXIT_OK


def _saturated(args):
    """The compiled instance and its saturated facts; exit 4 past the cap."""
    compiled = _compiled(args)
    facts = saturate(compiled, cap=args.cap)
    if facts.status == "cap":
        raise ResourceLimitError(f"fact cap {args.cap} exceeded")
    return compiled, facts


def _cmd_derive(args):
    _, facts = _saturated(args)
    if args.json:
        out = {"bottom": facts.status == "bottom", "fact_count": facts.fact_count}
        out["facts"] = facts.dump().splitlines()
        print(json.dumps(out, indent=2))
    else:
        if not args.quiet:
            sys.stdout.write(facts.dump())
        print("bottom" if facts.status == "bottom" else "no bottom")
    return EXIT_OK


def _cmd_classify(args):
    from .classifier import classify

    rels = [parse_relation(_read(path)) for path in args.files]
    report = classify(rels)
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        for key, value in report.flags().items():
            print(f"{key}: {value}")
    return EXIT_OK


def _write(text, output):
    """Write to the ``-o`` file if one is given, else to stdout."""
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_compile(args):
    return _write(print_instance(_compiled(args)), args.output)


def _cmd_reduce(args):
    return _write(reduction_text(parse_dimacs(_read(args.file))), args.output)


def _cmd_verify_strategy(args):
    compiled, facts = _saturated(args)
    if facts.status == "bottom":
        print("bottom (instance is false; no strategy to verify)")
        return EXIT_OK
    outcome = play_against(
        compiled, lambda var, order: ep_move(compiled, facts, order, var), max_nodes=args.max_nodes
    )
    if outcome.win:
        print("win")
    else:
        print("loss")
        if not args.quiet:
            print(f"violated: {outcome.violated}")
            for var, move in outcome.trace:
                print(f"  {var} -> {move}")
    return EXIT_OK


def _cmd_selftest(args):
    from . import generators
    from .ohsat import OhConjunction, oh_sat
    from .orders import enumerate_weak_orders, eval_qf

    rng = random.Random(args.seed)
    failures = 0

    suites = {
        "exhaustive": generators.exhaustive_mplus_instances(3, 2),
        "random": (generators.random_mplus_instance(rng, max_vars=5, max_clauses=5)
                   for _ in range(args.rounds)),
    }
    for kind, instances in suites.items():
        checked = 0
        for checked, inst in enumerate(instances, 1):
            if solve(inst).value != brute_solve(inst).value:
                failures += 1
                print(f"solver/oracle disagreement on: {print_instance(inst)!r}")
        print(f"solver vs game oracle: {checked} {kind} instances checked")

    n = 4
    orders = list(enumerate_weak_orders(n))
    for _ in range(args.rounds):
        clauses, atoms = generators.random_oh_conjunction(rng, n)
        res = oh_sat(OhConjunction(n, tuple(clauses), tuple(atoms)))
        formula = QfFormula(n, tuple(c.atoms() for c in clauses) + tuple((a,) for a in atoms))
        if bool(res) != any(eval_qf(formula, w) for w in orders):
            failures += 1
            print(f"oh_sat disagreement on {clauses} {atoms}")
    print(f"oh_sat vs weak-order brute force: {args.rounds} conjunctions checked")

    print("selftest: " + ("FAIL" if failures else "ok"))
    return EXIT_OK if failures == 0 else EXIT_FAILED


_FLAG = {"action": "store_true"}
_PAST_IT = "(exit 4 past it; default %(default)s)"

#: Each option once, under the name that _COMMANDS lists it by: its flags,
#: its help, and its other add_argument keywords.
_OPTIONS = {
    "file": ("file", None, {}),
    "files": ("files", None, {"nargs": "+"}),
    "output": ("-o --output", None, {}),
    "json": ("--json", "machine-readable output", _FLAG),
    "quiet": ("--quiet", "verdict-only output", _FLAG),
    "reverse-order": ("--reverse-order", "flip every order atom before processing (dual instance)", _FLAG),
    "emit-strategy": ("--emit-strategy", "also print the existential player's winning strategy", _FLAG),
    "max-probes": ("--max-probes", f"oracle probe budget {_PAST_IT}",
                   {"type": non_negative_int, "default": 100_000_000}),
    "max-vars": ("--max-vars", "refuse instances with more variables (exit 4; default %(default)s)",
                 {"type": non_negative_int, "default": 12}),
    "game-nodes": ("--max-nodes", f"game-tree node budget {_PAST_IT}",
                   {"type": non_negative_int, "default": 100_000_000}),
    "replay-nodes": ("--max-nodes", f"replay node budget {_PAST_IT}",
                     {"type": non_negative_int, "default": 100_000_000}),
    "cap": ("--cap", f"stored-fact budget {_PAST_IT}", {"type": non_negative_int, "default": 10**6}),
    "seed": ("--seed", "random seed (default %(default)s)", {"type": decimal, "default": 0}),
    "rounds": ("--rounds", "random instances and conjunctions per suite (default %(default)s)",
               {"type": non_negative_int, "default": 200}),
}

#: Each subcommand: its handler, its help, and the _OPTIONS it takes, in
#: --help order; a command rejects any other option.
_COMMANDS = {
    "solve": (_cmd_solve, "decide an instance with the clause-deriving solver",
              ("json", "reverse-order", "file", "max-probes")),
    "brute": (_cmd_brute, "decide an instance by game-tree search",
              ("json", "reverse-order", "emit-strategy", "file", "max-vars", "game-nodes")),
    "derive": (_cmd_derive, "saturate the proof system and dump its facts",
               ("json", "quiet", "reverse-order", "file", "cap")),
    "classify": (_cmd_classify, "analyse relation files", ("json", "files")),
    "compile": (_cmd_compile, "compile an instance to pure M+ form", ("reverse-order", "file", "output")),
    "reduce-3cnf": (_cmd_reduce, "emit the complement-of-SAT gadget", ("file", "output")),
    "verify-strategy": (_cmd_verify_strategy, "play the derived strategy against all moves",
                        ("quiet", "reverse-order", "file", "cap", "replay-nodes")),
    "selftest": (_cmd_selftest, "run reduced-size cross-validation suites", ("seed", "rounds")),
}


@functools.cache
def build_parser():
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(prog="ordhorn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, summary, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        for option in options:
            flags, help, keywords = _OPTIONS[option]
            p.add_argument(*flags.split(), help=help, **keywords)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, NotPivotedError, DialectError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ResourceLimitError, ArityTooLarge, RecursionError) as exc:  # searches recurse per variable
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except StrategyUndefinedError as exc:
        print(f"strategy undefined (this falsifies well-definedness): {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
