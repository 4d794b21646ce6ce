"""Command-line surface.

Verbs: eval, corpus, represent, verify-representation, pure-ne, mixed-check,
and the oracle family (pure, mixed-verify, mixed-find).  Exit codes are a
stable contract: 0 success / SAT / verification true, 1 UNSAT / false,
2 malformed input or a file that cannot be read or written (standard
output too, when its reader closes it early, its device is full or it is
closed at start-up), 3 semantic error, 4 internal error (a bug, reported
as one "internal error:" line on stderr, never a verdict).  All emitted
rationals are lowest-terms "m/n" with integers printed bare; emitted files
re-parse to equal values.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import corpus as corpus_mod
from . import equilibria, formula, game, oracle, represent
from .algebra import catalog_lookup, format_rational, parse_rational
from .errors import InputError, SemanticError


def _parse_assignment(text: str) -> dict[str, Fraction]:
    out = {}
    if not text:
        return out
    for item in text.split(","):
        if "=" not in item:
            raise InputError(f"bad assignment entry {item!r}, expected name=value")
        name, value = item.split("=", 1)
        name = name.strip()
        if not name:
            raise InputError(f"bad assignment entry {item!r}: empty variable name")
        if name in out:
            raise InputError(f"variable {name!r} assigned more than once")
        out[name] = parse_rational(value)
    return out


def _parse_rational_list(text: str) -> list[Fraction]:
    return [parse_rational(part) for part in text.split(",") if part.strip()]


def _load_game(path) -> game.StrategicGame:
    return game.game_from_json(game.load_json(path))


def _load_lgame(path) -> game.LogicalGame:
    return game.lgame_from_json(game.load_json(path))


def _load_any_game(path):
    doc = game.load_json(path)
    if isinstance(doc, dict) and "algebra" in doc:
        return game.lgame_from_json(doc)
    return game.game_from_json(doc)


# --- verbs ---------------------------------------------------------------------

def cmd_eval(args) -> int:
    alg = catalog_lookup(args.algebra)
    text = args.formula
    if text is None:
        try:
            text = Path(args.formula_file).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read {args.formula_file}: {exc}") from None
    parsed = formula.parse(text)
    assignment = _parse_assignment(args.assign or "")
    value = formula.evaluate(parsed, alg, assignment)
    print(format_rational(value))
    return 0


def cmd_corpus(args) -> int:
    if args.name == "new_technology":
        bundle = corpus_mod.new_technology(parse_rational(args.c))
    elif args.name == "matching_pennies":
        bundle = corpus_mod.matching_pennies()
    elif args.name == "love_and_hate":
        bundle = corpus_mod.love_and_hate(args.n, args.m)
    else:   # vickrey: argparse admits no other name
        bundle = corpus_mod.vickrey(_parse_rational_list(args.p),
                                    parse_rational(args.t),
                                    parse_rational(args.grid_step))
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc}") from None
    game.dump_json(game.game_to_json(bundle.strategic), out / "game.json")
    written = ["game.json"]
    if bundle.logical is not None:
        game.dump_json(game.lgame_to_json(bundle.logical), out / "lgame.json")
        written.append("lgame.json")
    if bundle.representation is not None:
        game.dump_json(represent.representation_to_json(bundle.representation),
                       out / "rep.json")
        written.append("rep.json")
    print(f"{bundle.name}: wrote {', '.join(written)} to {out}")
    return 0


def cmd_represent(args) -> int:
    source = _load_game(args.game)
    method = args.method
    if method == "ab_i":
        rep = represent.represent_binary_boolean(source)
    elif method == "ab_ii":
        rep = represent.represent_binary_chain(source)
    elif method == "ab_iii":
        if args.m is None or args.algebra is None:
            raise InputError("ab_iii needs --m and --algebra")
        rep = represent.represent_binary_general(
            source, args.m, catalog_lookup(args.algebra),
            _parse_rational_list(args.anchors) if args.anchors else None)
    elif method == "vi":
        rep = represent.represent_rational_qg_delta(source)
    elif method == "vi_gmc":
        rep = represent.represent_rational_gmc_delta(source, args.m)
    elif method == "vi_lm":
        rep = represent.represent_rational_lm(source, args.m)
    else:   # vii: argparse admits no other method
        if args.algebra is None or not args.anchors or not args.payoff_anchors:
            raise InputError("vii needs --algebra, --anchors, and --payoff-anchors")
        rep = represent.represent_general(
            source, catalog_lookup(args.algebra),
            _parse_rational_list(args.anchors),
            _parse_rational_list(args.payoff_anchors))
    game.dump_json(game.lgame_to_json(rep.target), args.out_lgame)
    game.dump_json(represent.representation_to_json(rep), args.out_rep)
    report = represent.verify_representation(rep)
    print(f"{method}: {rep.target.algebra.id}, {report}")
    return 0


def cmd_verify_representation(args) -> int:
    source = _load_game(args.game)
    target = _load_lgame(args.lgame)
    rep = represent.representation_from_json(game.load_json(args.rep), source, target)
    report = represent.verify_representation(rep)
    print(report)
    return 0 if report.ok else 1


def cmd_pure_ne(args) -> int:
    lg = _load_lgame(args.lgame)
    enc = equilibria.build_gamma_weak(lg) if args.weak else equilibria.build_encoding(lg)
    lg.payoff_table.program     # a formula that does not compile fails the run here
    if args.emit_formula:
        game.write_text(args.emit_formula, formula.to_text(enc.existence) + "\n")
    profiles, sat = equilibria.decide_pure_ne(lg, enc)
    for profile in profiles:
        print(" ".join(map(game.format_strategy, profile)))
    print("SAT" if sat else "UNSAT")
    return 0 if sat else 1


def cmd_mixed_check(args) -> int:
    lg = _load_lgame(args.lgame)
    enc = equilibria.build_mixed_encoding(lg)
    counts = [len(block) for block in lg.strategies]
    profile = game.profile_from_json(game.load_json(args.profile), counts)
    enc.program     # compiles the payoff formulas first: a failed run writes no file
    if args.emit_formula:
        game.write_text(args.emit_formula, formula.to_text(enc.full) + "\n")
    ok, trace = equilibria.check_mixed_ne(lg, profile, enc=enc)
    if args.trace:
        print(equilibria.format_trace(trace))
    print("mixed Nash equilibrium" if ok else "not a mixed Nash equilibrium")
    return 0 if ok else 1


def cmd_oracle_pure(args) -> int:
    g = _load_any_game(args.game)
    equilibria_found = oracle.pure_ne_scan(g)
    if isinstance(g, game.LogicalGame):
        for ids in equilibria_found:
            print(" ".join(game.format_strategy(g.strategies[i][k]) for i, k in enumerate(ids)))
    else:
        for ids in equilibria_found:
            print(" ".join(map(str, ids)))
    print(f"{len(equilibria_found)} pure equilibria")
    return 0 if equilibria_found else 1


def cmd_oracle_mixed_verify(args) -> int:
    g = _load_any_game(args.game)
    table = g if isinstance(g, game.StrategicGame) else game.logical_to_strategic(g)
    profile = game.profile_from_json(game.load_json(args.profile),
                                     table.strategy_counts)
    ok = oracle.verify_mixed(table, profile)
    print("mixed Nash equilibrium" if ok else "not a mixed Nash equilibrium")
    return 0 if ok else 1


def cmd_oracle_mixed_find(args) -> int:
    g = _load_any_game(args.game)
    candidates = oracle.find_mixed_2p(g)
    for candidate in candidates:
        parts = []
        for vector in candidate.profile.probabilities:
            entries = ",".join(f"{k}:{format_rational(p)}"
                               for k, p in enumerate(vector) if p != 0)
            parts.append(entries)
        flag = " DEGENERATE" if candidate.degenerate else ""
        payoffs = ",".join(format_rational(v) for v in candidate.payoffs)
        print(f"{' | '.join(parts)}  payoffs {payoffs}{flag}")
    print(f"{len(candidates)} mixed equilibria")
    return 0 if candidates else 1


# --- argument wiring -------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; each verb's `func` names
    its `cmd_*` function, looked up when `main` dispatches to it."""
    parser = argparse.ArgumentParser(
        prog="mvgames",
        description="strategic games as logical games over many-valued algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a formula in an algebra")
    p.add_argument("--algebra", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--formula")
    group.add_argument("--formula-file")
    p.add_argument("--assign", default="")
    p.set_defaults(func="cmd_eval")

    p = sub.add_parser("corpus", help="emit a named sample game")
    p.add_argument("name", choices=["new_technology", "matching_pennies",
                                    "love_and_hate", "vickrey"])
    p.add_argument("--c", default="1", help="new_technology: competitive edge")
    p.add_argument("--n", type=int, default=2, help="love_and_hate: players")
    p.add_argument("--m", type=int, default=4, help="love_and_hate: chain size")
    p.add_argument("--p", default="", help="vickrey: true values, comma-separated")
    p.add_argument("--t", default="1", help="vickrey: bidding cap")
    p.add_argument("--grid-step", default="1/8", help="vickrey: bid grid step")
    p.add_argument("--out", required=True)
    p.set_defaults(func="cmd_corpus")

    p = sub.add_parser("represent", help="compile a strategic game into a logical game")
    p.add_argument("--game", required=True)
    p.add_argument("--method", required=True,
                   choices=["ab_i", "ab_ii", "ab_iii", "vi", "vi_gmc", "vi_lm", "vii"])
    p.add_argument("--m", type=int)
    p.add_argument("--algebra")
    p.add_argument("--anchors", help="comma-separated rational anchors")
    p.add_argument("--payoff-anchors", help="comma-separated rational anchors")
    p.add_argument("--out-lgame", required=True)
    p.add_argument("--out-rep", required=True)
    p.set_defaults(func="cmd_represent")

    p = sub.add_parser("verify-representation", help="check f = g(phi(c(s))) exhaustively")
    p.add_argument("--game", required=True)
    p.add_argument("--lgame", required=True)
    p.add_argument("--rep", required=True)
    p.set_defaults(func="cmd_verify_representation")

    p = sub.add_parser("pure-ne", help="pure equilibria of a logical game via gamma")
    p.add_argument("--lgame", required=True)
    p.add_argument("--weak", action="store_true",
                   help="force the auxiliary-variable encoding")
    p.add_argument("--emit-formula")
    p.set_defaults(func="cmd_pure_ne")

    p = sub.add_parser("mixed-check", help="check a mixed profile via the encoding")
    p.add_argument("--lgame", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--emit-formula")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func="cmd_mixed_check")

    p = sub.add_parser("oracle", help="brute-force ground truth")
    oracle_sub = p.add_subparsers(dest="oracle_command", required=True)

    q = oracle_sub.add_parser("pure", help="deviation-scan pure equilibria")
    q.add_argument("--game", required=True)
    q.set_defaults(func="cmd_oracle_pure")

    q = oracle_sub.add_parser("mixed-verify", help="verify a mixed profile exactly")
    q.add_argument("--game", required=True)
    q.add_argument("--profile", required=True)
    q.set_defaults(func="cmd_oracle_mixed_verify")

    q = oracle_sub.add_parser("mixed-find", help="2-player support enumeration")
    q.add_argument("--game", required=True)
    q.set_defaults(func="cmd_oracle_mixed_find")

    return parser


def _to_devnull(stream) -> None:
    """Point `stream`'s fd at the null device, so its flush at exit succeeds."""
    with contextlib.suppress(OSError, ValueError):   # captured: no real fd
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def _report(message: str) -> None:
    """`message` on stderr; a stderr closed (None) or broken loses it, not the exit code."""
    if sys.stderr is not None:
        try:
            print(message, file=sys.stderr, flush=True)
        except (OSError, ValueError):
            _to_devnull(sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = globals()[args.func](args)
        if sys.stdout is None:      # fd 1 closed at start-up: every print was lost
            _report("input error: cannot write standard output")
            return 2
        sys.stdout.flush()
        return code
    except OSError as exc:          # stdout's: every other file's is an InputError
        _to_devnull(sys.stdout)     # its reader left early, or its device is full
        _report(f"input error: cannot write standard output: {exc}")
        return 2
    except InputError as exc:
        _report(f"input error: {exc}")
        return 2
    except SemanticError as exc:
        _report(f"error: {exc}")
        return 3
    except MemoryError:             # an input too large for this machine, not a bug
        _report("input error: out of memory (input too large)")
        return 2
    except Exception as exc:
        _report(f"internal error: {type(exc).__name__}: {exc}")
        return 4


if __name__ == "__main__":
    sys.exit(main())
