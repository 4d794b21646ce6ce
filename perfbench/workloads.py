"""Seeded inputs and operations of the three workloads.

`build(name, seed, api, workdir, quick=False)` returns a `Workload`: a
manifest of the generated instances and the list of operations one pass
runs.  `api` holds the `mvgames` submodules of one import; operations look
every function up through it at call time, so the tracer's wrappers see the
calls.  Instance sizes and methods are fixed schedules; the seed draws the
payoffs, payoff levels, formulas and profiles.  Levels are chosen so that the
chain sizes, and with them the cost of an instance, do not depend on the
seed.

An operation's `run(mark)` calls `mark()` when the formula route has given
its verdict, then checks that verdict against `mvgames.oracle` through
`gate`.  It raises `WrongVerdict` when they differ, `WrongExitCode` when a
CLI call ends with an exit code other than the expected error or verdict,
and lets every other exception through; the runner counts both of the latter
as failed operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

WORKLOADS = ("pure_dnf", "mixed_enc", "cli_files")

# (method, strategy counts) per instance; methods by their CLI names.
PURE_SCHEDULE = (
    [("vi", (k, k)) for k in (4, 5, 6, 7)]
    + [("vi_gmc", (k, k)) for k in (4, 5, 6, 7)]
    + [("vi_lm", (k, k)) for k in (4, 5, 6, 7)]
    + [(m, c) for c in ((3, 3, 3), (2, 3, 4)) for m in ("vi", "vi_gmc", "vi_lm")]
    + [(m, c) for c in ((4, 4), (6, 6), (2, 2, 3)) for m in ("ab_i", "ab_ii", "ab_iii")]
)
# The repeated 3x3 and 4x4 entries put the median operation inside a group
# of operations of like cost, so that it does not jump between groups.
MIXED_SCHEDULE = (
    [("vi_lm", (k, k)) for k in (3, 3, 3, 4, 5)]
    + [("vii", (k, k)) for k in (3, 3, 4, 5)]
    + [("ab_ii", (k, k)) for k in (3, 4, 4)]
    + [(m, (3, 3, 2)) for m in ("vi_lm", "vii", "ab_ii")]
    + [("logical", (3, 3))] * 3 + [("logical", (2, 2, 2))]
)
MIXED_PROFILES = 3          # profiles checked per mixed_enc instance
# Self-test passes keep the instances of at most this many profiles.
QUICK_PROFILES = {"pure_dnf": 27, "mixed_enc": 9}
BINARY_METHODS = ("ab_i", "ab_ii", "ab_iii")


class WrongVerdict(Exception):
    """The formula route disagrees with the oracle."""


class WrongExitCode(Exception):
    """A CLI call ended with an exit code that is neither the expected
    error code nor a verdict."""


def gate(instance, what, expected, actual):
    """Raise `WrongVerdict` unless the route's answer equals the oracle's."""
    if expected != actual:
        raise WrongVerdict(f"{what}: oracle says {expected!r}, route says {actual!r} "
                           f"on {json.dumps(instance)}")


@dataclass
class Op:
    name: str
    instance: dict
    run: Callable[[Callable[[], None]], None]
    emitted: Callable[[], int] = lambda: 0     # bytes of formula text written


@dataclass
class Workload:
    name: str
    manifest: list = field(default_factory=list)
    ops: list = field(default_factory=list)


def build(name: str, seed: int, api, workdir: Path, quick: bool = False) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    wl = Workload(name)
    {"pure_dnf": _pure_dnf, "mixed_enc": _mixed_enc, "cli_files": _cli_files}[name](
        wl, rng, api, Path(workdir), quick)
    wl.manifest += [op.instance for op in wl.ops]
    return wl


# --- inputs ----------------------------------------------------------------------

def _profiles(counts) -> int:
    out = 1
    for c in counts:
        out *= c
    return out


def rational_levels(rng) -> list[Fraction]:
    """Five payoff levels b + j/q; the span in units of 1/q is always 4."""
    base, q = rng.choice((-1, 0, 1)), rng.choice((2, 3, 4))
    return [base + Fraction(j, q) for j in range(5)]


def binary_levels(rng) -> list[Fraction]:
    pool = [Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2),
            Fraction(1), Fraction(3, 2), Fraction(2)]
    return sorted(rng.sample(pool, 2))


def make_game(api, rng, counts, levels):
    """Seeded payoff table over `levels` in which every level occurs."""
    cells = len(counts) * _profiles(counts)
    values = list(levels) + [rng.choice(levels) for _ in range(cells - len(levels))]
    rng.shuffle(values)
    it = iter(values)
    return api.game.make_game(counts, lambda profile: [next(it) for _ in counts])


def interior_profile(api, rng, counts):
    vectors = []
    for c in counts:
        weights = [Fraction(rng.randint(1, 6)) for _ in range(c)]
        vectors.append(tuple(w / sum(weights) for w in weights))
    return api.game.MixedProfile(tuple(vectors))


def represent(api, method, source):
    r, lookup = api.represent, api.algebra.catalog_lookup
    if method == "vi":
        return r.represent_rational_qg_delta(source)
    if method == "vi_gmc":
        return r.represent_rational_gmc_delta(source)
    if method == "vi_lm":
        return r.represent_rational_lm(source)
    if method == "vii":
        anchors, payoff_anchors = vii_anchors(source)
        return r.represent_general(source, lookup("L_n_C", 5), anchors, payoff_anchors)
    if method == "ab_i":
        return r.represent_binary_boolean(source)
    if method == "ab_ii":
        return r.represent_binary_chain(source)
    if method == "ab_iii":
        return r.represent_binary_general(source, 2, lookup("L_n", 2))
    raise ValueError(f"unknown method {method}")


def vii_anchors(source):
    """Strategy anchors and payoff anchors on L_5_C for the `vii` route."""
    anchors = [Fraction(k, 5) for k in range(max(source.strategy_counts))]
    payoff_anchors = [Fraction(k, 5) for k in range(len(source.payoff_values()))]
    return anchors, payoff_anchors


def _describe(method, counts, levels, **extra) -> dict:
    return {"method": method, "counts": list(counts),
            "levels": [str(v) for v in levels], **extra}


# --- pure_dnf --------------------------------------------------------------------

def _pure_dnf(wl, rng, api, workdir, quick):
    for index, (method, counts) in enumerate(PURE_SCHEDULE):
        levels = binary_levels(rng) if method in BINARY_METHODS else rational_levels(rng)
        source = make_game(api, rng, counts, levels)
        if quick and _profiles(counts) > QUICK_PROFILES["pure_dnf"]:
            continue
        instance = _describe(method, counts, levels, id=index)
        wl.ops.append(Op(f"{index}:{method}:{'x'.join(map(str, counts))}", instance,
                         _pure_op(api, method, source, instance)))


def _pure_op(api, method, source, instance):
    def run(mark):
        rep = represent(api, method, source)
        report = api.represent.verify_representation(rep)
        enc = api.equilibria.build_encoding(rep.target)
        profiles, sat = api.equilibria.decide_pure_ne(rep.target, enc)
        mark()
        gate(instance, "representation verified", True, report.ok)
        expected = sorted(rep.encode(p) for p in api.oracle.pure_ne_scan(source))
        gate(instance, "pure equilibria", expected, profiles)
        gate(instance, "SAT verdict", bool(expected), sat)
    return run


# --- mixed_enc -------------------------------------------------------------------

_RANDOM_OPS = ("and", "or", "imp", "neg", "and_strong", "oplus", "ominus", "odot", "delta")


def random_formula(api, rng, names, depth=3):
    fm = api.formula
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.3:
            den = rng.randint(1, 4)
            return fm.Const(Fraction(rng.randint(0, den), den))
        return fm.Var(rng.choice(names))
    op = rng.choice(_RANDOM_OPS)
    arity = 1 if op in ("neg", "delta") else 2
    return fm.App(op, tuple(random_formula(api, rng, names, depth - 1)
                            for _ in range(arity)))


def random_logical_game(api, rng, counts):
    """Expressible logical game over STD_QPL_DELTA with random payoff formulas."""
    names = [f"v{i + 1}" for i in range(len(counts))]
    strategies = []
    for c in counts:
        block = set()
        while len(block) < c:
            den = rng.randint(1, 4)
            block.add((Fraction(rng.randint(0, den), den),))
        strategies.append(tuple(sorted(block)))
    formulas = tuple(random_formula(api, rng, names) for _ in counts)
    return api.game.LogicalGame(api.algebra.catalog_lookup("STD_QPL_DELTA"),
                                tuple((n,) for n in names), tuple(strategies), formulas)


def _mixed_enc(wl, rng, api, workdir, quick):
    for index, (method, counts) in enumerate(MIXED_SCHEDULE):
        if method == "logical":
            levels = []
            lg = random_logical_game(api, rng, counts)
        else:
            levels = binary_levels(rng) if method in BINARY_METHODS else rational_levels(rng)
            lg = represent(api, method, make_game(api, rng, counts, levels)).target
        interior = [interior_profile(api, rng, counts) for _ in range(MIXED_PROFILES)]
        if quick and _profiles(counts) > QUICK_PROFILES["mixed_enc"]:
            continue
        instance = _describe(method, counts, levels, id=index, algebra=lg.algebra.id)
        if method == "logical":
            instance["formulas"] = [api.formula.to_text(phi) for phi in lg.payoff_formulas]
        wl.ops.append(Op(f"{index}:{method}:{'x'.join(map(str, counts))}", instance,
                         _mixed_op(api, lg, interior, instance)))


def _mixed_op(api, lg, interior, instance):
    counts = [len(block) for block in lg.strategies]

    def run(mark):
        table = api.game.logical_to_strategic(lg)
        profiles = []
        if len(counts) == 2:
            found = api.oracle.find_mixed_2p(table)
            profiles += [c.profile for c in found
                         if any(0 < p < 1 for v in c.profile.probabilities for p in v)][:1]
        profiles += [api.game.dirac(counts, p) for p in api.oracle.pure_ne_scan(table)[:1]]
        profiles = (profiles + interior)[:MIXED_PROFILES]
        results = []
        for profile in profiles:
            enc = api.equilibria.build_mixed_encoding(lg)
            results.append(api.equilibria.check_mixed_ne(lg, profile, enc=enc))
        mark()
        for profile, (ok, trace) in zip(profiles, results):
            where = dict(instance, profile=[[str(p) for p in v]
                                            for v in profile.probabilities])
            gate(where, "mixed verdict", api.oracle.verify_mixed(table, profile), ok)
            expected = api.oracle.expected_payoffs(table, profile)
            gate(where, "expected payoffs", expected,
                 tuple(v for key, v in trace if key.startswith("expected_")))
    return run


# --- cli_files -------------------------------------------------------------------

def _fmt(api, value) -> str:
    return api.algebra.format_rational(value)


def _profile_line(api, profile) -> str:
    return " ".join(",".join(_fmt(api, x) for x in tup) or "()" for tup in profile)


def _cli_op(api, name, argv, code, instance, lines=None, select=None, emitted=None,
            workdir=None):
    """One `mvgames` call.  `lines` are the expected stdout lines, after
    `select` picks the ones that carry the verdict.  The manifest shows
    paths relative to `workdir`."""
    shown = [a.replace(str(workdir), "$WORK") if workdir else a for a in argv]
    instance = dict(instance, argv=shown, exit_code=code)

    def run(mark):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                actual = api.cli.main(argv)
            except SystemExit as exc:          # argparse rejected the arguments
                actual = exc.code
        mark()
        if actual != code:
            if {actual, code} <= {0, 1}:
                gate(instance, "exit code", code, actual)
            raise WrongExitCode(f"exit code {actual}, expected {code}")
        if lines is not None:
            got = out.getvalue().splitlines()
            gate(instance, "output", lines, select(got) if select else got)

    return Op(name, instance, run, emitted or (lambda: 0))


def _file_bytes(path: Path) -> Callable[[], int]:
    return lambda: path.stat().st_size if path.exists() else 0


def _lgame_bytes(path: Path) -> Callable[[], int]:
    """Bytes of payoff-formula text in an emitted logical-game file."""
    def count():
        if not path.exists():
            return 0
        doc = json.loads(path.read_text(encoding="utf-8"))
        return sum(len(text.encode()) for text in doc["payoff_formulas"])
    return count


def _dump(api, doc, path: Path) -> str:
    api.game.dump_json(doc, path)
    return str(path)


def _cli_files(wl, rng, api, workdir, quick):
    """CLI verbs over JSON files.  Inputs go to `in/`; each pass writes its
    outputs to `out/`, and later calls of the pass read them back."""
    src, out = workdir / "in", workdir / "out"
    src.mkdir(parents=True)
    out.mkdir()
    g, oracle, corpus = api.game, api.oracle, api.corpus
    ops = []

    def add(name, argv, code, instance, heavy=False, **kw):
        if not (quick and heavy):
            ops.append(_cli_op(api, name, [str(a) for a in argv], code, instance,
                               workdir=workdir, **kw))

    def pure_lines(profiles):
        return [_profile_line(api, p) for p in profiles] + ["SAT" if profiles else "UNSAT"]

    # corpus entries, emitted and then read back by the other verbs
    bids = sorted(rng.sample([Fraction(k, 8) for k in range(1, 8)], 3), reverse=True)
    bid_text = ",".join(_fmt(api, b) for b in bids)
    bundles = {"nt": corpus.new_technology(Fraction(1)), "mp": corpus.matching_pennies(),
               "lh": corpus.love_and_hate(4, 4),
               "vk": corpus.vickrey(bids, Fraction(1), Fraction(1, 8))}
    corpus_args = {"nt": ["new_technology", "--c", "1"], "mp": ["matching_pennies"],
                   "lh": ["love_and_hate", "--n", "4", "--m", "4"],
                   "vk": ["vickrey", "--p", bid_text, "--t", "1", "--grid-step", "1/8"]}
    for key, args in corpus_args.items():
        add(f"corpus:{key}", ["corpus", *args, "--out", out / key], 0,
            {"verb": "corpus", "entry": args[0]},
            emitted=_lgame_bytes(out / key / "lgame.json"))
    for key in ("vk", "lh", "nt"):
        add(f"verify-representation:{key}",
            ["verify-representation", "--game", out / key / "game.json",
             "--lgame", out / key / "lgame.json", "--rep", out / key / "rep.json"], 0,
            {"verb": "verify-representation", "entry": key},
            lines=["PASS (affine transform)"])
    for key in ("lh", "nt"):
        bundle = bundles[key]
        expected = sorted(bundle.representation.encode(p)
                          for p in oracle.pure_ne_scan(bundle.strategic))
        add(f"pure-ne:{key}", ["pure-ne", "--lgame", out / key / "lgame.json",
                               "--emit-formula", out / key / "existence.txt"],
            0 if expected else 1, {"verb": "pure-ne", "entry": key},
            heavy=key == "lh", lines=pure_lines(expected),
            emitted=_file_bytes(out / key / "existence.txt"))

    # mixed-check of new_technology at the Dirac profile of its pure equilibrium
    nt = bundles["nt"]
    nt_counts = [len(b) for b in nt.logical.strategies]
    nt_profile = g.dirac(nt_counts, oracle.pure_ne_scan(nt.strategic)[0])
    ops_mixed = [("nt", nt.logical, nt_profile, out / "nt" / "lgame.json")]

    vk_table = bundles["vk"].strategic
    vk_ne = oracle.pure_ne_scan(vk_table)
    add("oracle-pure:vk", ["oracle", "pure", "--game", out / "vk" / "game.json"],
        0 if vk_ne else 1, {"verb": "oracle pure", "entry": "vk"},
        lines=[" ".join(map(str, p)) for p in vk_ne] + [f"{len(vk_ne)} pure equilibria"])
    mp_found = oracle.find_mixed_2p(bundles["mp"].strategic)
    add("oracle-mixed-find:mp", ["oracle", "mixed-find", "--game", out / "mp" / "game.json"],
        0 if mp_found else 1, {"verb": "oracle mixed-find", "entry": "mp"},
        lines=[f"{len(mp_found)} mixed equilibria"], select=lambda got: got[-1:])

    # seeded strategic games: represent, reload, decide, check
    games = {}
    for key, counts in (("g33", (3, 3)), ("g44", (4, 4)), ("g2020", (20, 20))):
        levels = rational_levels(rng)
        games[key] = make_game(api, rng, counts, levels)
        _dump(api, g.game_to_json(games[key]), src / f"{key}.json")
        wl.manifest.append(_describe("game", counts, levels, id=key))
    # (game, method, the verb that reads the emitted files, heavy)
    for key, method, then, heavy in (
            ("g33", "vi_lm", "verify-representation", False),
            ("g44", "vi_lm", "verify-representation", True),
            ("g33", "vi", "pure-ne", False), ("g44", "vi", "pure-ne", False),
            ("g33", "vi_gmc", None, False), ("g33", "vii", "mixed-check", False)):
        rep = represent(api, method, games[key])
        lgame, sidecar = out / f"{key}_{method}.json", out / f"{key}_{method}_rep.json"
        argv = ["represent", "--game", src / f"{key}.json", "--method", method,
                "--out-lgame", lgame, "--out-rep", sidecar]
        if method == "vii":
            anchors, payoff_anchors = vii_anchors(games[key])
            argv += ["--algebra", "L_5_C",
                     "--anchors", ",".join(_fmt(api, a) for a in anchors),
                     "--payoff-anchors", ",".join(_fmt(api, a) for a in payoff_anchors)]
        kind = "affine" if rep.is_affine() else "non-affine"
        instance = {"verb": "represent", "game": key, "method": method}
        add(f"represent:{key}:{method}", argv, 0, instance, heavy=heavy,
            lines=[f"{method}: {rep.target.algebra.id}, PASS ({kind} transform)"],
            emitted=_lgame_bytes(lgame))
        if then == "verify-representation":
            add(f"verify-representation:{key}:{method}",
                ["verify-representation", "--game", src / f"{key}.json",
                 "--lgame", lgame, "--rep", sidecar], 0,
                dict(instance, verb="verify-representation"), heavy=heavy,
                lines=[f"PASS ({kind} transform)"])
        elif then == "pure-ne":
            expected = sorted(rep.encode(p) for p in oracle.pure_ne_scan(games[key]))
            existence = out / f"{key}_{method}_existence.txt"
            add(f"pure-ne:{key}:{method}",
                ["pure-ne", "--lgame", lgame, "--emit-formula", existence],
                0 if expected else 1, dict(instance, verb="pure-ne"),
                lines=pure_lines(expected), emitted=_file_bytes(existence))
        elif then == "mixed-check":
            counts = games[key].strategy_counts
            ops_mixed.append((f"{key}:{method}", rep.target,
                              interior_profile(api, rng, counts), lgame))

    for key, lg, profile, path in ops_mixed:
        table = g.logical_to_strategic(lg)
        verdict = oracle.verify_mixed(table, profile)
        values = oracle.expected_payoffs(table, profile)
        profile_path = _dump(api, g.profile_to_json(profile),
                             src / f"profile_{key.replace(':', '_')}.json")
        add(f"mixed-check:{key}",
            ["mixed-check", "--lgame", path, "--profile", profile_path, "--trace"],
            0 if verdict else 1, {"verb": "mixed-check", "entry": key},
            lines=[f"expected_{i + 1} {_fmt(api, v)}" for i, v in enumerate(values)]
            + ["mixed Nash equilibrium" if verdict else "not a mixed Nash equilibrium"],
            select=lambda got: [x for x in got if x.startswith("expected_")] + got[-1:])

    g44 = games["g44"]
    g44_ne = oracle.pure_ne_scan(g44)
    g44_found = oracle.find_mixed_2p(g44)
    add("oracle-pure:g44", ["oracle", "pure", "--game", src / "g44.json"],
        0 if g44_ne else 1, {"verb": "oracle pure", "game": "g44"},
        lines=[" ".join(map(str, p)) for p in g44_ne] + [f"{len(g44_ne)} pure equilibria"])
    add("oracle-mixed-find:g44", ["oracle", "mixed-find", "--game", src / "g44.json"],
        0 if g44_found else 1, {"verb": "oracle mixed-find", "game": "g44"},
        lines=[f"{len(g44_found)} mixed equilibria"], select=lambda got: got[-1:])
    verify_profiles = [c.profile for c in g44_found[:1]] + [
        interior_profile(api, rng, g44.strategy_counts)]
    for k, profile in enumerate(verify_profiles):
        path = _dump(api, g.profile_to_json(profile), src / f"g44_profile{k}.json")
        verdict = oracle.verify_mixed(g44, profile)
        add(f"oracle-mixed-verify:g44:{k}",
            ["oracle", "mixed-verify", "--game", src / "g44.json", "--profile", path],
            0 if verdict else 1, {"verb": "oracle mixed-verify", "game": "g44"},
            lines=["mixed Nash equilibrium" if verdict else "not a mixed Nash equilibrium"])

    # eval of a printed `vi` payoff formula at one profile: g^-1(payoff)
    for key in ("g33", "g2020"):
        source = games[key]
        rep = represent(api, "vi", source)
        path = src / f"{key}_vi_phi1.txt"
        path.write_text(api.formula.to_text(rep.target.payoff_formulas[0]), encoding="utf-8")
        profile = tuple(rng.randrange(c) for c in source.strategy_counts)
        assign = ",".join(f"{name}={_fmt(api, x)}"
                          for block, tup in zip(rep.target.variables, rep.encode(profile))
                          for name, x in zip(block, tup))
        add(f"eval:{key}:vi", ["eval", "--algebra", rep.target.algebra.id,
                               "--formula-file", path, "--assign", assign], 0,
            {"verb": "eval", "game": key, "profile": list(profile),
             "known_defect": key == "g2020"},
            lines=[_fmt(api, rep.g.inverse(source.payoff(profile, 0)))])

    # known defects, each with the outcome it should have
    parens = src / "parens500.txt"
    parens.write_text("(" * 500 + "c(1/2)" + ")" * 500, encoding="utf-8")
    add("eval:parens500", ["eval", "--algebra", "STD_L", "--formula-file", parens], 0,
        {"verb": "eval", "known_defect": True}, lines=["1/2"])
    add("eval:missing-file", ["eval", "--algebra", "STD_L", "--formula-file",
                              src / "missing.txt"], 2,
        {"verb": "eval", "known_defect": True})
    bad_key = _dump(api, [{"a": "1"}, {"0": "1"}], src / "bad_key_profile.json")
    add("oracle-mixed-verify:bad-key", ["oracle", "mixed-verify", "--game",
                                        src / "g44.json", "--profile", bad_key], 2,
        {"verb": "oracle mixed-verify", "known_defect": True})
    wl.ops.extend(ops)
