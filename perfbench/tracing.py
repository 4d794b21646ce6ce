"""Spans and exact counters at the package's layer boundaries.

`Tracer.install(api)` replaces module attributes at the name each caller
looks up -- `mvgames.represent.payoff` as well as `mvgames.game.payoff`,
`mvgames.formula.evaluate`, the CLI's `cmd_*` verbs -- with wrappers that
record a span: name, start, end, parent span and operation id.  Spans stay
in memory until `write`.  A span's self time is its duration minus the time
its child spans cover.

Size counts (DAG nodes reached by each evaluation, DAG nodes of built
formulas) are taken after the wrapped call returns, inside a `trace.count`
span, so the counting cost is kept out of every layer's self time.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter

# (module, attribute, span name).  A function imported by name into another
# module is wrapped there too, because that is where its callers find it.
SPANS = [
    ("formula", "evaluate", "formula.evaluate"),
    ("formula", "substitute", "formula.substitute"),
    ("formula", "parse", "formula.parse"),
    ("formula", "to_text", "formula.to_text"),
    ("formula", "free_variables", "formula.free_variables"),
    ("game", "lgame_from_json", "game.lgame_from_json"),
    ("game", "lgame_to_json", "game.lgame_to_json"),
    ("game", "payoff", "game.payoff"),
    ("represent", "payoff", "game.payoff"),
    ("game", "logical_to_strategic", "game.logical_to_strategic"),
    ("oracle", "logical_to_strategic", "game.logical_to_strategic"),
    ("represent", "represent_binary_boolean", "represent.build"),
    ("represent", "represent_binary_chain", "represent.build"),
    ("represent", "represent_binary_general", "represent.build"),
    ("represent", "represent_rational_qg_delta", "represent.build"),
    ("represent", "represent_rational_gmc_delta", "represent.build"),
    ("represent", "represent_rational_lm", "represent.build"),
    ("represent", "represent_general", "represent.build"),
    ("represent", "verify_representation", "represent.verify"),
    ("represent", "characteristic", "chars.gadget"),
    ("represent", "zeta", "chars.gadget"),
    ("equilibria", "pseudo_char", "chars.gadget"),
    ("equilibria", "build_gamma", "equilibria.gamma"),
    ("equilibria", "build_gamma_weak", "equilibria.gamma"),
    ("equilibria", "decide_pure_ne", "equilibria.decide"),
    ("equilibria", "build_mixed_encoding", "equilibria.mixed_build"),
    ("equilibria", "check_mixed_ne", "equilibria.mixed_check"),
    ("oracle", "find_mixed_2p", "oracle.find_mixed_2p"),
    ("oracle", "verify_mixed", "oracle.verify_mixed"),
    ("oracle", "pure_ne_scan", "oracle.pure_ne_scan"),
] + [("cli", f"cmd_{verb.replace('-', '_').replace('.', '_')}", f"cli.{verb}")
     for verb in ("eval", "corpus", "represent", "verify-representation", "pure-ne",
                  "mixed-check", "oracle.pure", "oracle.mixed-verify", "oracle.mixed-find")]

# Calls counted without a span: (module, attribute, counter).
COUNTERS = [
    ("equilibria", "satisfies_gamma", "equilibria.decide.profiles"),
    ("oracle", "solve_linear", "oracle.solve_linear.calls"),
]


def dag_nodes(roots) -> int:
    """Distinct formula nodes reachable from `roots`, by identity; iterative,
    so deep formulas are safe."""
    seen = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(getattr(node, "args", ()))
    return len(seen)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index, op id]
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._patched: list = []
        self._evaluated: dict = {}       # id(root) -> (root, node count), per op

    # -- installation --------------------------------------------------------

    def install(self, api) -> None:
        after = {
            "formula.evaluate": self._after_evaluate,
            "formula.parse": lambda args, result: self._add("formula.parse.bytes",
                                                            len(args[0].encode())),
            "formula.to_text": lambda args, result: self._add("formula.to_text.bytes",
                                                              len(result.encode())),
            "represent.build": lambda args, result: self._add(
                "represent.payoff_dag_nodes", dag_nodes(result.target.payoff_formulas)),
            "equilibria.gamma": lambda args, result: self._add(
                "equilibria.gamma_dag_nodes", dag_nodes([result.gamma])),
            "equilibria.mixed_build": lambda args, result: self._add(
                "equilibria.mixed_dag_nodes", dag_nodes([result.full])),
        }
        for module, attr, name in SPANS:
            self._patch(getattr(api, module), attr,
                        lambda fn, name=name: self.wrap(name, fn, after.get(name)))
        for module, attr, name in COUNTERS:
            self._patch(getattr(api, module), attr,
                        lambda fn, name=name: self._counting(name, fn))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _patch(self, module, attr, make) -> None:
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, make(original))

    # -- recording -------------------------------------------------------------

    def begin_op(self, op_id) -> None:
        self.op = op_id
        self._evaluated.clear()

    def wrap(self, name, fn, after=None):
        spans, stack, opened, counts = self.spans, self._stack, self._open, self.counts
        calls = name + ".calls"
        count = self.wrap("trace.count", after) if after is not None else None

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(record)
            stack.append(index)
            opened[name] += 1
            counts[calls] += 1
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
                opened[name] -= 1
            if count is not None:
                count(args, result)
            return result

        return traced

    def _counting(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _add(self, name, amount) -> None:
        self.counts[name] += amount

    def _after_evaluate(self, args, result) -> None:
        root = args[0]
        cached = self._evaluated.get(id(root))
        if cached is None or cached[0] is not root:
            cached = self._evaluated[id(root)] = (root, dag_nodes([root]))
        self.counts["formula.evaluate.nodes"] += cached[1]
        if self._open["equilibria.mixed_check"]:
            self.counts["equilibria.mixed_check.evaluate_calls"] += 1

    # -- results ---------------------------------------------------------------

    def self_times(self, first: int = 0) -> Counter:
        """Self seconds per span name over the spans from index `first` on."""
        covered = Counter()
        for name, start, end, parent, _ in self.spans[first:]:
            if parent >= first:
                covered[parent] += end - start
        out = Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans[first:], first):
            out[name] += end - start - covered[index]
        return out

    def take_counts(self) -> Counter:
        """The counts since the last call; the wrappers keep their counter."""
        counts = Counter(self.counts)
        self.counts.clear()
        return counts

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")
