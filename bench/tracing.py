"""Spans around the public functions of iomlat, recorded from outside.

`Tracer.install()` replaces each target function with a wrapper in every
iomlat module namespace that binds it (for example `classify` is bound in
`axioms`, `bank`, `cli` and the package itself), so calls through any of
those names are seen.  `uninstall()` puts the originals back.  Spans are
kept in memory as tuples and written out by `write_spans` at the end.

Counts that the program does not expose are computed at the boundary from
arguments and results:

- `structure.canonical_form.perms`: (n-2)! relabelings per call;
- `terms.holds.assignments`: n^k for a statement with k variables that
  holds, the lexicographic rank of the witness + 1 for one that fails;
- `modelsearch.raw_tables`: `canonical_key` calls made directly by
  `enumerate_models`; `modelsearch.classes`: models it yields;
- `bank.entries.*`: the statuses in each `run_bank` result.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import statistics
import time
from collections import defaultdict

TARGETS = (
    "cli.main",
    "modelsearch.enumerate_models",
    "structure.canonical_key",
    "structure.canonical_form",
    "structure.center",
    "structure.commutor",
    "structure.is_isomorphic",
    "structure.find_o6_subalgebra",
    "structure.generate_subalgebra",
    "axioms.classify",
    "axioms.check_axiom",
    "axioms.distributive_triple",
    "terms.parse_statement",
    "terms.holds",
    "bank.run_bank",
    "algebras.load_algtab",
    "algebras.format_algtab",
    "ortho.load_ortlat",
    "ortho.from_ortholattice",
    "ortho.to_ortholattice",
    "ortho.check_om_law",
)

PACKAGE = "iomlat"
GENERATORS = {"modelsearch.enumerate_models"}

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "cmd", "pass")


class Tracer:
    """Records spans (see SPAN_FIELDS) and per-pass counts.

    Set `cmd` and `pass_id` before each command and pass; spans and counts
    are tagged with them.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.cmd = 0
        self.pass_id = 0
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        self._parse = importlib.import_module(f"{PACKAGE}.terms").parse_statement

    # -- installation -------------------------------------------------------

    def install(self):
        mods = [m for name, m in list(sys.modules.items())
                if m is not None
                and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for target in TARGETS:
            mod_name, func_name = target.split(".")
            module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            original = getattr(module, func_name)
            wrapper = self._wrap(target, original)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- recording ----------------------------------------------------------

    def _open(self, name):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((sid, name))
        return sid, parent, time.perf_counter()

    def _close(self, name, sid, parent, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, name, start, end, parent, self.cmd, self.pass_id))

    def _count(self, key, k=1):
        self.counts[self.pass_id][key] += k

    def _wrap(self, name, original):
        if name in GENERATORS:
            def wrapper(*args, **kwargs):
                self._count(name + ".calls")
                return self._segments(name, original(*args, **kwargs))
        else:
            hook = getattr(self, "_after_" + name.replace(".", "_"), None)

            def wrapper(*args, **kwargs):
                self._count(name + ".calls")
                sid, parent, start = self._open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._close(name, sid, parent, start)
                if hook is not None:
                    hook(args, kwargs, result)
                return result

        wrapper.__wrapped__ = original
        return wrapper

    def _segments(self, name, gen):
        """Time each resumption of a generator as one span, so the
        consumer's work between items is not charged to it."""
        while True:
            sid, parent, start = self._open(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(name, sid, parent, start)
            self._count("modelsearch.classes")
            yield item

    # -- counts computed at the boundary ------------------------------------

    def _after_structure_canonical_form(self, args, kwargs, result):
        n = (args[0] if args else kwargs["alg"]).size
        self._count("structure.canonical_form.perms", math.factorial(max(n - 2, 0)))

    def _after_structure_canonical_key(self, args, kwargs, result):
        if self._stack and self._stack[-1][1] == "modelsearch.enumerate_models":
            self._count("modelsearch.raw_tables")

    def _after_terms_holds(self, args, kwargs, result):
        bound = dict(zip(("stmt", "alg"), args), **kwargs)
        stmt, alg = bound["stmt"], bound["alg"]
        if isinstance(stmt, str):
            stmt = self._parse(stmt)
        n = alg.size
        if result.ok:
            cost = n ** len(stmt.vars)
        else:
            rank = 0
            for v in stmt.vars:
                rank = rank * n + result.witness[v]
            cost = rank + 1
        self._count("terms.holds.assignments", cost)

    def _after_bank_run_bank(self, args, kwargs, result):
        for status, k in result.counts().items():
            self._count(f"bank.entries.{status}", k)

    # -- output ---------------------------------------------------------------

    def pass_times(self, pass_id: int) -> dict[str, dict[str, float]]:
        """Total and self seconds per function name over one pass.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the program is
        single-threaded and generator segments are separate spans.
        """
        spans = [s for s in self.spans if s[6] == pass_id]
        child = defaultdict(float)
        for s in spans:
            if s[4] is not None:
                child[s[4]] += s[3] - s[2]
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"s": 0.0, "self_s": 0.0})
        for sid, name, start, end, *_ in spans:
            out[name]["s"] += end - start
            out[name]["self_s"] += end - start - child[sid]
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- per-layer metrics ------------------------------------------------------------

_TIMED = (
    ("modelsearch.enumerate_models", ("calls", "s", "self_s")),
    ("structure.canonical_key", ("calls", "s")),
    ("structure.center", ("calls", "s")),
    ("structure.commutor", ("calls", "s")),
    ("structure.is_isomorphic", ("calls", "s")),
    ("structure.find_o6_subalgebra", ("calls", "s")),
    ("structure.generate_subalgebra", ("calls", "s")),
    ("axioms.classify", ("calls", "s", "self_s")),
    ("axioms.check_axiom", ("calls", "s")),
    ("axioms.distributive_triple", ("calls", "s")),
    ("terms.parse_statement", ("calls", "s")),
    ("terms.holds", ("calls", "s")),
    ("bank.run_bank", ("calls", "s", "self_s")),
    ("algebras.load_algtab", ("calls", "s")),
    ("algebras.format_algtab", ("calls", "s")),
    ("ortho.load_ortlat", ("calls", "s")),
    ("ortho.from_ortholattice", ("calls", "s")),
    ("ortho.to_ortholattice", ("calls", "s")),
    ("ortho.check_om_law", ("calls", "s")),
    ("cli.main", ("calls", "s")),
)

COUNTS = (
    "modelsearch.raw_tables",
    "modelsearch.classes",
    "structure.canonical_form.perms",
    "terms.holds.assignments",
    "bank.entries.pass",
    "bank.entries.fail",
    "bank.entries.skip",
    "bank.entries.flag",
)

PER_LAYER = tuple(f"{name}.{kind}" for name, kinds in _TIMED for kind in kinds) + COUNTS + (
    "modelsearch.unique_ratio",
    "terms.holds.assignments_per_s",
    "trace.overhead_s",
)

UNITS = {name: ("count" if name.endswith(".calls") or name in COUNTS else "s")
         for name in PER_LAYER}
UNITS["modelsearch.unique_ratio"] = "ratio"
UNITS["terms.holds.assignments_per_s"] = "1/s"

# The layer that held most of `cli.main` time per workload at the commit
# that defined this benchmark.  Reported, not enforced: an optimisation of
# that layer is expected to change the answer.
_EXPECTED_DOMINANT = {
    "enum-implinvbe-8": "structure.canonical_key",
    "enum-be-5": "axioms.classify",
    "laws-on-tables": "terms.holds",
}


def pass_metrics(tracer: Tracer, pass_id: int) -> dict[str, float]:
    """Counts and seconds of one traced pass, keyed by metric name."""
    times = tracer.pass_times(pass_id)
    counts = tracer.counts[pass_id]
    out = {}
    for name, kinds in _TIMED:
        for kind in kinds:
            key = f"{name}.{kind}"
            out[key] = counts.get(key, 0) if kind == "calls" else times.get(name, {}).get(kind, 0.0)
    for key in COUNTS:
        out[key] = counts.get(key, 0)
    holds_s = out["terms.holds.s"]
    out["terms.holds.assignments_per_s"] = (
        out["terms.holds.assignments"] / holds_s if holds_s else 0.0)
    return out


def unrepeated_counts(per_pass: list[dict[str, float]]) -> list[str]:
    """Count metrics whose value is not identical in every traced pass."""
    keys = [k for k in PER_LAYER if UNITS[k] == "count"]
    return [k for k in keys if len({p[k] for p in per_pass}) != 1]


def combine(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Counts of the first pass; times and rates as medians over passes."""
    out = {}
    for key in per_pass[0]:
        if UNITS[key] == "count":
            out[key] = per_pass[0][key]
        else:
            out[key] = statistics.median(p[key] for p in per_pass)
    raw = out["modelsearch.raw_tables"]
    out["modelsearch.unique_ratio"] = out["modelsearch.classes"] / raw if raw else 0.0
    return out


def profile_note(workload: str, metrics: dict[str, float]) -> str:
    layer = _EXPECTED_DOMINANT[workload]
    total = metrics["cli.main.s"]
    share = metrics[f"{layer}.s"] / total if total else 0.0
    verdict = "most" if share > 0.5 else "NOT most"
    return (f"profile: {layer} holds {100 * share:.1f}% of cli.main time ({verdict}; "
            f"most at the commit that defined this benchmark)")
