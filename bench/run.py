#!/usr/bin/env python3
"""iomlat benchmark: enumeration and law-checking workloads.

Run from the repository root:

    python3 bench/run.py --workload enum-implinvbe-8 --seed 1 --seconds 30 --trace 0

Workloads (see bench/README.md for why each is there):

- enum-implinvbe-8  `enumerate --size 8 --class implinvbe --modulo-iso`
- enum-be-5         `enumerate --size 5 --class be --modulo-iso`
- laws-on-tables    `report`, `classify` and `eval --file` on 28 frozen
                    tables written under a seed-chosen relabeling, plus
                    `convert` both ways and `ortho.check_om_law`

Load: one process, a closed loop with one client, one command at a time,
no threads.  Each command is one `iomlat.cli.main` call in this process
(the program only ever receives generated files and argv), and every
output is checked against frozen expectations (bench/data/).

`--trace 0` prints the end-to-end metrics; `--trace 1` wraps the public
functions of each module (bench/tracing.py), alternates untraced and
traced passes and prints the per-layer metrics.  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DATA = BENCH / "data"
WORK = BENCH / ".work"

WORKLOADS = ("enum-implinvbe-8", "enum-be-5", "laws-on-tables")
ENUM_ARGS = {"enum-implinvbe-8": (8, "implinvbe"), "enum-be-5": (5, "be")}

# Set-up is timed in fresh processes spawned between passes, so its median
# samples the machine over the whole run, not over one burst at its start.
SETUP_PER_PASS = 2
SETUP_MIN_RUNS = 9
SETUP_CODE = ("import sys, iomlat.cli; "
              "sys.exit(iomlat.cli.main(['report', 'fixtures/b2.alg']))")
WARMUP_ARGV = ["report", "fixtures/b2.alg"]
TAIL_BEYOND = 10
ISOLATION = "none: no CPU pinning, no cgroup change, no cache drop"

END_TO_END = ("setup_s", "wall_s", "cmd_p50_s", "cmd_tail_s", "peak_rss_mb", "ok_ratio")
UNITS = {"setup_s": "s", "wall_s": "s", "cmd_p50_s": "s", "cmd_tail_s": "s",
         "peak_rss_mb": "MB", "ok_ratio": "ratio"}


class BenchError(Exception):
    """The benchmark cannot run here (missing program or data)."""


# -- the program under test ------------------------------------------------------


def load_program():
    src = ROOT / "src"
    if not (src / "iomlat" / "cli.py").is_file() or not (ROOT / "fixtures").is_dir():
        raise BenchError(f"no iomlat sources or fixtures under {ROOT}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT / "tests"))
    import iomlat.cli
    import oracle_eval
    if Path(iomlat.cli.__file__).resolve().parent != src / "iomlat":
        raise BenchError(f"iomlat imported from {iomlat.cli.__file__}, not {src}")
    return iomlat, oracle_eval


def run_cli(argv):
    """One command: `iomlat.cli.main(argv)` with stdout and stderr captured.

    `main` is looked up at call time so a traced run sees its wrapper.
    """
    import iomlat.cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = iomlat.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def emitted_digest(emit_dir: Path, klass: str, size: int, count: int) -> str | None:
    """SHA-256 over the emitted tables in index order; None when the
    directory does not hold exactly `count` of them."""
    names = [f"{klass}_{size}_{i}.alg" for i in range(count)]
    if sorted(p.name for p in emit_dir.iterdir()) != sorted(names):
        return None
    h = hashlib.sha256()
    for name in names:
        h.update((emit_dir / name).read_bytes())
    return h.hexdigest()


# -- operations and their checks ---------------------------------------------------


@dataclass
class Op:
    label: str
    run: Callable[[], tuple]
    check: Callable[[int, str, str], str | None]
    prepare: Callable[[], None] = field(default=lambda: None)


def enum_ops(workload, run_dir, expected):
    size, klass = ENUM_ARGS[workload]
    emit_dir = run_dir / "emit"
    want = expected["enum"][workload]
    argv = ["enumerate", "--size", str(size), "--class", klass, "--modulo-iso",
            "--emit", str(emit_dir)]

    def prepare():
        shutil.rmtree(emit_dir, ignore_errors=True)

    def check(rc, out, err):
        if rc != 0 or out != f"count={want['count']}\n":
            return f"rc={rc} output {out.strip()!r}, expected count={want['count']}"
        digest = emitted_digest(emit_dir, klass, size, want["count"])
        if digest != want["sha256"]:
            return f"emitted tables digest {digest} != {want['sha256']}"
        return None

    return [Op(workload, partial(run_cli, argv), check, prepare)]


def relabel(entry, rng):
    """The frozen table under a random permutation of its whole carrier
    (0 and 1 move too); element names travel with their elements."""
    n = entry["n"]
    perm = rng.sample(range(n), n)
    names = [None] * n
    table = [[None] * n for _ in range(n)]
    for a in range(n):
        names[perm[a]] = entry["names"][a]
        for b in range(n):
            table[perm[a]][perm[b]] = perm[entry["table"][a][b]]
    return names, table, perm[entry["one"]], perm[entry["zero"]]


def algtab_text(names, table, one, zero):
    rows = [" ".join(names[v] for v in row) for row in table]
    return "\n".join(["algtab 1", f"n {len(names)}", "elems " + " ".join(names),
                      f"one {names[one]}", f"zero {names[zero]}", *rows]) + "\n"


def statement_sources(path: Path):
    out = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


class Oracle:
    """Witness checks with the independent evaluator of tests/oracle_eval."""

    def __init__(self, iomlat, oracle_eval):
        self.terms = iomlat.terms
        self.atom = oracle_eval._atom
        self._parsed = {}

    def parse(self, src):
        stmt = self._parsed.get(src)
        if stmt is None:
            stmt = self._parsed[src] = self.terms.parse_statement(src)
        return stmt

    def falsifies(self, src, alg, env) -> bool:
        stmt = self.parse(src)
        if set(env) != set(stmt.vars):
            return False
        if isinstance(stmt, self.terms.Equation):
            return not self.atom(stmt, alg, env)
        return (all(self.atom(h, alg, env) for h in stmt.hypotheses)
                and not self.atom(stmt.conclusion, alg, env))


def parse_witness(text, index):
    env = {}
    for part in text.split():
        var, _, name = part.partition("=")
        if name not in index:
            return None
        env[var] = index[name]
    return env


@dataclass
class Table:
    """A frozen table as written for one run: relabeled, with its file."""

    frozen: dict
    alg: object
    index: dict[str, int]
    path: str


def check_report(entry_ids, table, rc, out, err):
    lines = out.splitlines()
    if len(lines) != len(entry_ids) + 1:
        return f"{len(lines)} report lines, expected {len(entry_ids) + 1}"
    counts = {"PASS": 0, "FAIL": 0, "SKIP": 0, "FLAG": 0}
    for want_id, line in zip(entry_ids, lines):
        parts = line.split(maxsplit=2)
        if len(parts) < 2 or parts[0] != want_id or parts[1] not in counts:
            return f"bad report line {line!r} (expected entry {want_id})"
        counts[parts[1]] += 1
    summary = (f"total={len(entry_ids)} pass={counts['PASS']} fail={counts['FAIL']}"
               f" skip={counts['SKIP']}")
    if counts["FLAG"]:
        summary += f" flag={counts['FLAG']}"
    if lines[-1] != summary:
        return f"summary {lines[-1]!r} != {summary!r}"
    if rc != (1 if counts["FAIL"] else 0):
        return f"rc={rc} with fail={counts['FAIL']}"
    if "IOML" in table.frozen["labels"] and counts["FAIL"]:
        return f"fail={counts['FAIL']} on an IOML table"
    return None


def check_classify(axiom_sources, oracle, table, rc, out, err):
    lines = out.splitlines()
    if rc != 0 or len(lines) != len(axiom_sources) + 2:
        return f"rc={rc}, {len(lines)} classify lines"
    for (name, sources), want, line in zip(axiom_sources.items(), table.frozen["axioms"], lines):
        parts = line.split(maxsplit=2)
        if parts[:2] not in ([name, "PASS"], [name, "FAIL"]):
            return f"bad classify line {line!r} (expected axiom {name})"
        if (parts[1] == "PASS") != (want == "P"):
            return f"{name} {parts[1]}, frozen verdict {want}"
        if parts[1] == "FAIL":
            env = parse_witness(parts[2] if len(parts) > 2 else "", table.index)
            if env is None or not any(oracle.falsifies(src, table.alg, env) for src in sources):
                return f"{name} witness {line!r} falsifies none of its statements"
    labels = " ".join(table.frozen["labels"]) or "(none)"
    if lines[-2:] != [f"labels: {labels}", "degenerate: no"]:
        return f"labels {lines[-2:]!r}, expected {labels!r}"
    return None


def check_eval(sources, oracle, table, rc, out, err):
    lines = out.splitlines()
    if len(lines) != len(sources):
        return f"{len(lines)} eval lines for {len(sources)} statements"
    verdicts = table.frozen["verdicts"]
    for src, want, line in zip(sources, verdicts, lines):
        if line == f"{src} HOLDS":
            if want != "H":
                return f"{src!r} HOLDS, frozen verdict fails"
        elif line.startswith(f"{src} FAILS "):
            if want != "F":
                return f"{src!r} FAILS, frozen verdict holds"
            env = parse_witness(line[len(src) + len(" FAILS "):], table.index)
            if env is None or not oracle.falsifies(src, table.alg, env):
                return f"witness in {line!r} does not falsify the statement"
        else:
            return f"bad eval line {line!r}"
    if rc != (1 if "F" in verdicts else 0):
        return f"rc={rc}"
    return None


def check_to_oml(table, rc, out, err):
    if rc == 0 and ortlat_inverts(out, table.alg):
        return None
    return f"rc={rc}; lattice does not convert back to the table"


def check_to_alg(want, rc, out, err):
    digest = hashlib.sha256(out.encode()).hexdigest()
    return None if rc == 0 and digest == want["sha256"] else f"rc={rc}, output digest {digest}"


def check_om_law(want, rc, out, err):
    return None if out == str(want["om_ok"]) else f"om law {out}, expected {want['om_ok']}"


def om_law(iomlat, path):
    """The library operation of the workload: load a lattice, check the law."""
    lat = iomlat.ortho.load_ortlat(path)
    return 0, str(iomlat.ortho.check_om_law(lat).ok), ""


def laws_ops(seed, run_dir, laws, expected, iomlat, oracle):
    rng = random.Random(seed)
    stmt_file = DATA / "bank_statements.txt"
    sources = statement_sources(stmt_file)
    axiom_sources = laws["axioms"]
    for src in sources + [src for srcs in axiom_sources.values() for src in srcs]:
        oracle.parse(src)
    table_dir = run_dir / "tables"
    table_dir.mkdir(parents=True)
    ops = []
    for frozen in laws["tables"]:
        names, rows, one, zero = relabel(frozen, rng)
        path = table_dir / f"{frozen['name']}.alg"
        path.write_text(algtab_text(names, rows, one, zero), encoding="utf-8")
        alg = iomlat.FiniteAlgebra(names=tuple(names), table=tuple(map(tuple, rows)),
                                   one=one, zero=zero)
        t = Table(frozen, alg, {name: i for i, name in enumerate(names)}, str(path))
        name = frozen["name"]
        ops.append(Op(f"report {name}", partial(run_cli, ["report", t.path]),
                      partial(check_report, laws["entry_ids"], t)))
        ops.append(Op(f"classify {name}", partial(run_cli, ["classify", t.path]),
                      partial(check_classify, axiom_sources, oracle, t)))
        ops.append(Op(f"eval {name}",
                      partial(run_cli, ["eval", t.path, "--file", str(stmt_file)]),
                      partial(check_eval, sources, oracle, t)))
        if "IOML" in frozen["labels"]:
            ops.append(Op(f"convert-oml {name}",
                          partial(run_cli, ["convert", t.path, "--to", "oml"]),
                          partial(check_to_oml, t)))
    for name, want in expected["olt"].items():
        path = str(ROOT / "fixtures" / name)
        ops.append(Op(f"convert-alg {name}", partial(run_cli, ["convert", path, "--to", "alg"]),
                      partial(check_to_alg, want)))
        ops.append(Op(f"check_om_law {name}", partial(om_law, iomlat, path),
                      partial(check_om_law, want)))
    return ops


def ortlat_inverts(text, alg) -> bool:
    """Parse `convert --to oml` output and check it is the lattice of the
    table: a -> b = (a meet b')', join by De Morgan, a' = a -> 0."""
    lines = [line.split() for line in text.splitlines() if line.strip()]
    names, table, zero = alg.names, alg.table, alg.zero
    n = len(names)
    if len(lines) != 2 * n + 9:
        return False
    head = [["ortlat", "1"], ["n", str(n)], ["elems", *names]]
    if lines[:3] != head or lines[5] != ["meet"] or lines[6 + n] != ["join"] \
            or lines[7 + 2 * n] != ["ortho"]:
        return False
    index = {name: i for i, name in enumerate(names)}
    try:
        meet = [[index[x] for x in row] for row in lines[6:6 + n]]
        join = [[index[x] for x in row] for row in lines[7 + n:7 + 2 * n]]
        ortho = [index[x] for x in lines[8 + 2 * n]]
        one, zero_ = index[lines[3][1]], index[lines[4][1]]
    except (KeyError, IndexError):
        return False
    if zero_ != zero or one != table[zero][zero] or len(ortho) != n:
        return False
    r = range(n)
    return (all(len(row) == n for row in meet + join)
            and all(ortho[a] == table[a][zero] for a in r)
            and all(table[a][b] == ortho[meet[a][ortho[b]]] for a in r for b in r)
            and all(join[a][b] == ortho[meet[ortho[a]][ortho[b]]] for a in r for b in r))


def build_ops(workload, seed, run_dir, iomlat, oracle):
    expected = json.loads((DATA / "expected.json").read_text(encoding="utf-8"))
    if workload in ENUM_ARGS:
        return enum_ops(workload, run_dir, expected)
    laws = json.loads((DATA / "laws.json").read_text(encoding="utf-8"))
    return laws_ops(seed, run_dir, laws, expected, iomlat, oracle)


# -- passes --------------------------------------------------------------------


@dataclass
class PassResult:
    wall: float
    latencies: list[float]
    failures: list[str]


def run_pass(ops, tracer=None, cmd_base=0) -> PassResult:
    for op in ops:
        op.prepare()
    results, latencies = [], []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.cmd = cmd_base + i
        t = time.perf_counter()
        try:
            results.append(op.run())
        except Exception as exc:  # a raising command is a failed command
            results.append(exc)
        latencies.append(time.perf_counter() - t)
    wall = time.perf_counter() - start
    failures = []
    for op, res in zip(ops, results):
        if isinstance(res, Exception):
            msg = f"raised {type(res).__name__}: {res}"
        elif res[0] == 2:
            msg = f"exit 2: {res[2].strip()}"
        else:
            try:
                msg = op.check(*res)
            except Exception as exc:  # output too malformed to check
                msg = f"check raised {type(exc).__name__}: {exc}"
        if msg is not None:
            failures.append(f"{op.label}: {msg}")
    return PassResult(wall, latencies, failures)


def warm_up() -> list[str]:
    """One in-process `report fixtures/b2.alg`, as in set-up: it fills the
    parse caches so timed passes are warm."""
    rc, out, _ = run_cli(WARMUP_ARGV)
    ok = rc == 0 and out.endswith("\n") and out.splitlines()[-1].startswith("total=85 ")
    return [] if ok else [f"warm-up report: rc={rc}"]


def measure_setup(runs) -> tuple[list[float], list[str]]:
    """Fresh interpreter + `import iomlat.cli` + one `report fixtures/b2.alg`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    times, failures = [], []
    for _ in range(runs):
        t = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t)
        last = proc.stdout.splitlines()[-1] if proc.stdout else ""
        if proc.returncode != 0 or not last.startswith("total=85 ") or " fail=0 " not in last + " ":
            failures.append(f"setup process: rc={proc.returncode} {proc.stderr.strip()[-200:]}")
    return times, failures


def tail(values):
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    With fewer than 2*TAIL_BEYOND+1 samples, half the samples beyond it,
    which is the median.  Returns (value, percentile, samples beyond).
    """
    xs = sorted(values)
    beyond = min(TAIL_BEYOND, (len(xs) - 1) // 2)
    i = len(xs) - 1 - beyond
    return xs[i], 100.0 * (i + 1) / len(xs), beyond


# -- run modes -----------------------------------------------------------------


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unknown (git not available)"
    return proc.stdout.strip() or "unknown"


def best_latencies(passes) -> list[float]:
    """Each command's fastest repeat over the passes of a run.

    On a shared machine other tenants slow whole stretches of a run, by up
    to 1.9x for 10-30 s at a time; they never make code run faster.  The
    fastest repeat is the least disturbed reading of a command's cost, so
    it is steadier between runs than a median over the same repeats.
    """
    return [min(col) for col in zip(*(p.latencies for p in passes))]


def run_untraced(ops, seconds):
    """Warm-up, then whole passes until `seconds` elapse, with set-up
    timed in between."""
    failures = warm_up()
    passes, setup_times = [], []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(run_pass(ops))
        times, setup_failures = measure_setup(SETUP_PER_PASS)
        setup_times += times
        failures += setup_failures
    if len(setup_times) < SETUP_MIN_RUNS:
        times, setup_failures = measure_setup(SETUP_MIN_RUNS - len(setup_times))
        setup_times += times
        failures += setup_failures
    failures += [f for p in passes for f in p.failures]
    attempted = len(ops) * len(passes) + len(setup_times) + 1  # + the warm-up command
    best = best_latencies(passes)
    t_value, t_pct, t_beyond = tail(best)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(best),
        "cmd_p50_s": statistics.median(best),
        "cmd_tail_s": t_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (attempted - len(failures)) / attempted,
    }
    k = f"best of {len(passes)} repeats"
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh processes, {SETUP_PER_PASS} after each pass",
        "wall_s": f"sum over {len(ops)} commands, each its {k}; "
                  f"median pass took {statistics.median(p.wall for p in passes):.6f} s",
        "cmd_p50_s": f"median over {len(ops)} commands, each its {k}",
        "cmd_tail_s": f"p{t_pct:.1f} over {len(ops)} commands, each its {k}; "
                      f"{t_beyond} beyond",
        "peak_rss_mb": "ru_maxrss of this process",
        "ok_ratio": f"fail_ratio={len(failures) / attempted:.6f} "
                    f"({len(failures)} of {attempted} failed)",
    }
    for name in END_TO_END:
        print(f"{name:<12} {metrics[name]:.6f} {UNITS[name]:<5} {notes[name]}")
    return metrics, attempted, failures


def run_traced(ops, seconds, workload, seed):
    """Alternate untraced and traced passes; per-layer metrics are medians
    over traced passes, counts must repeat exactly between them."""
    tracer = tracing.Tracer()
    failures = warm_up()
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        untraced.append(run_pass(ops))
        tracer.pass_id = len(traced)
        tracer.install()
        try:
            traced.append(run_pass(ops, tracer, cmd_base=len(traced) * len(ops)))
        finally:
            tracer.uninstall()
    failures += [f for p in untraced + traced for f in p.failures]
    attempted = sum(len(p.latencies) for p in untraced + traced) + 1  # + the warm-up
    per_pass = [tracing.pass_metrics(tracer, i) for i in range(len(traced))]
    unrepeated = tracing.unrepeated_counts(per_pass)
    metrics = tracing.combine(per_pass)
    metrics["trace.overhead_s"] = sum(best_latencies(traced)) - sum(best_latencies(untraced))
    WORK.mkdir(parents=True, exist_ok=True)
    spans_path = WORK / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write_spans(spans_path)
    for name in tracing.PER_LAYER:
        print(f"{name:<42} {metrics[name]:.6f} {tracing.UNITS[name]}")
    print(f"traced passes={len(traced)} untraced passes={len(untraced)} "
          f"spans={len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    print("counts repeat between traced passes: "
          + (f"NO, differ: {', '.join(unrepeated)}" if unrepeated else "yes"))
    print(tracing.profile_note(workload, metrics))
    return metrics, attempted, failures, [f"count {k} differs between passes" for k in unrepeated]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    meta = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)), "commit": git_commit(),
            "loadavg_start": loadavg(), "isolation": ISOLATION,
            "load": "closed loop, one client, one command at a time"}
    try:
        iomlat, oracle_eval = load_program()
    except (BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        ops = build_ops(args.workload, args.seed, run_dir, iomlat, Oracle(iomlat, oracle_eval))
        if args.trace:
            metrics, attempted, failures, problems = run_traced(
                ops, args.seconds, args.workload, args.seed)
            units = tracing.UNITS
        else:
            metrics, attempted, failures = run_untraced(ops, args.seconds)
            problems, units = [], UNITS
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for msg in (failures + problems)[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    meta["loadavg_end"] = loadavg()
    print("meta " + json.dumps(meta))
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
