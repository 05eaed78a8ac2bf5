#!/usr/bin/env python3
"""The benchmark's own checks.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  It checks that

  1. every generator gives byte-identical files for the same seed and
     different files for another seed;
  2. every oracle accepts `rcdelay`'s real answer and rejects a
     deliberately perturbed one;
  3. every metric named in BENCHMARK.json is emitted on every workload,
     the end-to-end ones non-zero, the per-layer ones non-zero where the
     layer does the workload's work, and the trace file is valid
     Chrome trace-event JSON.

Exits 0 when all hold; prints each failure otherwise.
"""

import filecmp
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

SCRATCH = os.path.join(run.OUT, "selftest")

# Per-layer metrics that must be non-zero, by workload.
CARRIES = {
    "fanout-deck": ["spice.", "rctree.analysis.", "rctree.bounds.s", "util.table.s",
                    "parallel.pool.tasks", "times_s", "certify_s"],
    "chain-deck": ["spice.", "rctree.analysis.", "circuit.transient.", "numeric.tree_ldl.",
                   "times_s", "transient_s"],
    "adder-sta": ["sta.", "parallel.pool.tasks", "sta_s"],
    "whatif-sweep": ["spice.", "rctree.convert.s", "rctree.incremental.", "util.table.s",
                     "parallel.pool.tasks", "cli.self_s", "sweep_s"],
}
EVERYWHERE = ["parallel.pool.speedup", "cli.startup_s", "gc.", "bench.trace_overhead"]

failures = []


def expect(ok, what):
    print("%-4s %s" % ("ok" if ok else "FAIL", what))
    if not ok:
        failures.append(what)


def fresh(name):
    path = os.path.join(SCRATCH, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def same_files(a, b):
    names = sorted(os.listdir(a))
    return names == sorted(os.listdir(b)) and all(
        filecmp.cmp(os.path.join(a, n), os.path.join(b, n), shallow=False) for n in names)


def check_generators():
    for name, gen in workloads.GENERATORS.items():
        args = (run.probe,) if name == "adder-sta" else ()
        dirs = [fresh("%s-%s" % (name, tag)) for tag in ("a", "b", "c")]
        for d, seed in zip(dirs, (7, 7, 8)):
            gen(seed, d, *args)
        expect(same_files(dirs[0], dirs[1]), "%s: same seed, byte-identical files" % name)
        expect(not same_files(dirs[0], dirs[2]), "%s: another seed, other files" % name)


def _scale_first_time(text, factor):
    """Multiply the first printed time in `text` (after the table rule)."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line and set(line) == {"-"}:
            cells = lines[i + 1].split()
            t = run.oracles.seconds(cells[1])
            cells[1] = "%.4gs" % (t * factor)
            lines[i + 1] = "  ".join(cells)
            return "\n".join(lines) + "\n"
    raise ValueError("no table")


def _flip_verdict(text):
    lines = text.splitlines()
    label, v = lines[0].split()
    lines[0] = "%s %s" % (label, "fail" if v != "fail" else "pass")
    return "\n".join(lines) + "\n"


def _stretch_time(text, factor):
    lines = text.splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        t, rest = line.split(",", 1)
        out.append("%.6g,%s" % (float(t) * factor, rest))
    return "\n".join(out) + "\n"


def _drop_first_cell_step(text):
    lines = text.splitlines()
    i = next(i for i, l in enumerate(lines) if l.startswith("  cell "))
    return "\n".join(lines[:i] + lines[i + 1:]) + "\n"


def _swap_endpoint_window(text):
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("  ") and "[" in line and ", " in line and " -> " not in line:
            head, window = line.split("[", 1)
            lo, hi = window.rstrip("]").split(", ")
            lines[i] = "%s[%s, %s]" % (head, hi, lo)
            return "\n".join(lines) + "\n"
    raise ValueError("no window")


def _perturb_queries(text):
    """T_De of every query row (not the base row) off by 1%."""
    lines = text.splitlines()
    rule = next(i for i, l in enumerate(lines) if l and set(l) == {"-"})
    for row in range(rule + 2, len(lines)):
        cells = lines[row].split()
        cells[-1] = "%.4gs" % (run.oracles.seconds(cells[-1]) * 1.01)
        lines[row] = "  ".join(cells)
    return "\n".join(lines) + "\n"


def _drop_last_line(text):
    return text.rsplit("\n", 2)[0] + "\n"


# command -> (stdout, rc) -> [(what, perturbed stdout, perturbed rc)]
PERTURBATIONS = {
    "times": lambda out, rc: [("a time off by 1%", _scale_first_time(out, 1.01), rc),
                              ("a missing row", _drop_last_line(out), rc),
                              ("exit code 2", out, 2)],
    "certify": lambda out, rc: [("a flipped verdict", _flip_verdict(out), rc),
                                ("the wrong exit code", out, 1 - rc)],
    "transient": lambda out, rc: [("a crossing 3x late", _stretch_time(out, 3.0), rc),
                                  ("a crossing 3x early", _stretch_time(out, 1 / 3.0), rc)],
    "sta": lambda out, rc: [("a critical path one stage short", _drop_first_cell_step(out), rc),
                            ("early > late at an endpoint", _swap_endpoint_window(out), rc)],
    "sweep": lambda out, rc: [("every query off by 1%", _perturb_queries(out), rc),
                              ("a dropped query", _drop_last_line(out), rc)],
}


def check_oracles():
    seed = 11
    for name, make in run.WORKLOADS.items():
        out = fresh("oracle-" + name)
        wl = make(seed, out)
        for cmd in wl.commands:
            c = run.Child([run.RCDELAY, cmd.name, *cmd.args], os.path.join(out, "stderr.txt"))
            expect(cmd.check(c.stdout, c.rc) is None, "%s %s: real answer accepted" % (name, cmd.name))
            for what, text, rc in PERTURBATIONS[cmd.name](c.stdout, c.rc):
                try:
                    rejected = cmd.check(text, rc) is not None
                except (ValueError, IndexError):
                    rejected = True
                expect(rejected, "%s %s: rejects %s" % (name, cmd.name, what))


def check_metrics():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for name in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                                "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                               capture_output=True, text=True)
            tag = "%s --trace %d" % (name, trace)
            if p.returncode != 0:
                expect(False, "%s: exit %d: %s" % (tag, p.returncode, p.stderr[-500:]))
                continue
            res = json.loads(p.stdout.splitlines()[-1])
            expect(res["correct"] and res["failed"] == 0, "%s: every answer correct" % tag)
            names = [m["name"] for m in bench[key]]
            expect(sorted(res["metrics"]) == sorted(names), "%s: emits every %s metric" % (tag, key))
            if trace == 0:
                nonzero = names
            else:
                nonzero = [n for n in names
                           if any(n.startswith(p) for p in CARRIES[name] + EVERYWHERE)]
            zero = [n for n in nonzero if not res["metrics"].get(n, {}).get("value")]
            expect(not zero, "%s: non-zero where it applies %s" % (tag, zero or ""))
            if trace:
                path = os.path.join(run.OUT, "%s-3-trace1" % name, "trace.json")
                with open(path) as f:
                    events = json.load(f)["traceEvents"]
                spans = [e for e in events if e["ph"] == "X"]
                expect(spans and all({"name", "ts", "dur", "pid", "tid", "args"} <= set(e)
                                     and e["dur"] >= 0 for e in spans),
                       "%s: trace.json is trace-event JSON" % tag)


def main():
    run.build()
    check_generators()
    check_oracles()
    check_metrics()
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
