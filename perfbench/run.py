#!/usr/bin/env python3
"""End-to-end benchmark of `rcdelay`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  It builds `rcdelay` and the
benchmark's probe with dune, generates the workload's input files from
the seed, and then:

  --trace 0  times the workload's `rcdelay` commands as child
             processes in a closed loop with one client for S seconds,
             checking every answer against an independent oracle, and
             scales the times to one machine speed (see Calibrator);
  --trace 1  makes one traced run of the same commands (see tracing.py)
             and reports the per-layer breakdown.

`rcdelay`'s domain pool is left at its default; domains vary only
through RCDELAY_JOBS.  Files go to perfbench/out/, which git ignores.
The last line of standard output is the result as one JSON object.
"""

import argparse
import collections
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BUILD = os.path.join("_build", "default")
RCDELAY = os.path.join(BUILD, "bin", "rcdelay.exe")
PROBE = os.path.join(BUILD, "perfbench", "probe", "probe.exe")
CALIB = os.path.join(BUILD, "perfbench", "calib", "calib.exe")
# calib.exe's wall time on the 2-CPU host the benchmark was written on:
# end-to-end times are reported at this machine speed (see Calibrator)
CALIB_S = 0.80
OUT = os.path.join(HERE, "out")

SWEEP_SAMPLE = 200
THRESHOLD = "0.5"


class Failure(Exception):
    pass


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    env.pop("DUNE_BUILD_DIR", None)
    try:
        p = subprocess.run(["dune", "build", "--root", ".", RCDELAY, PROBE, CALIB], env=env,
                           stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
    except FileNotFoundError:
        raise Failure("dune is not on PATH")
    if p.returncode != 0:
        raise Failure("build failed:\n" + p.stdout[-4000:])


def probe(*args, stdin=None):
    p = subprocess.run([PROBE, *args], input=stdin, capture_output=True, text=True)
    if p.returncode != 0:
        raise Failure("probe %s failed: %s" % (args[0], p.stderr.strip()))
    return p.stdout


class Child:
    """One child process: exit code, stdout, wall seconds, peak RSS."""

    def __init__(self, argv, err_path, env=None):
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            p = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                 stderr=err, env=env)
            out = p.stdout.read()
            p.stdout.close()
            _, status, usage = os.wait4(p.pid, 0)
            self.seconds = time.perf_counter() - t0
        p.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.stdout = out.decode()
        self.rss_mb = usage.ru_maxrss / 1024.0


class Calibrator:
    """Scales times to one machine speed.

    The host is shared: its speed moves by up to 2x over minutes and by
    +-20 % between seconds, for every program alike.  So a fixed
    reference job (calib.exe: standard library only, unchanged by any
    change to rcdelay) runs between rounds, and a time taken between two
    reference runs of r1 and r2 seconds is reported as
    `t * CALIB_S / ((r1 + r2) / 2)`.  Raw times are kept too."""

    def __init__(self, err_path):
        self.err = err_path
        self.expected = None
        self.times = []
        self.last = self.measure()

    def measure(self):
        c = Child([CALIB], self.err)
        if c.rc != 0 or (self.expected is not None and c.stdout != self.expected):
            raise Failure("calib.exe failed or changed its answer")
        self.expected = c.stdout
        self.times.append(c.seconds)
        return c.seconds

    def factor(self):
        """Runs the next reference job and returns the factor that scales
        times taken since the last one to CALIB_S speed."""
        before, self.last = self.last, self.measure()
        return 2 * CALIB_S / (before + self.last)


# `check` maps (stdout, exit code) to None or the reason the answer is
# wrong; `trace_args` are the same inputs as `probe trace` takes them.
Command = collections.namedtuple("Command", "name args check trace_args")
# `setup` is (probe setup kind, input file).
Workload = collections.namedtuple("Workload", "commands setup")


def _fmt(x):
    return "%.6g" % x


def fanout_deck(seed, out):
    m = workloads.fanout_deck(seed, out)
    deck = m.files["deck"]
    expected = oracles.output_times(m)
    times_in = "".join("%s %r %r %r\n" % t for t in expected)
    th = THRESHOLD
    # the median upper bound as deadline, so about half the outputs pass
    windows = [l.split() for l in probe("bounds", th, "1", stdin=times_in).splitlines()]
    dl = _fmt(statistics.median(float(w[3]) for w in windows))
    verdicts = [tuple(l.split()[:2]) for l in probe("bounds", th, dl, stdin=times_in).splitlines()]
    return Workload(
        [Command("times", [deck], lambda o, rc: oracles.check_times(o, rc, expected), [deck]),
         Command("certify", [deck, "--threshold", th, "--deadline", dl],
                 lambda o, rc: oracles.check_certify(o, rc, verdicts), [deck, th, dl])],
        ("deck", deck))


def chain_deck(seed, out):
    m = workloads.chain_deck(seed, out)
    deck = m.files["deck"]
    expected = oracles.output_times(m)
    t_end = _fmt(3 * expected[0][2])
    dt = _fmt(float(t_end) / 100)
    _, _, lo, hi = probe("bounds", THRESHOLD, "1", stdin="%s %r %r %r\n" % expected[0]).split()
    window = (float(lo), float(hi))
    return Workload(
        [Command("times", [deck], lambda o, rc: oracles.check_times(o, rc, expected), [deck]),
         Command("transient", [deck, "--t-end", t_end, "--dt", dt],
                 lambda o, rc: oracles.check_transient(o, rc, window, float(t_end) / 100),
                 [deck, t_end, dt])],
        ("deck", deck))


def adder_sta(seed, out):
    m = workloads.adder_sta(seed, out, probe)
    netlist = m.files["netlist"]
    period = _fmt(random.Random("adder-sta-period:%d" % seed).uniform(1e-6, 1e-5))
    depth, endpoints = m.params["depth"], m.params["bits"] + 1
    return Workload(
        [Command("sta", [netlist, "--period", period],
                 lambda o, rc: oracles.check_sta(o, rc, depth, endpoints), [netlist, period])],
        ("netlist", netlist))


def whatif_sweep(seed, out):
    m = workloads.whatif_sweep(seed, out)
    deck, edits = m.files["deck"], m.files["edits"]
    queries = m.params["queries"]
    _, td, _ = oracles.tree_times(m)
    base_td = td[m.outputs[0]]
    picks = sorted(random.Random("whatif-sample:%d" % seed).sample(range(len(queries)),
                                                                   SWEEP_SAMPLE))
    sample = {}
    for line in probe("sweep-oracle", deck, edits, THRESHOLD, *map(str, picks)).splitlines():
        i, t_min, t_max, t_d = line.split()
        sample[int(i)] = (float(t_min), float(t_max), float(t_d))
    return Workload(
        [Command("sweep", [deck, "--edits-file", edits],
                 lambda o, rc: oracles.check_sweep(o, rc, queries, base_td, sample),
                 [deck, edits, THRESHOLD])],
        ("deck-sweep", deck))


WORKLOADS = {
    "fanout-deck": fanout_deck,
    "chain-deck": chain_deck,
    "adder-sta": adder_sta,
    "whatif-sweep": whatif_sweep,
}


class Runner:
    """Runs commands as children and keeps the pass/fail tally."""

    def __init__(self, out):
        self.err = os.path.join(out, "stderr.txt")
        self.attempted = 0
        self.failed = 0

    def run(self, cmd, env=None):
        c = Child([RCDELAY, cmd.name, *cmd.args], self.err, env)
        self.attempted += 1
        try:
            reason = cmd.check(c.stdout, c.rc)
        except (ValueError, IndexError) as e:
            reason = "unparsable output: %s" % e
        if reason:
            self.failed += 1
            print("FAIL rcdelay %s: %s" % (cmd.name, reason), file=sys.stderr)
        return c

    def round(self, wl, env=None):
        return [self.run(cmd, env) for cmd in wl.commands]


def untraced(wl, runner, seconds, out):
    """One warm-up round, then rounds until the time is up.  Each round is
    followed by a block of set-up samples in fresh processes worth a
    quarter of the round (at least one), so both spread over the same
    window, and then by a reference run (see Calibrator)."""
    runner.round(wl)
    cal = Calibrator(runner.err)
    raw = {"round_s": [], "setup_s": []}
    samples = {"round_s": [], "setup_s": [], "peak_rss_mb": []}
    kind, path = wl.setup
    deadline = time.perf_counter() + seconds
    while not samples["round_s"] or time.perf_counter() < deadline:
        children = runner.round(wl)
        round_s = sum(c.seconds for c in children)
        block = []
        while sum(block) < round_s / 4:
            block.append(float(probe("setup", kind, path)))
        k = cal.factor()
        raw["round_s"].append(round_s)
        raw["setup_s"] += block
        samples["round_s"].append(k * round_s)
        samples["setup_s"] += [k * t for t in block]
        samples["peak_rss_mb"].append(max(c.rss_mb for c in children))
    with open(os.path.join(out, "samples.json"), "w") as f:
        json.dump({"scaled": samples, "raw": raw, "calib_s": cal.times}, f)
    units = metric_units("end_to_end")
    for name, xs in samples.items():
        print("%-12s %12.6f %-3s median of %d%s" % (
            name, statistics.median(xs), units[name], len(xs),
            " (raw %.6f)" % statistics.median(raw[name]) if name in raw else ""))
    print("calib        %12.6f s   median of %d" % (statistics.median(cal.times),
                                                  len(cal.times)))
    return {k: {"value": statistics.median(xs), "unit": units[k]} for k, xs in samples.items()}


def traced(wl, runner, workload, seed, seconds, out):
    version = Command("--version", [], lambda o, rc: None if rc == 0 else "exit %d" % rc, [])
    startup = statistics.median(runner.run(version).seconds for _ in range(5))
    # untraced rounds for half the time given, then one at one domain
    plain, until = [], time.perf_counter() + seconds / 2
    while not plain or (time.perf_counter() < until and len(plain) < 5):
        plain.append([c.seconds for c in runner.round(wl)])
    by_cmd = {cmd.name: statistics.median(r[i] for r in plain)
              for i, cmd in enumerate(wl.commands)}
    plain_s = statistics.median(sum(r) for r in plain)
    serial_s = sum(c.seconds for c in runner.round(wl, dict(os.environ, RCDELAY_JOBS="1")))
    start = time.perf_counter()
    commands, traced_s = [], 0.0
    for cmd in wl.commands:
        offset = time.perf_counter() - start
        c = Child([PROBE, "trace", cmd.name, *cmd.trace_args], runner.err)
        if c.rc != 0:
            raise Failure("traced %s failed" % cmd.name)
        rec = json.loads(c.stdout.splitlines()[-1])
        commands.append((cmd.name, offset, rec))
        bench_only = sum(s["end"] - s["start"] for s in rec["spans"]
                         if s["parent"] == 0 and not s["name"].startswith("cmd."))
        traced_s += c.seconds - bench_only
    print(tracing.write(out, commands, workload, seed))

    def span_s(name):
        return sum(s["end"] - s["start"] for _, _, r in commands for s in r["spans"]
                   if s["name"] == name)

    def alloc_mb(name):
        return sum(s["alloc"] for _, _, r in commands for s in r["spans"]
                   if s["name"] == name) / 1e6

    def obs(name):
        return sum(r["obs"].get(name, 0) for _, _, r in commands)

    def extra(name):
        return sum(r["extra"].get(name, 0) for _, _, r in commands)

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    m = {
        "spice.parser.s": span_s("spice.parser"),
        "spice.parser.ns_per_card": ratio(span_s("spice.parser"), obs("spice.cards_per_deck"), 1e9),
        "spice.parser.cards": obs("spice.cards_per_deck"),
        "spice.parser.alloc_mb": alloc_mb("spice.parser"),
        "spice.elaborate.s": span_s("spice.elaborate"),
        "spice.elaborate.ns_per_node": ratio(span_s("spice.elaborate"),
                                             obs("spice.elaborated_tree_nodes"), 1e9),
        "spice.elaborate.nodes": obs("spice.elaborated_tree_nodes"),
        "spice.elaborate.alloc_mb": alloc_mb("spice.elaborate"),
        "rctree.analysis.make_s": span_s("rctree.analysis.make"),
        "rctree.analysis.query_s": span_s("rctree.analysis.query"),
        "rctree.analysis.ns_per_output": ratio(span_s("rctree.analysis.query"),
                                               extra("outputs"), 1e9),
        "rctree.analysis.queries": obs("rctree.analysis_queries"),
        "rctree.bounds.s": span_s("rctree.bounds"),
        "rctree.convert.s": span_s("rctree.convert"),
        "rctree.incremental.s": span_s("rctree.incremental"),
        "rctree.incremental.query_p50_us": extra("query_p50_us"),
        "rctree.incremental.query_p99_us": extra("query_p99_us"),
        "rctree.incremental.nodes_reeval_per_edit": ratio(obs("incr.nodes_reeval"),
                                                          obs("incr.edits")),
        "circuit.transient.s": span_s("circuit.transient"),
        "circuit.transient.us_per_step": ratio(span_s("circuit.transient"),
                                               obs("transient.steps"), 1e6),
        "numeric.tree_ldl.factors": obs("treesolve.factors"),
        "numeric.tree_ldl.solves": obs("treesolve.solves"),
        "sta.netlist_io.s": span_s("sta.netlist_io"),
        "sta.netlist_io.alloc_mb": alloc_mb("sta.netlist_io"),
        "sta.analysis.s": span_s("sta.analysis"),
        "sta.netdelay.s": obs("sta.netdelay_s"),
        "sta.analysis.nets": obs("sta.nets_propagated"),
        "sta.analysis.instances": obs("sta.instances_visited"),
        "sta.report.s": span_s("sta.report"),
        "parallel.pool.speedup": ratio(serial_s, plain_s),
        "parallel.pool.tasks": obs("pool.tasks"),
        "util.table.s": span_s("util.table"),
        "cli.startup_s": startup,
        "cli.self_s": plain_s - tracing.layer_seconds(commands),
        "gc.top_heap_mb": max(r["gc"]["top_heap_mb"] for _, _, r in commands),
        "gc.major_collections": sum(r["gc"]["major_collections"] for _, _, r in commands),
        "bench.trace_overhead": ratio(traced_s, plain_s),
        "fail_ratio": ratio(runner.failed, runner.attempted),
    }
    for name in ("times", "certify", "transient", "sta", "sweep"):
        m[name + "_s"] = by_cmd.get(name, 0.0)
    units = metric_units("per_layer")
    return {k: {"value": v, "unit": units[k]} for k, v in m.items()}


def metric_units(kind):
    """{name: unit} of the end_to_end or per_layer metrics."""
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        return {x["name"]: x["unit"] for x in json.load(f)[kind]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    try:
        build()
        out = os.path.join(OUT, "%s-%d-trace%d" % (a.workload, a.seed, a.trace))
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        wl = WORKLOADS[a.workload](a.seed, out)
        runner = Runner(out)
        if a.trace:
            metrics = traced(wl, runner, a.workload, a.seed, a.seconds, out)
        else:
            metrics = untraced(wl, runner, a.seconds, out)
    except Failure as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
