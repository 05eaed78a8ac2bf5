"""Seeded input generators for the four benchmark workloads.

Every generator is a pure function of its seed: the same seed gives
byte-identical files.  Values are written as text first and the model
the oracles use is read back from that text, so the oracles see exactly
the numbers `rcdelay` parses.  A generator returns a `Model`: the tree
as parent/edge/capacitance lists, the files it wrote, and the
parameters of the commands the workload runs.

Why each workload exists is recorded in `WHY`, next to its generator.
"""

import os
import random

WHY = {
    "fanout-deck": (
        "100 branches x 200 sections, an output every 10 sections: the "
        "per-output analysis is O(n*outputs) and dominates, so this is where "
        "one O(n) moment engine and the pool's Analysis sites show."
    ),
    "chain-deck": (
        "a 100k-node resistive chain with one output: parse and elaborate do "
        "nearly all the times work over a working set far larger than the "
        "caches, Tree_ldl does the transient work; the bypass case for the "
        "moment engine."
    ),
    "adder-sta": (
        "a 2k-bit ripple-carry adder with line wires: many tiny RC trees "
        "instead of one big one, plus netlist parsing, propagation, report "
        "building and the Sta pool sites."
    ),
    "whatif-sweep": (
        "a 16k-node balanced deck of distributed lines and 200k seeded "
        "what-if queries: the only workload that runs Incremental, Convert "
        "and the CLI query parser."
    ),
}

# Sizes of the generated inputs.
FANOUT_BRANCHES = 100
FANOUT_SECTIONS = 200
FANOUT_OUTPUT_EVERY = 10
CHAIN_SECTIONS = 100_000
ADDER_BITS = 2000
WHATIF_DEPTH = 13  # 2^14 - 1 tree nodes below the input
WHATIF_QUERIES = 200_000


def _num(x):
    """Value as written into a file (six significant digits)."""
    return "%.6g" % x


class Model:
    """An RC tree as the generator built it, plus the workload's files.

    Node 0 is the input.  For node k > 0, `parent[k]` is its parent,
    `edge[k]` is `(r, c_line)` (c_line = 0 for a lumped resistor) and
    `cap[k]` the lumped capacitance at k.  Parents precede children.
    """

    def __init__(self):
        self.names = ["in"]
        self.parent = [-1]
        self.edge = [(0.0, 0.0)]
        self.cap = [0.0]
        self.outputs = []  # node ids in marking order
        self.files = {}
        self.params = {}

    def add(self, name, parent, r, c_line=0.0):
        self.names.append(name)
        self.parent.append(parent)
        self.edge.append((r, c_line))
        self.cap.append(0.0)
        return len(self.names) - 1


class _Deck:
    """Writes deck cards and records the values exactly as written."""

    def __init__(self, model, title):
        self.m = model
        self.lines = ["* " + title, "VIN in 0"]
        self.count = 0

    def resistor(self, parent, name, r):
        self.count += 1
        txt = _num(r)
        self.lines.append("R%d %s %s %s" % (self.count, self.m.names[parent], name, txt))
        return self.m.add(name, parent, float(txt))

    def line(self, parent, name, r, c):
        self.count += 1
        rt, ct = _num(r), _num(c)
        self.lines.append("U%d %s %s %s %s" % (self.count, self.m.names[parent], name, rt, ct))
        return self.m.add(name, parent, float(rt), float(ct))

    def capacitor(self, node, c):
        self.count += 1
        txt = _num(c)
        self.lines.append("C%d %s 0 %s" % (self.count, self.m.names[node], txt))
        self.m.cap[node] += float(txt)

    def write(self, path):
        outs = [self.m.names[k] for k in self.m.outputs]
        for i in range(0, len(outs), 16):
            self.lines.append(".output " + " ".join(outs[i:i + 16]))
        self.lines.append(".end")
        with open(path, "w") as f:
            f.write("\n".join(self.lines) + "\n")


def fanout_deck(seed, out_dir):
    rng = random.Random("fanout-deck:%d" % seed)
    m = Model()
    d = _Deck(m, "fanout-deck seed %d" % seed)
    hub = d.resistor(0, "hub", rng.uniform(50, 150))
    for b in range(FANOUT_BRANCHES):
        node = d.line(hub, "b%d_0" % b, rng.uniform(200, 800), rng.uniform(20e-15, 80e-15))
        d.capacitor(node, rng.uniform(5e-15, 15e-15))
        for i in range(1, FANOUT_SECTIONS + 1):
            node = d.resistor(node, "b%d_%d" % (b, i), rng.uniform(20, 80))
            d.capacitor(node, rng.uniform(5e-15, 15e-15))
            if i % FANOUT_OUTPUT_EVERY == 0:
                m.outputs.append(node)
    path = os.path.join(out_dir, "fanout.sp")
    d.write(path)
    m.files["deck"] = path
    return m


def chain_deck(seed, out_dir):
    rng = random.Random("chain-deck:%d" % seed)
    m = Model()
    d = _Deck(m, "chain-deck seed %d" % seed)
    node = 0
    for i in range(1, CHAIN_SECTIONS + 1):
        node = d.resistor(node, "n%d" % i, rng.uniform(0.5, 1.5))
        d.capacitor(node, rng.uniform(0.5e-15, 1.5e-15))
    m.outputs.append(node)
    path = os.path.join(out_dir, "chain.sp")
    d.write(path)
    m.files["deck"] = path
    return m


def whatif_sweep(seed, out_dir):
    rng = random.Random("whatif-sweep:%d" % seed)
    m = Model()
    d = _Deck(m, "whatif-sweep seed %d" % seed)
    # heap-numbered balanced binary tree t1..t(2^(D+1)-1) under a driver
    ids = {1: d.resistor(0, "t1", rng.uniform(50, 150))}
    first_leaf = 1 << WHATIF_DEPTH
    for k in range(2, 2 * first_leaf):
        ids[k] = d.line(ids[k // 2], "t%d" % k, rng.uniform(20, 200), rng.uniform(2e-15, 20e-15))
        if k >= first_leaf:
            d.capacitor(ids[k], rng.uniform(1e-15, 10e-15))
    m.outputs.append(ids[rng.randrange(first_leaf, 2 * first_leaf)])
    path = os.path.join(out_dir, "whatif.sp")
    d.write(path)
    # Every U card becomes at least one leaf of the sweep's expression,
    # so leaf indices below the line count always exist.
    lines = 2 * first_leaf - 2
    queries = []
    for _ in range(WHATIF_QUERIES):
        leaf = rng.randrange(lines)
        kind = rng.randrange(3)
        if kind == 0:
            q = "replace leaf:%d %s %s" % (
                leaf, _num(rng.uniform(10, 400)), _num(rng.uniform(1e-15, 40e-15)))
        elif kind == 1:
            q = "scale-r leaf:%d %s" % (leaf, _num(rng.uniform(0.5, 2.0)))
        else:
            q = "scale-c leaf:%d %s" % (leaf, _num(rng.uniform(0.5, 2.0)))
        queries.append(q)
    edits = os.path.join(out_dir, "whatif.edits")
    with open(edits, "w") as f:
        f.write("\n".join(queries) + "\n")
    m.files["deck"] = path
    m.files["edits"] = edits
    m.params["queries"] = queries
    return m


def adder_sta(seed, out_dir, probe):
    """The netlist comes from `Sta.Generate` through the probe, with a
    seeded line wire on every internal net."""
    rng = random.Random("adder-sta:%d" % seed)
    r = _num(rng.uniform(500, 2000))
    c = _num(rng.uniform(20e-15, 80e-15))
    path = os.path.join(out_dir, "adder.net")
    depth = int(probe("gen-adder", str(ADDER_BITS), r, c, path).strip())
    m = Model()
    m.files["netlist"] = path
    m.params["depth"] = depth
    m.params["bits"] = ADDER_BITS
    return m


GENERATORS = {
    "fanout-deck": fanout_deck,
    "chain-deck": chain_deck,
    "adder-sta": adder_sta,
    "whatif-sweep": whatif_sweep,
}
