"""The traced run: per-layer spans, Chrome trace export, self times.

Each command of a workload runs once in its own `probe trace` process,
which makes the same public calls as the `rcdelay` command and wraps
each in a span (name, start, end, parent; spans of one command share
its command id).  The spans are collected here, written out as Chrome
trace-event JSON (loadable in chrome://tracing or Perfetto), and
summarised as per-layer self times: a span's duration minus the time
its child spans cover.
"""

import json
import os

# Spans that are not library layers: the command roots, work the CLI
# does itself, and work only the benchmark does.
_NOT_LAYERS = ("cmd.", "cli.", "bench.")


def self_times(spans):
    """{span id: self seconds}; children of a span never overlap."""
    covered = {}
    for s in spans:
        covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["end"] - s["start"]
    return {s["id"]: max(0.0, s["end"] - s["start"] - covered.get(s["id"], 0.0)) for s in spans}


def chrome_trace(commands, workload, seed):
    """`commands` is [(name, launch offset s, probe record)]."""
    events = []
    for tid, (name, offset, rec) in enumerate(commands, start=1):
        events.append({"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                       "args": {"name": "rcdelay %s" % name}})
        selfs = self_times(rec["spans"])
        for s in rec["spans"]:
            events.append({
                "name": s["name"],
                "cat": s["name"].split(".")[0],
                "ph": "X",
                "pid": 1,
                "tid": tid,
                "ts": round((offset + s["start"]) * 1e6, 3),
                "dur": round((s["end"] - s["start"]) * 1e6, 3),
                "args": {
                    "id": "%d/%d" % (tid, s["id"]),
                    "parent": "%d/%d" % (tid, s["parent"]) if s["parent"] else None,
                    "command": name,
                    "self_us": round(selfs[s["id"]] * 1e6, 3),
                    "alloc_mb": round(s["alloc"] / 1e6, 3),
                },
            })
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"workload": workload, "seed": seed}}


def layer_table(commands):
    """{span name: (calls, total s, self s)} over every command."""
    table = {}
    for _, _, rec in commands:
        selfs = self_times(rec["spans"])
        for s in rec["spans"]:
            calls, total, own = table.get(s["name"], (0, 0.0, 0.0))
            table[s["name"]] = (calls + 1, total + s["end"] - s["start"], own + selfs[s["id"]])
    return table


def render_table(table):
    lines = ["%-24s %6s %12s %12s" % ("span", "calls", "total_s", "self_s")]
    for name, (calls, total, own) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        lines.append("%-24s %6d %12.6f %12.6f" % (name, calls, total, own))
    return "\n".join(lines)


def layer_seconds(commands):
    """Time inside library-layer spans that are direct children of a
    command root: what the command's untraced time is compared with."""
    total = 0.0
    for _, _, rec in commands:
        roots = {s["id"] for s in rec["spans"] if s["name"].startswith("cmd.")}
        total += sum(s["end"] - s["start"] for s in rec["spans"]
                     if s["parent"] in roots and not s["name"].startswith(_NOT_LAYERS))
    return total


def write(out_dir, commands, workload, seed):
    """Write trace.json and self_times.txt; return the rendered table."""
    with open(os.path.join(out_dir, "trace.json"), "w") as f:
        json.dump(chrome_trace(commands, workload, seed), f)
    text = render_table(layer_table(commands))
    with open(os.path.join(out_dir, "self_times.txt"), "w") as f:
        f.write(text + "\n")
    return text
