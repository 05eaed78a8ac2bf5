"""Independent answers for every command the benchmark runs.

Times of the generated decks come from the generator's own model,
through the paper's definitions (eqs. 1, 5, 6), never from `rcdelay`'s
parser or moment engine.  Verdicts and the 50 % window come from
`Rctree.Bounds` applied to those times.  Sweep queries are checked
against a from-scratch `Incremental.edit_expr` + `Expr.times`.  The STA
report is checked against the adder's known logic depth.

Each `check_*` returns None when the output is right and a one-line
reason otherwise.  `rcdelay` prints four significant digits, so printed
times are compared at a relative tolerance of 1e-3.
"""

import re

REL_TOL = 1e-3
_SI = {"f": 1e-15, "p": 1e-12, "n": 1e-9, "u": 1e-6, "m": 1e-3, "": 1.0,
       "k": 1e3, "M": 1e6, "G": 1e9, "T": 1e12}
_QUANTITY = re.compile(r"^(-?[0-9.]+(?:e[-+]?[0-9]+)?)([fpnumkMGT]?)s$")


def seconds(text):
    """A time as `rcdelay` prints it, e.g. `5.75ps`."""
    m = _QUANTITY.match(text)
    if not m:
        raise ValueError("not a time: %r" % text)
    return float(m.group(1)) * _SI[m.group(2)]


def close(printed, exact):
    return abs(printed - exact) <= REL_TOL * abs(exact) + 1e-30


def tree_times(m):
    """(T_P, T_De per node, T_Re per node) of a generated tree.

    With a = R_pp at the parent p of node k, r and c the series
    resistance and line capacitance of the edge into k, and C_beyond the
    capacitance below that edge: every capacitor below the edge gains r
    of shared resistance with k, and the edge's own line contributes its
    integral, so
      T_D(k)  = T_D(p) + r C_beyond + c r / 2
      S2(k)   = S2(p)  + (2 a r + r^2) C_beyond + c (a r + r^2 / 3)
      T_R(k)  = S2(k) / R_kk.
    """
    n = len(m.parent)
    rkk = [0.0] * n
    csub = [m.cap[k] + m.edge[k][1] for k in range(n)]
    for k in range(1, n):
        rkk[k] = rkk[m.parent[k]] + m.edge[k][0]
    for k in range(n - 1, 0, -1):
        csub[m.parent[k]] += csub[k]
    tp = 0.0
    td = [0.0] * n
    s2 = [0.0] * n
    for k in range(1, n):
        p = m.parent[k]
        r, c = m.edge[k]
        a = rkk[p]
        beyond = csub[k] - c
        tp += m.cap[k] * rkk[k] + c * (a + r / 2)
        td[k] = td[p] + r * beyond + c * r / 2
        s2[k] = s2[p] + (2 * a * r + r * r) * beyond + c * (a * r + r * r / 3)
    tr = [s2[k] / rkk[k] if rkk[k] else 0.0 for k in range(n)]
    return tp, td, tr


def output_times(m):
    """[(label, t_p, t_d, t_r)] for the model's outputs, in order."""
    tp, td, tr = tree_times(m)
    return [(m.names[k], tp, td[k], tr[k]) for k in m.outputs]


def table_rows(stdout):
    """Whitespace-split rows of a `Reprolib.Table` rendering."""
    lines = stdout.splitlines()
    start = next((i for i, l in enumerate(lines) if l and set(l) == {"-"}), None)
    if start is None:
        return None
    return [l.split() for l in lines[start + 1:] if l.strip()]


def check_times(stdout, rc, expected):
    if rc != 0:
        return "exit code %d" % rc
    rows = table_rows(stdout)
    if rows is None or len(rows) != len(expected):
        return "expected %d rows" % len(expected)
    for row, (label, tp, td, tr) in zip(rows, expected):
        if len(row) != 5 or row[0] != label:
            return "bad row %r" % " ".join(row)
        got = [seconds(x) for x in row[1:]]
        for g, want in zip(got, (tp, td, tr, td)):
            if not close(g, want):
                return "%s: printed %g, expected %g" % (label, g, want)
    return None


def check_certify(stdout, rc, verdicts):
    """`verdicts` is [(label, verdict)] from Rctree.Bounds on oracle times."""
    want_rc = 0 if all(v == "pass" for _, v in verdicts) else 1
    if rc != want_rc:
        return "exit code %d, expected %d" % (rc, want_rc)
    got = [l.split() for l in stdout.splitlines() if l.strip()]
    if got != [[label, v] for label, v in verdicts]:
        return "verdicts differ from Rctree.Bounds on the oracle times"
    return None


def check_transient(stdout, rc, window, slack):
    """The step response's 50 % crossing lies in [t_min, t_max] of
    eqs. (13)-(17), widened by `slack` (one output sample)."""
    if rc != 0:
        return "exit code %d" % rc
    lines = stdout.splitlines()
    try:
        samples = [tuple(float(x) for x in l.split(",")[:2]) for l in lines[1:] if l]
    except ValueError:
        return "unparsable CSV"
    for (t0, v0), (t1, v1) in zip(samples, samples[1:]):
        if v0 < 0.5 <= v1:
            t50 = t0 + (t1 - t0) * (0.5 - v0) / (v1 - v0)
            lo, hi = window
            if lo - slack <= t50 <= hi + slack:
                return None
            return "50%% crossing %g outside [%g, %g]" % (t50, lo, hi)
    return "no 50% crossing"


def _window(text):
    text = text.strip()
    if text.startswith("["):
        lo, hi = text[1:-1].split(",")
        return seconds(lo.strip()), seconds(hi.strip())
    t = seconds(text)
    return t, t


def check_sta(stdout, rc, depth, endpoints):
    """Critical path of `depth` cells; early <= late at every endpoint."""
    if rc != 0:
        return "exit code %d" % rc
    section = None
    arrivals = 0
    cells = 0
    for line in stdout.splitlines():
        if not line.startswith(" "):
            section = line.split(" ")[0]
            continue
        if section == "endpoint":
            name, _, window = line.strip().partition(" ")
            lo, hi = _window(window)
            if lo > hi:
                return "%s: early %g > late %g" % (name, lo, hi)
            arrivals += 1
        elif section == "critical" and line.strip().startswith("cell "):
            cells += 1
    if arrivals != endpoints:
        return "%d endpoints, expected %d" % (arrivals, endpoints)
    if cells != depth:
        return "critical path has %d stages, expected %d" % (cells, depth)
    return None


def check_sweep(stdout, rc, queries, base_td, sample):
    """Every query echoed in order, the base row against the tree
    oracle, and `sample` {index: (t_min, t_max, t_d)} from scratch."""
    if rc != 0:
        return "exit code %d" % rc
    rows = table_rows(stdout)
    if rows is None or len(rows) != len(queries) + 1:
        return "expected %d rows" % (len(queries) + 1)
    if rows[0][0] != "(base)" or not close(seconds(rows[0][3]), base_td):
        return "base row %r, expected T_De %g" % (" ".join(rows[0]), base_td)
    for row, query in zip(rows[1:], queries):
        if " ".join(row[:-3]) != query:
            return "row %r does not echo query %r" % (" ".join(row), query)
    for i, want in sample.items():
        got = [seconds(x) for x in rows[i + 1][-3:]]
        if not all(close(g, w) for g, w in zip(got, want)):
            return "query %r: printed %s" % (queries[i], " ".join(rows[i + 1][-3:]))
    return None
