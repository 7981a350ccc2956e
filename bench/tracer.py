"""Run one bconn CLI query in-process, optionally traced, and report it.

    python3 bench/tracer.py MODE REPORT -- CLI-ARGS...

MODE is `plain` (time run_cli only), `trace` (wrap the public functions
of each bconn module at the attribute their callers look up, and record
spans and counts) or `memory` (tracemalloc peak per layer, in a pass of
its own so that it does not slow the timed passes).  The CLI's own
output goes to stdout as usual; the report is JSON written to REPORT.
One fresh process per query keeps module state, such as the synthesis
cache, as cold as it is for a CLI user.
"""

from __future__ import annotations

import json
import os
import sys
import time
import tracemalloc

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import bconn.cli  # noqa: E402
import bconn.clones  # noqa: E402
import bconn.easy  # noqa: E402
import bconn.graph  # noqa: E402
import bconn.reduce  # noqa: E402


def _formula_nodes(text: str) -> int:
    # one node per identifier: the root plus one per argument
    return 1 + text.count("(") + text.count(",")


def _parsed(nodes):
    def count(c, result, args, kwargs):
        c["parse.bytes"] = c.get("parse.bytes", 0) + len(args[0].encode())
        c["parse.nodes"] = c.get("parse.nodes", 0) + nodes(result, args[0])

    return count


def _add(c: dict, key: str, k: int):
    c[key] = c.get(key, 0) + k


def _tabulated(c, result, args, kwargs):
    _add(c, "semantics.tabulations", 1)
    _add(c, "semantics.table_rows", 1 << result.n)


def _enumerated(c, result, args, kwargs):
    _add(c, "graph.vertices", len(result))


def _relation(c, result, args, kwargs):
    _parsed(lambda r, text: len(r))(c, result, args, kwargs)
    _add(c, "graph.vertices", len(result))


def _labelled(c, result, args, kwargs):
    _add(c, "graph.components", result.count)


def _searched(c, result, args, kwargs):
    _add(c, "graph.bfs_sources", 1)
    if result:
        _add(c, "graph.path_steps", len(result) - 1)


def _decided(c, result, args, kwargs):
    if result.witness_path:
        _add(c, "easy.witness_steps", len(result.witness_path) - 1)


def _closed(c, result, args, kwargs):
    _add(c, "clones.closure_tables", len(result))


def _combined(c, result, args, kwargs):
    stats = kwargs.get("stats") or {}
    _add(c, "reduce.output_nodes", stats.get("size", 0))
    c["reduce.depth"] = max(c.get("reduce.depth", 0), stats.get("depth", 0))


def _synthesized(c, result, args, kwargs):
    _add(c, "reduce.synth_calls", 1)
    c.setdefault("_targets", set()).add((args[0].n, args[0].bits))


def _bfs(c, result, args, kwargs):
    _add(c, "graph.bfs_sources", 1)


# (module, attribute, span name, counter); a None span name counts calls
# without recording a span.  Attributes are the names the calling module
# looks up at call time, so wrapping them intercepts every such call.
WRAPS = [
    (bconn.cli, "print_formula", "cli.output", None),
    (bconn.cli, "print_qbf", "cli.output", None),
    (bconn.cli, "print_relation", "cli.output", None),
    (bconn.cli, "parse_formula", "formulas.parse_formula", _parsed(lambda r, t: _formula_nodes(t))),
    (bconn.cli, "parse_circuit", "circuits.parse_circuit",
     _parsed(lambda r, t: len(r.inputs) + len(r.gates))),
    (bconn.cli, "parse_dimacs", "cnf.parse_dimacs",
     _parsed(lambda r, t: sum(len(c) for c in r.clauses))),
    (bconn.cli, "parse_qbf", "qbf.parse_qbf", _parsed(lambda r, t: _formula_nodes(t))),
    (bconn.cli, "parse_base_file", "clones.parse_base_file", _parsed(lambda r, t: len(r))),
    (bconn.cli, "parse_relation", "graph.parse_relation", _relation),
    (bconn.cli, "clone_identify", "clones.clone_identify", None),
    (bconn.cli, "dispatch", "clones.dispatch", None),
    (bconn.cli, "clone_closure", "clones.clone_closure", _closed),
    (bconn.clones, "property_report", "properties.property_report", None),
    (bconn.graph, "truth_table_of", "semantics.truth_table_of", _tabulated),
    (bconn.easy, "truth_table_of", "semantics.truth_table_of", _tabulated),
    (bconn.reduce, "truth_table_of", "semantics.truth_table_of", _tabulated),
    (bconn.easy, "evaluate", "semantics.evaluate", None),
    (bconn.reduce, "evaluate", "semantics.evaluate", None),
    (bconn.cli, "enumerate_solutions", "graph.enumerate_solutions", _enumerated),
    (bconn.cli, "components", "graph.components", _labelled),
    (bconn.cli, "diameter", "graph.diameter", None),
    (bconn.cli, "shortest_path", "graph.shortest_path", _searched),
    (bconn.graph, "_bfs_depths", None, _bfs),
    (bconn.cli, "monotone_decide", "easy.decide", _decided),
    (bconn.cli, "linear_decide", "easy.decide", _decided),
    (bconn.cli, "zerosep_decide", "easy.decide", _decided),
    (bconn.cli, "qbf_easy_decide", "easy.decide", _decided),
    (bconn.easy, "linear_form_of", "easy.linear_form_of", None),
    (bconn.cli, "tr_combine", "reduce.tr_combine", _combined),
    (bconn.reduce, "synth_bformula", "reduce.synth_bformula", _synthesized),
    (bconn.reduce, "t_transform", "reduce.t_transform", None),
]

# tracemalloc groups: the layer each span's peak is charged to
MEMORY_GROUPS = {
    "semantics.truth_table_of": "semantics",
    "semantics.evaluate": "semantics",
    "graph.parse_relation": "graph",
    "graph.enumerate_solutions": "graph",
    "graph.components": "graph",
    "graph.diameter": "graph",
    "graph.shortest_path": "graph",
    "reduce.tr_combine": "reduce",
    "formulas.parse_formula": "formulas",
    "qbf.parse_qbf": "formulas",
}


class Tracer:
    """Spans (name, start, end, parent index) and counts, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict = {}

    def wrap(self, mod, attr: str, name: str | None, count):
        fn = getattr(mod, attr)  # a renamed layer fails here, loudly
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                idx = len(spans)
                spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
                stack.append(idx)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    spans[idx][1], spans[idx][2] = t0, t1
            if count is not None:
                count(counts, result, args, kwargs)
            return result

        setattr(mod, attr, traced)

    def report(self) -> dict:
        """Self time and calls per span name: duration minus child spans."""
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for name, t0, t1, parent in self.spans:
            self_s[name] = self_s.get(name, 0.0) + (t1 - t0)
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                pname = self.spans[parent][0]
                self_s[pname] = self_s.get(pname, 0.0) - (t1 - t0)
        counts = dict(self.counts)
        targets = counts.pop("_targets", set())
        counts["reduce.synth_targets"] = len(targets)
        top_s = sum(t1 - t0 for _, t0, t1, parent in self.spans if parent < 0)
        return {"self_s": self_s, "calls": calls, "counts": counts, "top_s": top_s}


class MemoryTracer:
    """Peak traced allocation above the span's starting level, per group.
    Allocations are traced only while a measured span runs, so the rest of
    the query is not slowed."""

    def __init__(self):
        self.peaks: dict[str, int] = {}
        self.marks: list[list[int]] = []  # [start level, peak seen so far]

    def wrap(self, mod, attr: str, name: str | None, count):
        fn = getattr(mod, attr)
        group = MEMORY_GROUPS.get(name)
        if group is None:
            return
        peaks, marks = self.peaks, self.marks

        def measured(*args, **kwargs):
            if not marks:  # allocations are traced only inside measured spans
                tracemalloc.start()
            cur, peak = tracemalloc.get_traced_memory()
            if marks:
                marks[-1][1] = max(marks[-1][1], peak)
            marks.append([cur, 0])
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                start, seen = marks.pop()
                seen = max(seen, tracemalloc.get_traced_memory()[1])
                peaks[group] = max(peaks.get(group, 0), seen - start)
                if marks:
                    marks[-1][1] = max(marks[-1][1], seen)
                else:
                    tracemalloc.stop()

        setattr(mod, attr, measured)

    def report(self) -> dict:
        return {"peak_bytes": self.peaks}


def main(argv: list[str]) -> int:
    mode, out_path, sep, *cli_args = argv
    if sep != "--" or mode not in ("plain", "trace", "memory"):
        print("usage: tracer.py plain|trace|memory REPORT -- CLI-ARGS...", file=sys.stderr)
        return 2
    tracer = {"plain": None, "trace": Tracer, "memory": MemoryTracer}[mode]
    tracer = tracer() if tracer else None
    if tracer is not None:
        for mod, attr, name, count in WRAPS:
            tracer.wrap(mod, attr, name, count)
    t0 = time.perf_counter()
    code = bconn.cli.run_cli(cli_args)
    run_s = time.perf_counter() - t0
    sys.stdout.flush()
    report = {"code": code, "run_s": run_s}
    if tracer is not None:
        report.update(tracer.report())
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
