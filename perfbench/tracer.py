"""In-process span tracer that wraps polystrat's public callables.

The benchmark installs it around ``polystrat.cli.main`` for the traced
run; the program's own code is untouched.  Three kinds of callable are
wrapped:

* each layer module's public functions, rebound in every polystrat
  module that holds the same function object (``report`` and ``links``
  import names directly);
* the public arithmetic methods of ``Scalar``;
* the public methods and properties of ``HPolytope``, plus its
  constructor, so polytope builds are counted.

Every call becomes a span (name, layer, start, end, parent span, input
id) kept in flat arrays and written out by :meth:`Tracer.write_spans`.
A layer's self time is the sum over its spans of the duration minus the
time covered by direct child spans.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import time
from array import array
from collections import Counter

# module -> layer; intlattice is reported under groups
LAYER_MODULES = {
    "scalars": "scalars", "linalg": "linalg", "lp": "lp",
    "polytope": "polytope", "ambient": "ambient", "groups": "groups",
    "intlattice": "groups", "charts": "charts", "links": "links",
    "report": "report",
}
LAYERS = ("scalars", "linalg", "lp", "polytope", "ambient", "groups",
          "charts", "links", "report")
SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__", "__neg__")
SCALAR_METHODS = SCALAR_OPS + ("evaluate", "sign", "substitute")


class Tracer:
    """Records one span per wrapped call; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.layer_of: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.open: list[int] = []        # spans of each name now running
        self.counts: Counter = Counter()
        self.input_id = -1
        self.input_labels: list[str] = []
        self.current_label = ""          # set by the caller per invocation
        self.next_label = ""             # set by cli.fixture_spec
        self.sp_name = array("i")
        self.sp_parent = array("i")
        self.sp_input = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self._stack: list[list] = []     # [span id, time in child spans]
        self._undo: list[tuple] = []
        self._cob_seen: set = set()
        self._keep: dict = {}            # polytopes seen, kept alive so ids stay unique

    # -- span bookkeeping -------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        self._ids[name] = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.open.append(0)
        return len(self.names) - 1

    def wrap(self, fn, name: str, layer: str, before=None, after=None):
        nid = self._name_id(name, layer)
        stack, clock = self._stack, time.perf_counter
        sp_name, sp_parent, sp_input = self.sp_name, self.sp_parent, \
            self.sp_input
        sp_start, sp_end = self.sp_start, self.sp_end
        calls, self_s, open_ = self.calls, self.self_s, self.open

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            sid = len(sp_name)
            sp_name.append(nid)
            sp_parent.append(stack[-1][0] if stack else -1)
            sp_input.append(self.input_id)
            frame = [sid, 0.0]
            stack.append(frame)
            open_[nid] += 1
            t0 = clock()
            sp_start.append(t0)
            sp_end.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                open_[nid] -= 1
                sp_end[sid] = t1
                dur = t1 - t0
                calls[nid] += 1
                self_s[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _open_named(self, name: str) -> int:
        return self.open[self._ids[name]]

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every callable listed in the module docstring."""
        pkg = importlib.import_module("polystrat")
        mods = {m: importlib.import_module(f"polystrat.{m}")
                for m in list(LAYER_MODULES) + ["cli"]}
        holders = list(mods.values()) + [pkg]
        hooks = self._hooks()
        for modname, layer in LAYER_MODULES.items():
            mod = mods[modname]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{modname}.{attr}"
                before, after = hooks.get(name, (None, None))
                wrapped = self.wrap(fn, name, layer, before, after)
                for holder in holders:
                    for hattr, value in list(vars(holder).items()):
                        if value is fn:
                            self._set(holder, hattr, wrapped)
        self._wrap_class(mods["scalars"].Scalar, SCALAR_METHODS, "scalars",
                         hooks)
        hp = mods["polytope"].HPolytope
        public = [nm for nm, v in vars(hp).items()
                  if not nm.startswith("_")
                  and (inspect.isfunction(v) or isinstance(v, property))]
        self._wrap_class(hp, ["__init__"] + public, "polytope", hooks)
        fixture_spec = mods["cli"].fixture_spec
        self._set(mods["cli"], "fixture_spec",
                  self._labelled(fixture_spec))

    def _labelled(self, fixture_spec):
        def labelled(name):
            self.next_label = name
            return fixture_spec(name)
        return labelled

    def _wrap_class(self, cls, attrs, layer, hooks):
        for attr in attrs:
            value = vars(cls)[attr]
            name = f"{cls.__name__}.{attr}"
            before, after = hooks.get(name, (None, None))
            if isinstance(value, property):
                wrapped = property(self.wrap(value.fget, name, layer,
                                             before, after))
            else:
                wrapped = self.wrap(value, name, layer, before, after)
            self._set(cls, attr, wrapped)

    def _set(self, holder, attr, value):
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def uninstall(self):
        while self._undo:
            holder, attr, value = self._undo.pop()
            setattr(holder, attr, value)

    # -- counters measured where the work happens -------------------------

    def _hooks(self):
        c = self.counts

        def on_parse(_args):
            self.input_id += 1
            self.input_labels.append(self.next_label or self.current_label)
            self.next_label = ""

        def on_solve(_args):
            if self._open_named("HPolytope.vertices"):
                c["polytope.enum_solves"] += 1

        enumerating = []   # per open vertices span: is this the first access?

        def on_vertices(args):
            enumerating.append(args[0]._vertices is None)

        def after_vertices(_args, result):
            if enumerating.pop():
                c["polytope.vertices_found"] += len(result)

        def on_contains(_args):
            if self._open_named("charts.sample_polytope_points"):
                c["charts.sample_contains"] += 1

        def after_sample(_args, result):
            c["charts.sample_points"] += len(result)

        def on_build(args):
            self._keep[id(args[0])] = args[0]
            if (self._open_named("links.cone_section")
                    or self._open_named("links.link_polytope")):
                c["links.section_builds"] += 1

        def on_cob(args):
            key = (id(args[0]), tuple(args[1]))
            self._keep[id(args[0])] = args[0]
            c["ambient.cob_calls"] += 1
            if key in self._cob_seen:
                c["ambient.cob_repeats"] += 1
            self._cob_seen.add(key)

        def after_tree(_args, roots):
            c["links.nodes"] += sum(1 for r in roots for _ in r.walk())

        def after_render(_args, text):
            c["report.bytes"] += len(text.encode())

        return {
            "report.parse_spec": (on_parse, None),
            "linalg.mat_solve": (on_solve, None),
            "HPolytope.vertices": (on_vertices, after_vertices),
            "HPolytope.contains": (on_contains, None),
            "HPolytope.__init__": (on_build, None),
            "charts.sample_polytope_points": (None, after_sample),
            "ambient.change_of_basis": (on_cob, None),
            "links.link_tree": (None, after_tree),
            "report.render_report": (None, after_render),
        }

    # -- results ------------------------------------------------------------

    def call_count(self, *names: str) -> int:
        return sum(self.calls[self._ids[nm]] for nm in names)

    def by_name(self) -> dict:
        return {nm: {"calls": self.calls[i], "self_s": self.self_s[i]}
                for i, nm in enumerate(self.names) if self.calls[i]}

    def layer_totals(self):
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        for i, layer in enumerate(self.layer_of):
            calls[layer] += self.calls[i]
            self_s[layer] += self.self_s[i]
        return calls, self_s

    def write_spans(self, path):
        """One tab-separated line per span, gzip-compressed:
        span, parent, input, layer, name, start_s, end_s (times from the first span)."""
        t0 = self.sp_start[0] if self.sp_start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("# inputs: " + "\t".join(self.input_labels) + "\n")
            fh.write("span\tparent\tinput\tlayer\tname\tstart_s\tend_s\n")
            for sid in range(len(self.sp_name)):
                nid = self.sp_name[sid]
                fh.write(f"{sid}\t{self.sp_parent[sid]}\t{self.sp_input[sid]}"
                         f"\t{self.layer_of[nid]}\t{self.names[nid]}"
                         f"\t{self.sp_start[sid] - t0:.7f}"
                         f"\t{self.sp_end[sid] - t0:.7f}\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tr: Tracer, traced_s: float, untraced_s: float) -> dict:
    """Metric name -> (value, unit), in the order BENCHMARK.json lists them."""
    c = tr.counts
    calls, self_s = tr.layer_totals()
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (calls[layer], "count")
        m[f"{layer}.self_s"] = (self_s[layer], "s")
    m.update({
        "scalars.ops": (tr.call_count(*(f"Scalar.{op}" for op in SCALAR_OPS)),
                        "count"),
        "scalars.evaluate": (tr.call_count("Scalar.evaluate"), "count"),
        "linalg.rank": (tr.call_count("linalg.mat_rank"), "count"),
        "linalg.solve": (tr.call_count("linalg.mat_solve"), "count"),
        "lp.solves": (tr.call_count("lp.lp_maximize",
                                    "lp.open_feasible_point"), "count"),
        "polytope.builds": (tr.call_count("HPolytope.__init__"), "count"),
        "polytope.enum_solves": (c["polytope.enum_solves"], "count"),
        "polytope.vertex_yield": (_ratio(c["polytope.vertices_found"],
                                         c["polytope.enum_solves"]), "ratio"),
        "polytope.contains": (tr.call_count("HPolytope.contains"), "count"),
        "ambient.family_calls": (
            tr.call_count("ambient.admissible_index_sets"), "count"),
        "ambient.cob_repeat_ratio": (_ratio(c["ambient.cob_repeats"],
                                            c["ambient.cob_calls"]), "ratio"),
        "groups.gamma_calls": (tr.call_count(
            "groups.gamma_group", "groups.gamma_face_group",
            "groups.split_gamma"), "count"),
        "groups.snf_calls": (tr.call_count("intlattice.smith_normal_form"),
                             "count"),
        "charts.regular_calls": (tr.call_count("charts.regular_chart"),
                                 "count"),
        "charts.singular_calls": (tr.call_count("charts.singular_chart"),
                                  "count"),
        "charts.sample_accept_ratio": (_ratio(c["charts.sample_points"],
                                              c["charts.sample_contains"]),
                                       "ratio"),
        "links.nodes": (c["links.nodes"], "count"),
        "links.tree_calls": (tr.call_count("links.link_tree"), "count"),
        "links.builds_per_node": (_ratio(c["links.section_builds"],
                                         c["links.nodes"]), "ratio"),
        "report.bytes": (c["report.bytes"], "B"),
        "trace.report_s": (traced_s, "s"),
        "trace.overhead_ratio": (_ratio(traced_s, untraced_s), "ratio"),
    })
    return m
