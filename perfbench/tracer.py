"""Outside-in span tracing of hapsim's public functions.

The tracer replaces functions by module attribute (and methods by class
attribute) with wrappers that record one span per call: name, start,
end, parent span and the scenario being run.  Nothing inside hapsim
changes; calls a module makes to its own unexported helpers stay inside
the caller's span.  Spans are kept in memory and written out as JSON
lines when the run ends.

Each thread keeps its own span stack.  A span opened on a worker thread
with an empty stack is parented to the main thread's open span, which is
the ``run_campaign`` that submitted the work; overlapping worker spans
are merged before they are subtracted from that parent's time.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

# Span name -> where the callable lives.  A module function is replaced
# in every hapsim module that holds a reference to it (``from x import
# f`` copies the reference), so calls through any importer are seen.
FUNCTIONS = {
    "config": ["preset_config", "load_config", "parse_config", "dump_config"],
    "geometry": ["haps_position", "link_geometry"],
    "channel": ["fspl", "feeder_loss"],
    "antenna": ["element_gain", "planar_panel", "single_element_panel", "hex_array",
                "steering_weights", "broadside_weights", "array_gain"],
    "simulation": ["sinr_to_se", "aggregate_se", "cell_centers", "drop_terminals",
                   "build_drop", "build_beams", "nominal_cells", "ul_slot_assignments",
                   "run_campaign"],
    "report": ["write_users_csv", "format_report", "write_report", "write_cdf",
               "write_consumption_csv"],
    "consumption": ["repeater_chain_efficiency", "base_station_chain_efficiency",
                    "relay_advantage", "haps_relay_assessment"],
    "cli": ["main"],
}
# (layer, module, class, method).  ``user_rows`` builds the CSV payload,
# so it counts as artifact writing.
METHODS = [
    ("config", "config", "ScenarioConfig", "validate"),
    ("config", "config", "ScenarioConfig", "resolved_terminal_count"),
    ("config", "config", "ScenarioConfig", "resolved_cell_radius_m"),
    ("config", "config", "ScenarioConfig", "resolved_target_los_count"),
    ("config", "config", "ScenarioConfig", "resolved_table_path"),
    ("channel", "channel", "NtnTables", "from_file"),
    ("channel", "channel", "NtnTables", "default"),
    ("channel", "channel", "NtnTables", "bin_index"),
    ("report", "simulation", "CampaignResult", "user_rows"),
]
LAYERS = ("config", "geometry", "channel", "antenna", "simulation", "report",
          "consumption", "cli")


class Span:
    __slots__ = ("name", "start", "end", "parent", "scenario", "thread")

    def __init__(self, name, parent, scenario, thread):
        self.name = name
        self.parent = parent
        self.scenario = scenario
        self.thread = thread
        self.start = self.end = 0.0


class Tracer:
    """Records spans around hapsim calls while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.scenario = None
        self.observed = defaultdict(int)  # (scenario, counter) -> count
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main and stack is not main else None
            span = Span(name, parent, tracer.scenario, threading.get_ident())
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if observe is not None:
                # Bookkeeping gets a span of its own so that it is not
                # charged to the caller's self time.
                extra = Span("bench.observe", parent, tracer.scenario, span.thread)
                extra.start = perf_counter()
                observe(tracer, result)
                extra.end = perf_counter()
                tracer.spans.append(extra)
            return result

        return traced

    def install(self, observers=None) -> None:
        """Wrap every listed callable of the loaded hapsim package."""
        observers = observers or {}
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "hapsim" or k.startswith("hapsim."))]
        for layer, names in FUNCTIONS.items():
            home = sys.modules[f"hapsim.{layer}"]
            for attr in names:
                original = getattr(home, attr)
                span_name = f"{layer}.{attr}"
                wrapped = self._wrap(span_name, original, observers.get(span_name))
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, key, value))
                            setattr(module, key, wrapped)
        for layer, module_name, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"hapsim.{module_name}"], cls_name)
            raw = cls.__dict__[attr]
            span_name = f"{layer}.{attr}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(span_name, raw.__func__))
            else:
                wrapped = self._wrap(span_name, raw)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def count(self, key: str, amount: int) -> None:
        with self._lock:
            self.observed[(self.scenario, key)] += amount

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def write_spans(spans: list[Span], path, round_index: int) -> None:
    """Append one round's spans to ``path`` as JSON lines."""
    index = {id(s): i for i, s in enumerate(spans)}
    with open(path, "a") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({
                "round": round_index, "id": i, "name": s.name, "start": s.start, "end": s.end,
                "parent": index.get(id(s.parent)), "scenario": s.scenario, "thread": s.thread,
            }) + "\n")


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanStats:
    """Self and inclusive times of one round's spans."""

    def __init__(self, spans: list[Span]):
        children = defaultdict(list)
        for s in spans:
            if s.parent is not None:
                children[id(s.parent)].append(s)
        self.spans = spans
        self.self_time = {}
        for s in spans:
            kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children.get(id(s), ())]
            self.self_time[id(s)] = (s.end - s.start) - _union_length(k for k in kids if k[1] > k[0])

    def calls(self, *names) -> int:
        return sum(1 for s in self.spans if s.name in names)

    def self_s(self, *names) -> float:
        return sum(self.self_time[id(s)] for s in self.spans if s.name in names)

    def layer_self_s(self, layer: str) -> float:
        return sum(self.self_time[id(s)] for s in self.spans if s.name.split(".", 1)[0] == layer)

    def layer_calls(self, layer: str) -> int:
        return sum(1 for s in self.spans if s.name.split(".", 1)[0] == layer)

    def inclusive_s(self, *names) -> float:
        """Time inside any of ``names``, counting nested calls among them once."""
        total = 0.0
        for s in self.spans:
            if s.name in names and (s.parent is None or s.parent.name not in names):
                total += s.end - s.start
        return total

    def total_self_s(self) -> float:
        return sum(self.self_time.values())
