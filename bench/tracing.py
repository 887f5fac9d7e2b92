"""Spans recorded around calls into dbnkit, and the per-layer figures derived from them.

A span is one timed call: its name, start and end (``time.perf_counter``
seconds), the span that was open when it started, and the run it belongs to
(one setup repetition or one traced pass).  Spans stay in memory until the
benchmark writes them out at the end.  A layer's self time is the duration of
its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import json
import statistics
import time
import types
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Collects spans and computed counts while ``enabled``; a no-op otherwise."""

    def __init__(self):
        self.enabled = False
        self.run_id = None
        self.spans = []
        self.counts = defaultdict(dict)
        self._stack = []

    def start_run(self, run_id):
        self.run_id = run_id

    @contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "run": self.run_id,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name, value):
        """Add to a count of the current run (operations or bytes computed from array sizes)."""
        if self.enabled:
            run = self.counts[self.run_id]
            run[name] = run.get(name, 0) + value

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec))
                fh.write("\n")


@contextmanager
def traced_constructors(models, tracer):
    """Open a span around every HmmModel and ChmmModel construction, wherever it happens.

    Model construction (with its validation) runs inside EM and conversions,
    where no call from outside can reach it; the class is the one boundary
    the benchmark can wrap without editing the library.
    """
    originals = {}
    for cls, name in ((models.HmmModel, "models.hmm_ctor"), (models.ChmmModel, "models.chmm_ctor")):
        orig = cls.__init__

        def init(self, *args, _orig=orig, _name=name, **kwargs):
            with tracer.span(_name):
                _orig(self, *args, **kwargs)

        originals[cls] = orig
        cls.__init__ = init
    try:
        yield
    finally:
        for cls, orig in originals.items():
            cls.__init__ = orig


@contextmanager
def traced_library_calls(cli, tracer):
    """Open a ``lib.<module>.<function>`` span around every dbnkit function the CLI calls.

    The CLI module reaches the library through names it imported
    (``load_model``, ``viterbi``) and through modules it imported
    (``inference.smooth``); both are replaced while the block runs, so that a
    CLI span's self time is the CLI's own parsing and formatting.  A no-op
    when the tracer is off.
    """
    if not tracer.enabled:
        yield
        return
    patched = []

    def patch(owner, attr, fn):
        def wrapper(*args, **kwargs):
            with tracer.span(f"lib.{fn.__module__.removeprefix('dbnkit.')}.{fn.__name__}"):
                return fn(*args, **kwargs)

        patched.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    for attr, obj in list(vars(cli).items()):
        if isinstance(obj, types.FunctionType) and obj.__module__.startswith("dbnkit.") and obj.__module__ != cli.__name__:
            patch(cli, attr, obj)
        elif isinstance(obj, types.ModuleType) and obj.__name__.startswith("dbnkit."):
            for name, fn in list(vars(obj).items()):
                if isinstance(fn, types.FunctionType) and fn.__module__ == obj.__name__ and not name.startswith("_"):
                    patch(obj, name, fn)
    try:
        yield
    finally:
        for owner, attr, fn in reversed(patched):
            setattr(owner, attr, fn)


def span_cost(calls=2000, repeats=5):
    """Median seconds one span adds, timed on empty spans of an enabled tracer in this process."""
    tracer = Tracer()
    tracer.enabled = True
    costs = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            with tracer.span("cost"):
                pass
        costs.append((time.perf_counter() - start) / calls)
    return statistics.median(costs)


def summarize_run(spans):
    """Per-name totals for the spans of one run.

    Returns ``(self_s, total_s, calls, cli_s, cli_self_s)``: self and total
    seconds and the number of spans per name, over spans outside any ``cli.*``
    span; the duration of each ``cli.*`` span name; and the self time of all
    ``cli.*`` spans together.  Spans under a CLI call are left out of the layer
    figures, because the library-equivalent calls time the same work layer by
    layer.
    """
    by_id = {s["id"]: s for s in spans}
    child_s = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] += s["end"] - s["start"]

    def under_cli(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            if s["name"].startswith("cli."):
                return True
        return False

    self_s = defaultdict(float)
    total_s = defaultdict(float)
    calls = defaultdict(int)
    cli_s = defaultdict(float)
    cli_self_s = 0.0
    for s in spans:
        dur = s["end"] - s["start"]
        if s["name"].startswith("cli."):
            cli_s[s["name"]] += dur
            cli_self_s += dur - child_s[s["id"]]
        elif not under_cli(s):
            self_s[s["name"]] += dur - child_s[s["id"]]
            total_s[s["name"]] += dur
            calls[s["name"]] += 1
    return self_s, total_s, calls, cli_s, cli_self_s
