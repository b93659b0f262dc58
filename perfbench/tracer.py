"""Spans around calls into chisearch's public functions, for the traced run.

Each wrapper replaces a name where its caller looks it up: ``executor``
imports ``build_chi``, ``cp_exact``, ``expr_bounds`` and
``bound_scalar_agg`` by name, so those are patched in ``executor``; it
reaches ``cp_bounds`` through the ``bounds`` module, so that one is patched
there. Recursive calls inside ``bounds.expr_bounds`` go to the unpatched
module global and so do not open spans of their own.

The engine runs with one thread, so one stack of open spans suffices.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path

from chisearch import bounds, chi, executor, planner, sql, store

# (owner, attribute, span name, function of the call's arguments kept on the span)
TARGETS = (
    (sql, "parse", "sql.parse", None),
    (planner, "plan", "planner.plan", None),
    (executor.Engine, "execute", "executor.execute", None),
    (store.MaskStore, "open", "store.open", None),
    (store.MaskStore, "get_mask", "store.get_mask", lambda args: args[1]),
    (executor, "cp_exact", "store.cp_exact", None),
    (executor, "build_chi", "chi.build_chi", None),
    (chi, "build_chi", "chi.build_chi", None),
    (chi.IndexStore, "insert", "chi.insert", None),
    (chi, "persist_index", "chi.persist_index", None),
    (chi, "load_index", "chi.load_index", None),
    (bounds, "cp_bounds", "bounds.cp_bounds", None),
    (executor, "expr_bounds", "bounds.expr_bounds", None),
    (executor, "bound_scalar_agg", "bounds.bound_scalar_agg", None),
)

# Span tuple fields.
NAME, START, END, PARENT, QID, ARG = range(6)


class Tracer:
    """Records one span per wrapped call: (name, start_ns, end_ns, parent, qid, arg).

    ``parent`` is the index of the enclosing span or -1; ``qid`` is whatever
    the caller set on ``self.qid`` when the span opened (None between queries).
    """

    def __init__(self):
        self.spans: list = []
        self.qid = None
        self._open: list[int] = []

    def wrap(self, name: str, fn, arg=None):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            qid = self.qid
            open_.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                open_.pop()
                spans[sid] = (name, t0, t1, parent, qid, None if arg is None else arg(args))

        traced.__wrapped__ = fn
        return traced

    def write_tsv(self, path: Path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("span\tparent\tqid\tname\tstart_ns\tend_ns\targ\n")
            for sid, (name, t0, t1, parent, qid, arg) in enumerate(self.spans):
                q = "" if qid is None else qid
                a = "" if arg is None else arg
                fh.write(f"{sid}\t{parent}\t{q}\t{name}\t{t0}\t{t1}\t{a}\n")


@contextmanager
def installed(tracer: Tracer):
    """Patch every target for the duration of the block, then restore it."""
    saved = []
    try:
        for owner, attr, name, arg in TARGETS:
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                patched = classmethod(tracer.wrap(name, original.__func__, arg))
            else:
                patched = tracer.wrap(name, original, arg)
            saved.append((owner, attr, original))
            setattr(owner, attr, patched)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
