"""Spans recorded around calls into highgirth's public functions.

A ``Tracer`` replaces module attributes with wrappers that record one
span per call: name, start, end, parent span and an optional tag.  The
wrappers go in under every name a caller looks up, since a module that
did ``from .fields import solve_full`` holds its own reference.  Spans
stay in memory until ``save`` writes them out.

A span opened on a thread with no open span of its own takes as parent
the innermost open span marked ``root`` (``run_trials``), so trial work
done by pool threads is charged to the run that started it.  Self time
is a span's duration minus the part of it that the union of its
children's intervals covers; children on two threads may overlap.
"""
from __future__ import annotations

import functools
import threading
import time
from array import array
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.tags: list[str] = [""]
        self._tag_ids: dict[str, int] = {"": 0}
        self.name = array("i")
        self.tag = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.observed: dict[str, list] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _intern(self, table: list, ids: dict, key: str) -> int:
        if key not in ids:
            ids[key] = len(table)
            table.append(key)
        return ids[key]

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name_id: int, tag: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        with self._lock:
            tag_id = self._intern(self.tags, self._tag_ids, tag) if tag else 0
            sid = len(self.name)
            self.name.append(name_id)
            self.tag.append(tag_id)
            self.parent.append(parent)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn, tag=None, observe=None, root: bool = False):
        """``fn`` wrapped to record a span named ``name`` per call.

        ``tag(*args)`` labels the span; ``observe(result)`` values are
        kept under ``name``; a ``root`` span adopts spans that pool
        threads open while it is open.
        """
        name_id = self._intern(self.names, self._name_ids, name)
        if observe:
            seen = self.observed.setdefault(name, [])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name_id, tag(*args, **kwargs) if tag else "")
            if root:
                outer, self._root = self._root, sid
            try:
                result = fn(*args, **kwargs)
            finally:
                if root:
                    self._root = outer
                self._close(sid)
            if observe:
                seen.append(observe(result))
            return result

        return traced

    def install(self, name: str, attr: str, modules, **options) -> None:
        """Wrap ``attr`` in every module of ``modules``.

        All of them must hold the same object, so a wrapper never misses
        a caller that looks the function up under another name.
        """
        original = getattr(modules[0], attr)
        for m in modules[1:]:
            if getattr(m, attr) is not original:
                raise RuntimeError(f"{m.__name__}.{attr} is not {modules[0].__name__}.{attr}")
        traced = self.wrap(name, original, **options)
        for m in modules:
            self._patches.append((m, attr, original))
            setattr(m, attr, traced)

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patches):
            setattr(m, attr, original)
        self._patches.clear()

    # -- analysis ------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its children's intervals."""
        kids = defaultdict(list)
        for sid, p in enumerate(self.parent):
            if p >= 0:
                kids[p].append(sid)
        own = [e - s for s, e in zip(self.start, self.end)]
        for p, children in kids.items():
            lo, hi = self.start[p], self.end[p]
            covered = 0.0
            cur_s = cur_e = None
            for s, e in sorted((self.start[c], self.end[c]) for c in children):
                s, e = max(s, lo), min(e, hi)
                if cur_e is None or s > cur_e:
                    if cur_e is not None:
                        covered += cur_e - cur_s
                    cur_s, cur_e = s, e
                else:
                    cur_e = max(cur_e, e)
            if cur_e is not None:
                covered += cur_e - cur_s
            own[p] -= covered
        return own

    def totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, summed self time)."""
        own = self.self_times()
        calls = defaultdict(int)
        secs = defaultdict(float)
        for sid, nid in enumerate(self.name):
            calls[self.names[nid]] += 1
            secs[self.names[nid]] += own[sid]
        return {k: (calls[k], secs[k]) for k in self.names}

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` with a span called ``ancestor`` above them."""
        want = self._name_ids.get(name)
        above = self._name_ids.get(ancestor)
        count = 0
        for sid, nid in enumerate(self.name):
            if nid != want:
                continue
            p = self.parent[sid]
            while p >= 0 and self.name[p] != above:
                p = self.parent[p]
            count += p >= 0
        return count

    def children_by_parent_tag(self, child: str, parent: str) -> dict[str, tuple[int, int]]:
        """tag -> (spans called ``parent`` with that tag, their direct
        children called ``child``)."""
        cid = self._name_ids.get(child)
        pid = self._name_ids.get(parent)
        out = defaultdict(lambda: [0, 0])
        for sid, nid in enumerate(self.name):
            if nid == pid:
                out[self.tags[self.tag[sid]]][0] += 1
            elif nid == cid:
                p = self.parent[sid]
                if p >= 0 and self.name[p] == pid:
                    out[self.tags[self.tag[p]]][1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def save(self, path) -> None:
        """Write every span to a compressed numpy archive."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            tags=np.array(self.tags),
            name=np.frombuffer(self.name, np.int32),
            tag=np.frombuffer(self.tag, np.int32),
            parent=np.frombuffer(self.parent, np.int64),
            start=np.frombuffer(self.start, np.float64),
            end=np.frombuffer(self.end, np.float64),
        )
