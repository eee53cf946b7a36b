"""In-memory span tracer that wraps module-level functions of the program
from outside, without touching its source.

Each traced function is replaced by a wrapper in every loaded module that
binds it by name (``training`` imports ``_advance`` from ``model``, for
example), so calls are caught wherever they are made from. A span holds the
function, its start and end, the enclosing span and the request it serves;
spans stay in flat arrays until ``save`` writes them out. Self time is a
span's duration minus the time its child spans cover.
"""

import sys
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self, targets, request_functions):
        """``targets``: labels ``"module.function"`` relative to the
        ``bicap`` package. A call of a function in ``request_functions``
        made outside any request opens a new request (a sentence, an image
        or a query); its nested calls share that request's id."""
        self.labels = list(targets)
        self.calls = [0] * len(self.labels)
        self.self_s = [0.0] * len(self.labels)
        self.fn = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request = array("q")
        self._request_functions = set(request_functions)
        self._stack = []          # [span id, time covered by child spans]
        self._current_request = 0
        self._next_request = 1
        self._patches = []        # (module, attribute, original)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "bicap" or name.startswith("bicap."))]
        for idx, label in enumerate(self.labels):
            module_name, attr = label.rsplit(".", 1)
            original = getattr(sys.modules[f"bicap.{module_name}"], attr)
            wrapper = self._wrap(idx, original, label in self._request_functions)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._patches.append((module, name, original))

    def uninstall(self):
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches = []

    def _wrap(self, idx, fn, opens_request):
        clock = time.perf_counter
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        fn_ids, starts, ends = self.fn, self.start, self.end
        parents, requests = self.parent, self.request

        def traced(*args, **kwargs):
            opened = opens_request and self._current_request == 0
            if opened:
                self._current_request = self._next_request
                self._next_request += 1
            sid = len(fn_ids)
            fn_ids.append(idx)
            parents.append(stack[-1][0] if stack else -1)
            requests.append(self._current_request)
            ends.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                ends[sid] = t1
                duration = t1 - t0
                calls[idx] += 1
                self_s[idx] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if opened:
                    self._current_request = 0

        traced.__wrapped__ = fn
        return traced

    def counts(self):
        return dict(zip(self.labels, self.calls))

    def calls_under(self, label, ancestors):
        """Calls of ``label`` that ran inside a span of any of ``ancestors``."""
        fn = np.frombuffer(self.fn, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        nested = parent >= 0
        # A parent is entered before its children, so parent ids are
        # smaller; each pass pushes the mark one level down.
        marked = np.isin(fn, [self.labels.index(a) for a in ancestors])
        while True:
            inside = np.zeros_like(marked)
            inside[nested] = marked[parent[nested]]
            grown = marked | inside
            if np.array_equal(grown, marked):
                break
            marked = grown
        return int(np.count_nonzero(inside & (fn == self.labels.index(label))))

    def save(self, path):
        np.savez_compressed(
            path, labels=np.array(self.labels), fn=np.frombuffer(self.fn, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            request=np.frombuffer(self.request, dtype=np.int64))
