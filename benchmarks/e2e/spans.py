"""Outside-in span recorder: time a layer by wrapping its public callable.

Nothing under ``src/`` knows about tracing. A :class:`Recorder` swaps a
class method (on the class) or a module function (at the name its
caller looks up) for a timing wrapper, and :meth:`Recorder.uninstall`
puts the very same original object back. Each thread keeps its own
span list and stack, so recording takes no lock and a span's parent is
always the enclosing call on the same thread.

A span is ``(name, start, end, parent, rank)``; a layer's *self time* is its
spans' durations minus the time their child spans cover, so the self
times of one thread's call tree add up exactly to the root span.
"""

import functools
import json
import threading
import time
from collections import Counter, defaultdict


class Recorder:
    """Installs timing wrappers and collects the spans they record."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []  # (thread name, spans, counters) of every thread seen
        self._patches = []  # (owner, attribute, original object)

    def _state(self):
        local = self._local
        try:
            return local.state
        except AttributeError:
            local.state = state = ([], [], Counter())  # spans, open-span stack, counters
            with self._lock:
                self._threads.append((threading.current_thread().name, state[0], state[2]))
            return state

    def wrap(self, fn, name, tally=None):
        """``fn`` timed as a span called ``name``.

        ``tally(counters, args, result)``, when given, runs after each
        successful call and may update the calling thread's counters.
        """
        state_of = self._state
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack, counters = state_of()
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if tally is not None:
                tally(counters, args, result)
            return result

        return wrapper

    def counted(self, fn, key):
        """``fn`` with each call added to counter ``key`` (no span)."""
        state_of = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state_of()[2][key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, owner, attr, wrapped):
        """Replace ``owner.attr`` (a class or module attribute) by ``wrapped(original)``."""
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped(original))

    def uninstall(self):
        """Restore every patched attribute to the object it held before."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"could not restore {owner.__name__}.{attr}")

    def drain(self, peaks=()):
        """All finished spans and counters so far; the recorder starts afresh.

        Returns ``(spans, counters)``: spans as dicts with ``name``,
        ``start``, ``end``, ``parent`` (index into the list, -1 for a
        root) and ``rank`` (-1 for any thread that is not a rank, such
        as the caller of ``qmpi_run``); counters summed over threads,
        except the keys in ``peaks``, which take the maximum. Call it
        between repetitions, when no wrapped call is in flight.
        """
        spans = []
        counters = Counter()
        with self._lock:
            for thread, thread_spans, thread_counters in self._threads:
                base = len(spans)
                # InprocTransport names its rank threads "rank-<r>".
                rank = int(thread[5:]) if thread.startswith("rank-") else -1
                for name, start, end, parent in thread_spans:
                    spans.append(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent + base if parent >= 0 else -1,
                            "rank": rank,
                        }
                    )
                thread_spans.clear()
                for key, value in thread_counters.items():
                    if key in peaks:
                        counters[key] = max(counters[key], value)
                    else:
                        counters[key] += value
                thread_counters.clear()
        return spans, counters


def self_times(spans):
    """Per-span self time: duration minus the time covered by child spans."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def by_layer(spans):
    """``{name: (self seconds, calls)}`` summed over all threads."""
    table = defaultdict(lambda: [0.0, 0])
    for span, own in zip(spans, self_times(spans)):
        row = table[span["name"]]
        row[0] += own
        row[1] += 1
    return {name: tuple(row) for name, row in table.items()}


def root_sums(spans, root_name):
    """``[(rank, root duration, summed self time of its call tree)]`` per root span."""
    own = self_times(spans)
    root_of = []
    sums = {}
    for i, span in enumerate(spans):
        parent = span["parent"]
        if parent >= 0:
            root = root_of[parent]
        else:
            root = i if span["name"] == root_name else -1
        root_of.append(root)
        if root >= 0:
            sums[root] = sums.get(root, 0.0) + own[i]
    return [
        (spans[root]["rank"], spans[root]["end"] - spans[root]["start"], total)
        for root, total in sums.items()
    ]


def dump(path, spans, **header):
    """Write spans (plus any header fields) as one JSON document."""
    with open(path, "w") as fh:
        json.dump({**header, "spans": spans}, fh)
