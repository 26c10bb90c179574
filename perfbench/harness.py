"""Measurement helpers shared by the benchmark workloads.

Everything here is independent of the program under test: latency
summaries and the tail-percentile rule, the quiet-block and
fastest-repeat estimators, the open-loop backlog rule and
``max_qps_under_slo``, an in-memory span tracer with per-thread
self-time arithmetic, process CPU/RSS readings, the host fingerprint,
and the post-run teardown check.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import os
import resource
import socket
import statistics
import sys
import threading
from time import perf_counter

#: Candidate tail percentiles, highest first.  The reported tail is the
#: highest of these with at least ``TAIL_BEYOND`` samples above it.
TAIL_PERCENTILES = (99.9, 99.0, 97.5, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values, pct):
    """Linear-interpolated percentile of ``values`` (numpy's default)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count):
    """Highest candidate percentile with >= TAIL_BEYOND samples beyond.

    Returns ``None`` when even the median has fewer than that many
    samples above it; callers then report the maximum.
    """
    for pct in TAIL_PERCENTILES:
        if count * (100.0 - pct) / 100.0 >= TAIL_BEYOND - 1e-9:
            return pct
    return None


def latency_summary(seconds):
    """``{p50_ms, tail_ms, tail_pct, n}`` of a list of durations in s."""
    if not seconds:
        raise ValueError("no latency samples")
    pct = tail_percentile(len(seconds))
    tail = max(seconds) if pct is None else percentile(seconds, pct)
    return {
        "p50_ms": percentile(seconds, 50.0) * 1e3,
        "tail_ms": tail * 1e3,
        "tail_pct": "max" if pct is None else pct,
        "n": len(seconds),
    }


def quiet_blocks(costs, block, share):
    """Indices of the ops in the cheapest ``share`` of a run's blocks.

    ``costs`` holds one cost per op, in run order, for ops that all do
    the same work.  They are cut into consecutive blocks of ``block``
    ops (a shorter last block is dropped when there are full ones, so
    every ranked block holds the same work), the blocks are ranked by
    summed cost, and the ops of the cheapest ``ceil(share * blocks)``
    blocks are returned in run order.

    Interference from other tenants only ever slows an op down, and on
    a shared host it comes and goes for seconds at a time; the cheapest
    blocks estimate what the program itself costs, as timeit's best of
    several repeats does.  A change to the program moves every block.
    """
    if not costs:
        raise ValueError("no costs to rank")
    if block < 1 or not 0.0 < share <= 1.0:
        raise ValueError(f"bad block {block} or share {share}")
    starts = list(range(0, len(costs), block))
    if len(starts) > 1 and len(costs) - starts[-1] < block:
        starts.pop()
    ranked = sorted(starts, key=lambda s: (sum(costs[s:s + block]), s))
    keep = sorted(ranked[:max(1, math.ceil(share * len(starts)))])
    return [i for s in keep for i in range(s, min(s + block, len(costs)))]


def fastest_repeats(repeats):
    """Per position, the repeat of the same work that ran it fastest.

    ``repeats`` holds one cost list per repeat of identical work, in
    run order, so position ``i`` of every repeat is the same operation.
    Each position is taken from the repeat with the least cost there
    (positions beyond the shortest repeat are dropped).  Returns
    ``(repeat, position)`` pairs in position order.

    Interference from other tenants only ever slows an operation down,
    and on a shared host it moves between CPUs within a second, so it
    seldom hits the same position of every repeat; a cost the work
    itself carries at that position, such as an expensive code path,
    recurs in every repeat and is kept.  This is timeit's best of
    several repeats, taken per operation.
    """
    if not repeats:
        raise ValueError("no repeats")
    length = min(len(costs) for costs in repeats)
    return [(min(range(len(repeats)), key=lambda r: (repeats[r][i], r)), i)
            for i in range(length)]


def backlog_growing(backlog):
    """Whether an open-loop rung's backlog grew over the rung.

    ``backlog`` is the number of requests due but not yet completed,
    sampled at every arrival of the rung.  The backlog grows when the
    median of the last quarter of samples exceeds the median of the
    first quarter by more than ``max(2, 5% of the rung's requests)``:
    a server keeping up holds a flat (noisy) backlog, one falling
    behind accumulates roughly ``(rate - capacity) * t`` requests.
    """
    if len(backlog) < 8:
        return False
    quarter = len(backlog) // 4
    first = statistics.median(backlog[:quarter])
    last = statistics.median(backlog[-quarter:])
    return last - first > max(2.0, 0.05 * len(backlog))


def max_qps_under_slo(rungs, slo_ms):
    """Highest rung rate whose tail meets ``slo_ms`` without a growing
    backlog or a failed request; 0.0 when no rung qualifies.

    ``rungs`` is a list of dicts with ``rate``, ``tail_ms``,
    ``growing`` and ``failed``.
    """
    best = 0.0
    for rung in rungs:
        if (rung["tail_ms"] <= slo_ms and not rung["growing"]
                and rung["failed"] == 0):
            best = max(best, float(rung["rate"]))
    return best


# ----------------------------------------------------------------------
# Process resources
# ----------------------------------------------------------------------
def cpu_seconds():
    """``(self, reaped children)`` user+system CPU seconds so far."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime,
            children.ru_utime + children.ru_stime)


@contextlib.contextmanager
def pinned(repeat):
    """Run the calling thread, and threads it starts, on one CPU.

    The CPU is the ``repeat``-th of the allowed ones, cyclically, so
    successive repeats of the same work alternate between the CPUs: on
    a shared host one CPU can stay slow for tens of seconds while
    another is not.  The thread's CPU set is restored afterwards.
    """
    allowed = os.sched_getaffinity(0)
    ordered = sorted(allowed)
    os.sched_setaffinity(0, {ordered[repeat % len(ordered)]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def peak_rss_mib():
    """Peak resident set size of this process in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Span:
    """One span: name, thread, interval, self time and enclosing span."""

    __slots__ = ("name", "thread", "start", "end", "self_s", "parent",
                 "child_s")

    def __init__(self, name, thread, start, parent):
        self.name = name
        self.thread = thread
        self.start = start
        self.end = None
        self.self_s = None
        self.parent = parent  # the enclosing Span, or None at a root
        self.child_s = 0.0  # summed duration of direct children

    @property
    def duration(self):
        return self.end - self.start

    def ancestors(self):
        """Names of the enclosing spans, innermost first."""
        node = self.parent
        while node is not None:
            yield node.name
            node = node.parent


class Tracer:
    """In-memory spans with per-thread nesting.

    Spans on one thread nest strictly (enter/exit follow the call
    stack), so a span's self time is its duration minus the summed
    durations of its direct children.  Per thread, the self times of a
    root span and all its descendants therefore add up to the root's
    duration.  Spans are kept in memory and written out by
    :meth:`dump` when the benchmark ends.  ``clock`` lets the self-tests
    drive time by hand.
    """

    def __init__(self, clock=perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread = []  # one list of finished Spans per thread
        self._patches = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            spans = []
            with self._lock:
                self._per_thread.append(spans)
            state = self._local.state = ([], spans)
        return state

    def enter(self, name):
        stack, _ = self._state()
        span = Span(name, threading.get_ident(), self._clock(),
                    stack[-1] if stack else None)
        stack.append(span)
        return span

    def exit(self, span):
        end = self._clock()
        stack, spans = self._state()
        popped = stack.pop()
        if popped is not span:
            raise RuntimeError(
                f"span {span.name!r} closed out of order "
                f"(innermost open span: {popped.name!r})")
        span.end = end
        duration = end - span.start
        span.self_s = duration - span.child_s
        if span.parent is not None:
            span.parent.child_s += duration
        spans.append(span)
        return span

    def span(self, name):
        """Context manager recording one span."""
        return _SpanContext(self, name)

    # -- wrapping the program's public functions ------------------------
    def wrap(self, owner, attribute, name):
        """Replace ``owner.attribute`` with a span-recording wrapper."""
        original = getattr(owner, attribute)
        owned = attribute in vars(owner)
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.enter(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.exit(span)

        traced.__wrapped__ = original
        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original, owned))
        return traced

    def replace(self, owner, attribute, value):
        """Set ``owner.attribute`` to ``value`` until :meth:`unwrap_all`."""
        original = getattr(owner, attribute)
        self._patches.append((owner, attribute, original,
                              attribute in vars(owner)))
        setattr(owner, attribute, value)

    def unwrap_all(self):
        """Restore every attribute :meth:`wrap` replaced (reverse order)."""
        while self._patches:
            owner, attribute, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    # -- reading --------------------------------------------------------
    def spans(self):
        """Every finished span, across threads."""
        with self._lock:
            lists = list(self._per_thread)
        return [span for spans in lists for span in spans]

    def dump(self, path):
        """Write the spans as JSON lines: name, thread, start, end, self
        time and the enclosing span's name."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans():
                handle.write(json.dumps([
                    span.name, span.thread, span.start, span.end,
                    span.self_s,
                    span.parent.name if span.parent is not None else None,
                ]) + "\n")


class _SpanContext:
    __slots__ = ("tracer", "name", "span")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.span = self.tracer.enter(self.name)
        return self.span

    def __exit__(self, exc_type, exc, tb):
        self.tracer.exit(self.span)
        return False


class SpanIndex:
    """Queries over a finished trace: self time by name and context."""

    def __init__(self, spans):
        self.spans = spans

    def select(self, name, within=None, outside=()):
        """Spans named ``name`` (a str or a tuple of names) that have an
        ancestor named ``within`` (if given) and none named in
        ``outside``."""
        names = (name,) if isinstance(name, str) else tuple(name)
        chosen = []
        for span in self.spans:
            if span.name not in names:
                continue
            ancestors = set(span.ancestors())
            if within is not None and within not in ancestors:
                continue
            if ancestors.intersection(outside):
                continue
            chosen.append(span)
        return chosen

    def self_s(self, name, within=None, outside=()):
        """Summed self time of the selected spans, in seconds."""
        return sum(s.self_s for s in self.select(name, within, outside))

    def total_s(self, name, within=None, outside=()):
        """Summed duration of the selected spans, in seconds."""
        return sum(s.duration for s in self.select(name, within, outside))

    def tree_balance(self, root):
        """``(root duration, summed self time of root and descendants)``.

        Both numbers come from the same spans; their difference is the
        error of the self-time arithmetic, which nesting makes zero up
        to float rounding.
        """
        total = root.self_s
        for span in self.spans:
            if span is root:
                continue
            node = span.parent
            while node is not None and node is not root:
                node = node.parent
            if node is root:
                total += span.self_s
        return root.duration, total


def mean_ms(spans):
    """Mean duration of ``spans`` in ms (0.0 when there are none)."""
    return 1e3 * sum(s.duration for s in spans) / len(spans) if spans else 0.0


# ----------------------------------------------------------------------
# Host fingerprint
# ----------------------------------------------------------------------
def git_sha(root):
    """Commit of the checkout from ``.git`` files, or None (no git run)."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path) as handle:
            head = handle.read().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        with open(os.path.join(root, ".git", ref)) as handle:
            return handle.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(root, ".git", "packed-refs")) as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def host_fingerprint(root):
    """nproc, python, numpy + BLAS, and the git commit if available."""
    import numpy as np

    blas = None
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "git_sha": git_sha(root),
    }


# ----------------------------------------------------------------------
# Teardown
# ----------------------------------------------------------------------
def stop_resource_tracker():
    """Stop and reap multiprocessing's shared-memory resource tracker.

    ``SharedMemory(create=True)`` (the replica pool's parameter block)
    launches the tracker as a child process that would otherwise
    outlive the run.  Stopping it after every segment is unlinked is
    what the tracker does itself at interpreter exit.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def teardown_problems(threads_before, addresses=()):
    """Everything a finished run left behind, as a list of strings.

    Checks that no child process is alive or unreaped, that no thread
    started by the run is alive, that no listener still accepts on a
    TCP address the run opened and no Unix-socket path remains, and
    that no socket object of the run is still open.
    """
    import multiprocessing

    problems = []
    for child in multiprocessing.active_children():
        problems.append(f"child process {child.pid} ({child.name}) alive")
    try:
        pid, _status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        pid = None
    if pid == 0:
        problems.append("a child process is still running")
    elif pid is not None:
        problems.append(f"child process {pid} was left unreaped")
    for thread in threading.enumerate():
        if thread not in threads_before and thread.is_alive():
            problems.append(f"thread {thread.name!r} still alive")
    for address in addresses:
        if isinstance(address, str):
            if os.path.exists(address):
                problems.append(f"unix socket path {address} remains")
            continue
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.settimeout(1.0)
        try:
            probe.connect(tuple(address))
            problems.append(f"listener on {address[0]}:{address[1]} "
                            "still accepts connections")
        except OSError:
            pass
        finally:
            probe.close()
    gc.collect()
    for obj in gc.get_objects():
        if isinstance(obj, socket.socket):
            try:
                if obj.fileno() >= 0:
                    problems.append(f"socket {obj!r} still open")
            except (OSError, ValueError):
                pass
    return problems
