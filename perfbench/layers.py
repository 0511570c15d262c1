"""Outside-in instrumentation of the unitindex package for the benchmark.

Nothing here edits the package.  Hooks replace functions at the names their
callers bind (``criterion.find_decomposition``, ``experiment.evaluate``, ...),
so every call made through a module attribute is seen.  Counters live in
per-process lists and are copied into a shared-memory slot per process, so
forked scan workers report back without pipes that could fill and block.

Two kinds of hooks exist:

* ``OpClock`` is always installed.  It wraps ``experiment.evaluate`` to
  record when the first candidate prime starts (the end of set-up) and the
  latency of every evaluated prime.  It costs two clock reads per prime.
* ``Tracer`` is installed only in traced runs.  It wraps every public
  function of the traced modules plus a few private seams (scan chunks,
  checkpoint I/O, the pool's result iterator) and keeps self time, calls
  and raised exceptions per function.  Self time excludes time spent in
  other wrapped functions, so the per-function times partition the wall
  time of the process and whatever they leave over is untraced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import multiprocessing
import multiprocessing.pool
import os
import time

TRACED_MODULES = (
    "arith",
    "redei",
    "symbols",
    "gaussian",
    "construction",
    "quadfield",
    "qfclassgroup",
    "criterion",
    "experiment",
)

# fields per traced function: self ns, inclusive ns of outermost calls,
# calls, calls that raised, extra (bytes or cpu ns), active depth
_SELF, _INCL, _CALLS, _RAISED, _EXTRA, _DEPTH = range(6)
_FIELDS = 6
# parent plus pool workers; workers that replace dead ones also take slots
_MAX_PROCS = 32

_now = time.perf_counter_ns


class OpClock:
    """First-prime timestamp and per-prime latency, shared across forks.

    Latencies are indexed by p >> 2, which is unique for p = 1 (mod 4).
    """

    def __init__(self, experiment, X: int):
        ctx = multiprocessing.get_context("fork")
        self.first_ns = ctx.RawValue("q", 0)
        self.lat_ns = ctx.RawArray("q", (X >> 2) + 1)
        first, lat = self.first_ns, self.lat_ns
        inner = experiment.evaluate

        @functools.wraps(inner)
        def evaluate(d, p, *args, **kwargs):
            t0 = _now()
            if not first.value:
                first.value = t0
            verdict = inner(d, p, *args, **kwargs)
            lat[p >> 2] = _now() - t0
            return verdict

        experiment.evaluate = evaluate

    def latencies(self, primes) -> list[int]:
        return [self.lat_ns[p >> 2] for p in primes]


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    """Self time, calls and exceptions per traced function, for all processes."""

    def __init__(self, package):
        self._modules = [importlib.import_module(f"{package.__name__}.{name}") for name in TRACED_MODULES]
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

        targets: dict[int, tuple[str, object]] = {}
        for mod in self._modules:
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not name.startswith("_")
                    and obj.__module__.startswith(package.__name__ + ".")
                    and _short(obj.__module__) in TRACED_MODULES
                ):
                    targets[id(obj)] = (f"{_short(obj.__module__)}.{obj.__name__}", obj)
        exp = self._modules[TRACED_MODULES.index("experiment")]
        seams = {
            "experiment.chunk": (exp, "_scan_chunk"),
            "experiment.checkpoint_append": (getattr(exp, "_CheckpointLog", None), "append"),
            "experiment.checkpoint_load": (getattr(exp, "_CheckpointLog", None), "_load"),
        }
        names = sorted({key for key, _ in targets.values()} | set(seams) | {"experiment.pool_wait"})
        self._index = {name: i * _FIELDS for i, name in enumerate(names)}

        ctx = multiprocessing.get_context("fork")
        width = len(names) * _FIELDS
        self._width = width
        self._shared = ctx.RawArray("q", _MAX_PROCS * width)
        self._next_slot = ctx.RawValue("i", 1)
        self._lock = ctx.Lock()
        self._slot = 0
        self.local = [0] * width
        self._stack: list[int] = []
        self._installed = False

        self._wrappers: dict[int, object] = {}
        for key, fn in targets.values():
            self._wrappers[id(fn)] = self._wrap(key, fn)
        self._seam_wrappers = []
        for key, (owner, attr) in seams.items():
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(key)
                continue
            self._seam_wrappers.append((owner, attr, self._wrap(key, fn)))
        # the parent blocks here while pool workers compute
        imap = multiprocessing.pool.IMapIterator
        self._seam_wrappers.append((imap, "__next__", self._wrap("experiment.pool_wait", imap.__next__)))
        os.register_at_fork(after_in_child=self._after_fork)

    # -- per-process state -------------------------------------------------

    def _after_fork(self):
        if not self._installed:
            return
        with self._lock:
            slot = self._next_slot.value
            self._next_slot.value = slot + 1
        if slot >= _MAX_PROCS:
            raise RuntimeError("more traced processes than shared slots")
        self._slot = slot
        self.local[:] = [0] * self._width
        self._stack.clear()

    def flush(self):
        base = self._slot * self._width
        self._shared[base : base + self._width] = self.local

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, key: str, fn):
        i = self._index[key]
        local, stack = self.local, self._stack
        flush = self.flush

        def enter():
            stack.append(0)
            local[i + _DEPTH] += 1

        def leave(dt):
            local[i + _SELF] += dt - stack.pop()
            depth = local[i + _DEPTH] - 1
            local[i + _DEPTH] = depth
            if not depth:
                local[i + _INCL] += dt
            if stack:
                stack[-1] += dt

        if inspect.isgeneratorfunction(fn):
            # the work happens while the caller iterates, so time each step
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                local[i + _CALLS] += 1
                while True:
                    enter()
                    t0 = _now()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        leave(_now() - t0)
                    yield item

            return gen_wrapper

        extra = {
            "experiment.chunk": "cpu",
            "experiment.checkpoint_append": "file_growth",
            "experiment.render_csv": "result_len",
            "experiment.render_json": "result_len",
        }.get(key)

        if extra is None:
            # the hot path: enter() and leave() inlined
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stack.append(0)
                local[i + _DEPTH] += 1
                t0 = _now()
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    local[i + _RAISED] += 1
                    raise
                finally:
                    dt = _now() - t0
                    local[i + _SELF] += dt - stack.pop()
                    local[i + _CALLS] += 1
                    depth = local[i + _DEPTH] - 1
                    local[i + _DEPTH] = depth
                    if not depth:
                        local[i + _INCL] += dt
                    if stack:
                        stack[-1] += dt

            return wrapper

        # seams with a side measurement; called a handful of times per run
        @functools.wraps(fn)
        def measuring_wrapper(*args, **kwargs):
            if extra == "cpu":
                cpu0 = time.process_time_ns()
            elif extra == "file_growth":
                size0 = os.path.getsize(args[0].path)
            enter()
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                local[i + _RAISED] += 1
                raise
            finally:
                local[i + _CALLS] += 1
                leave(_now() - t0)
            if extra == "cpu":
                local[i + _EXTRA] += time.process_time_ns() - cpu0
                flush()
            elif extra == "file_growth":
                local[i + _EXTRA] += os.path.getsize(args[0].path) - size0
            else:
                local[i + _EXTRA] += len(result)
            return result

        return measuring_wrapper

    def install(self):
        """Swap every binding of a traced function for its wrapper."""
        for mod in self._modules:
            for name, obj in list(vars(mod).items()):
                wrapper = self._wrappers.get(id(obj))
                if wrapper is not None:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, wrapper)
        for owner, attr, wrapper in self._seam_wrappers:
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)
        self._installed = True

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        self._installed = False

    # -- readout -----------------------------------------------------------

    def parent_self_ns(self) -> int:
        return sum(self.local[i + _SELF] for i in self._index.values())

    def reset(self):
        self.local[:] = [0] * self._width
        self._shared[:] = [0] * len(self._shared)
        self._next_slot.value = 1

    def totals(self) -> dict[str, dict[str, int]]:
        """Per-function sums over every process that ran traced code."""
        self.flush()
        used = min(self._next_slot.value, _MAX_PROCS)
        out = {}
        for name, i in self._index.items():
            vals = [0] * _FIELDS
            for slot in range(used):
                base = slot * self._width + i
                for f in range(_FIELDS):
                    vals[f] += self._shared[base + f]
            out[name] = {
                "self_ns": vals[_SELF],
                "incl_ns": vals[_INCL],
                "calls": vals[_CALLS],
                "raised": vals[_RAISED],
                "extra": vals[_EXTRA],
            }
        return out
