"""Spans around divtrees' module functions, installed from outside.

:func:`install` replaces functions by timing wrappers at every place
they are looked up.  ``from .x import f`` binds a copy of ``f`` in the
importing module, so each divtrees module's own namespace is patched,
not only the defining one; a span is named after the function's home
module whichever namespace called it.  ``KernelResult.to_json_dict``
is patched on the class, and the ``blackbox=`` defaults that
``kernelize_li``/``kernelize_lnt`` bound at definition time are
re-pointed at the wrapped kernels.

Spans stay in memory as ``(id, parent, name, start, end, call, gen,
yielded)`` rows.  A generator is traced per resume: each ``next`` is
one span, ``gen`` identifies the generator instance and ``yielded``
says whether that resume produced a value.  :func:`summarize` turns
the rows into self and inclusive times; counts that are not times
(rule firings, clique nodes, bytes) are read off return values into
``Tracer.counts``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

MODULES = ("graphcore", "spantree", "diversify", "blackbox", "oracle", "kernelizer", "cli")

# private functions that are layer boundaries in their own right
PRIVATE = {
    "kernelizer": ("_exhaust_contractions", "_exhaust_pendant_deletions"),
    "oracle": ("_find_clique",),
    "cli": ("_cmd_kernelize", "_cmd_solve", "_cmd_verify", "_cmd_construct",
            "_cmd_audit", "_emit_json", "_emit"),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.call = -1
        self._stack: list[int] = [0]
        self._next_id = 1
        self._next_gen = 1
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self) -> tuple[int, int, float]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent, perf_counter()

    def _close(self, sid: int, parent: int, name: str, start: float,
               gen: int = 0, yielded: bool = False) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans.append((sid, parent, name, start, end, self.call, gen, yielded))

    def _wrap(self, fn, name: str, site: str):
        after = _AFTER.get(name)
        if inspect.isgeneratorfunction(fn):
            yields = f"yields:{name}@{site}"

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                gid = self._next_gen
                self._next_gen += 1
                while True:
                    sid, parent, start = self._open()
                    try:
                        item = next(inner)
                    except StopIteration:
                        self._close(sid, parent, name, start, gid)
                        return
                    except BaseException:
                        self._close(sid, parent, name, start, gid)
                        raise
                    self._close(sid, parent, name, start, gid, True)
                    self.counts[yields] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent, start = self._open()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(sid, parent, name, start)
            if after is not None:
                after(self.counts, args, out)
            return out

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"divtrees.{m}") for m in MODULES}
        home = {}  # original function -> span name
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if not attr.startswith("_") or attr in PRIVATE.get(short, ()):
                        home[obj] = f"{short}.{attr}"
        wrapped = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in home:
                    w = self._wrap(obj, home[obj], short)
                    wrapped.setdefault(obj, w)
                    self._set(mod, attr, w)
        # dispatch tables such as cli._COMMANDS hold their own references
        for mod in mods.values():
            for table in [v for v in vars(mod).values() if isinstance(v, dict)]:
                for key, obj in list(table.items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        self._undo.append((table, key, obj, True))
                        table[key] = wrapped[obj]
        kr = mods["kernelizer"].KernelResult
        self._set(kr, "to_json_dict", self._wrap(kr.to_json_dict, "kernelizer.payload_json", "kernelizer"))
        original = {name: fn for fn, name in home.items()}
        for name in ("kernelizer.kernelize_li", "kernelizer.kernelize_lnt"):
            fn = original[name]
            default = fn.__kwdefaults__["blackbox"]
            if default in wrapped:
                self._undo.append((fn.__kwdefaults__, "blackbox", default, True))
                fn.__kwdefaults__["blackbox"] = wrapped[default]

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr), False))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value, is_dict in reversed(self._undo):
            if is_dict:
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._undo.clear()


# ---------------------------------------------------------------------------
# counts read off return values

def _kernel_counts(counts, args, result) -> None:
    for e in result.transcript:
        if e.merged_edge is not None:
            counts["kernelizer.contractions.count"] += 1
        elif e.removed_vertex is not None:
            counts["kernelizer.deletions.count"] += 1
        elif e.decision is not None:
            counts["kernelizer.decisions.count"] += 1


def _oracle_counts(counts, args, verdict) -> None:
    counts["oracle.trees_enumerated.count"] += verdict.stats.trees_enumerated
    counts["oracle.clique_nodes.count"] += verdict.stats.clique_nodes


def _candidates(counts, args, out) -> None:
    counts["oracle.candidates.count"] += len(args[0])


def _unavailable(counts, args, out) -> None:
    if out is None:
        counts["blackbox.unavailable.count"] += 1


def _ndjson_bytes(counts, args, text) -> None:
    # json.dumps escapes non-ASCII, so characters are bytes
    counts["kernelizer.transcript_ndjson.bytes"] += len(text)


def _emitted(counts, args, out) -> None:
    counts["cli.output.bytes"] += len(args[1])


_AFTER = {
    "kernelizer.kernelize_li": _kernel_counts,
    "kernelizer.kernelize_lnt": _kernel_counts,
    "oracle.solve_li": _oracle_counts,
    "oracle.solve_lnt": _oracle_counts,
    "oracle._find_clique": _candidates,
    "blackbox.mist_kernel": _unavailable,
    "blackbox.ntst_kernel": _unavailable,
    "kernelizer.transcript_to_ndjson": _ndjson_bytes,
    "cli._emit": _emitted,
}


# ---------------------------------------------------------------------------
# aggregation

def summarize(spans) -> dict:
    """Self and inclusive seconds per span name, overall and per call.

    Self time is a span's duration minus its children's.  Inclusive
    time counts only outermost spans of a name, so recursion is not
    counted twice.  ``first_yield`` maps each generator instance to its
    span name and its busy time (children included) up to its first
    yielded value.
    """
    children = defaultdict(float)
    name_of = {}
    parent_of = {}
    for sid, parent, name, start, end, call, gen, yielded in spans:
        children[parent] += end - start
        name_of[sid] = name
        parent_of[sid] = parent
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    self_by_call = defaultdict(float)
    calls = defaultdict(int)
    first_yield: dict[int, tuple[str, float]] = {}
    busy: dict[int, float] = defaultdict(float)
    for sid, parent, name, start, end, call, gen, yielded in spans:
        dur = end - start
        self_s[name] += dur - children[sid]
        self_by_call[(name, call)] += dur - children[sid]
        up = parent
        while up and name_of.get(up) != name:
            up = parent_of.get(up, 0)
        if not up:
            incl_s[name] += dur
        if gen:
            if gen not in first_yield:
                busy[gen] += dur
                if yielded:
                    first_yield[gen] = (name, busy[gen])
        else:
            calls[name] += 1
    return {
        "self": dict(self_s),
        "incl": dict(incl_s),
        "self_by_call": dict(self_by_call),
        "calls": dict(calls),
        "first_yield": first_yield,
    }
