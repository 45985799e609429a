"""Spans and counts recorded around the public functions of each layer.

The wrappers live here, in the benchmark, not in the program: ``install``
replaces module and class attributes with timing wrappers and ``uninstall``
puts the originals back.  A span has a name, a start, an end and the index
of its parent span; spans stay in memory until ``aggregate`` reads them.

``engine`` imports ``select_best``, ``update_after_extraction``,
``enumerate_connected_sets`` and ``pcr`` into its own namespace, and
``enumeration`` does the same with ``analyze_set`` and ``canonical_code``,
so those names are wrapped where they are called.  The initial enumeration
is a generator: its span covers the consumption of the generator.
"""

from __future__ import annotations

import gzip
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.name = array("H")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total seconds and self seconds (total
        minus the time covered by direct children)."""
        child = array("q", bytes(8 * len(self.start)))
        for idx, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[idx] - self.start[idx]
        out: dict[str, dict[str, float]] = {}
        for idx, nid in enumerate(self.name):
            dur = self.end[idx] - self.start[idx]
            agg = out.setdefault(self.names[nid], {"calls": 0, "total": 0, "self": 0})
            agg["calls"] += 1
            agg["total"] += dur
            agg["self"] += dur - child[idx]
        for agg in out.values():
            agg["total"] /= 1e9
            agg["self"] /= 1e9
        return out

    def write(self, path: Path) -> None:
        """One tab-separated line per span: index, name, start ns, end ns,
        parent index (-1 for a root)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\n")
            for idx, nid in enumerate(self.name):
                fh.write(
                    f"{idx}\t{self.names[nid]}\t{self.start[idx]}\t"
                    f"{self.end[idx]}\t{self.parent[idx]}\n"
                )

    # -- wrappers -----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.
        ``before(counts, args)`` and ``after(counts, args, result)`` update
        the counts outside the timed interval."""
        original = getattr(owner, attr)
        nid = self._name_id(name)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(self.counts, args)
            idx = self.open(nid)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(self.counts, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def wrap_generator(self, owner, attr: str, name: str, count: str) -> None:
        """One span from the first request to a generator until it is
        exhausted or closed; ``counts[count]`` counts the items it yields."""
        original = getattr(owner, attr)
        nid = self._name_id(name)

        def wrapper(*args, **kwargs):
            idx = self.open(nid)
            try:
                for item in original(*args, **kwargs):
                    self.counts[count] += 1
                    yield item
            finally:
                self.close(idx)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def install(tracer: Tracer) -> None:
    """Wrap the layer functions that the per-layer metrics name."""
    from vrgc import artifact, engine, enumeration, graphs

    def after_register(counts, args, _result):
        counts["register_calls"] += 1
        counts["index_entries_max"] = max(counts["index_entries_max"], len(args[0].entries))

    def before_remove(counts, args):
        counts["entries_scanned"] += len(args[0].entries)

    def before_select(counts, args):
        tables = args[0].tables
        counts["codes_scored"] += len(tables)
        counts["occurrences_scored"] += sum(
            len(sets) for levels in tables.values() for sets in levels.values()
        )

    def after_apply(counts, _args, _result):
        counts["iterations"] += 1

    def before_replay(counts, args):
        counts["edits_replayed"] += sum(len(r.edits) for r in args[1])

    def after_load(counts, _args, result):
        counts["codes_loaded"] += len(result[0].grammar.codes)

    tracer.wrap(graphs, "parse_edge_list", "graphs.parse")
    tracer.wrap(engine, "extract", "engine.extract")
    tracer.wrap_generator(engine, "enumerate_connected_sets", "enumeration.initial", "sets_initial")
    tracer.wrap(enumeration.EnumState, "register", "enumeration.register", after=after_register)
    tracer.wrap(enumeration, "analyze_set", "mdl.analyze_set")
    tracer.wrap(enumeration, "canonical_code", "rules.canonical")
    tracer.wrap(engine, "select_best", "engine.select", before=before_select)
    tracer.wrap(engine, "pcr", "mdl.pcr")
    tracer.wrap(engine, "extract_one", "engine.apply", after=after_apply)
    tracer.wrap(engine, "update_after_extraction", "enumeration.update")
    tracer.wrap(
        enumeration.EnumState, "remove_touching", "enumeration.remove_touching", before=before_remove
    )
    tracer.wrap(artifact, "load_artifact", "artifact.load", after=after_load)
    tracer.wrap(engine, "decode", "engine.decode")
    tracer.wrap(engine, "replay", "engine.replay", before=before_replay)
