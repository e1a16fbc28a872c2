"""Spans and counts recorded from outside the program.

A Tracer installs wrappers, at run time and inside a cold worker only,
around the public functions and class methods of each ``minbase`` module.
Because ``cli``, ``invariants``, ``classical``, ``catalog`` and
``partitions`` import names with ``from .x import y``, patching only the
defining module would miss their calls: every module attribute, and every
module-level dict entry, that *is* the original function gets the wrapper.
Methods are patched on their class.

Entry points in ``TIMED`` record a span (name, start, end, parent).  Hot
primitives in ``COUNTED`` are called up to millions of times per command,
so they are only counted.  ``summarize`` turns one command's spans into
self times (span duration minus the spans directly beneath it).
"""

from __future__ import annotations

import importlib
import time

# span name -> (module, attribute path)
TIMED = {
    "partitions.partition_stabilizer": ("partitions", "partition_stabilizer"),
    "partitions.base_size_partitions": ("partitions", "base_size_partitions"),
    "partitions.minimal_partition_base": ("partitions", "minimal_partition_base"),
    "partitions.parse_partition": ("partitions", "parse_partition"),
    "partitions.format_partition": ("partitions", "format_partition"),
    "perm.PermGroup": ("perm", "PermGroup.__init__"),
    "perm.PermGroup.elements": ("perm", "PermGroup.elements"),
    "perm.CosetAction": ("perm", "CosetAction.__init__"),
    "perm.parse_perm": ("perm", "parse_perm"),
    "perm.format_perm": ("perm", "format_perm"),
    "lattice.GroupTable": ("lattice", "GroupTable.__init__"),
    "lattice.GroupTable.closure": ("lattice", "GroupTable.closure"),
    "lattice.Lattice": ("lattice", "Lattice.__init__"),
    "lattice.frattini": ("lattice", "frattini"),
    "invariants.alpha": ("invariants", "alpha"),
    "invariants.beta": ("invariants", "beta"),
    "invariants.chief_series": ("invariants", "chief_series"),
    "invariants.chief_factor_bound": ("invariants", "chief_factor_bound"),
    "invariants.soluble_bounds_report": ("invariants", "soluble_bounds_report"),
    "classical.sp4_pair_stabilizer": ("classical", "sp4_pair_stabilizer"),
    "classical.sp4_triple_base_check": ("classical", "sp4_triple_base_check"),
    "classical.orth_odd_construct": ("classical", "orth_odd_construct"),
    "classical.orth_odd_pair_check": ("classical", "orth_odd_pair_check"),
    "classical.isometry_group_elements": ("classical", "isometry_group_elements"),
    "fq.Field": ("fq", "Field.__init__"),
    "fq.frobenius_subspace": ("fq", "frobenius_subspace"),
    "catalog.group_from_spec": ("catalog", "group_from_spec"),
    "bounds.evaluate_qhat": ("bounds", "evaluate_qhat"),
    "bounds.g2_subfield_terms": ("bounds", "g2_subfield_terms"),
    "bounds.sp4_subfield_terms": ("bounds", "sp4_subfield_terms"),
    "bounds.o10_plus_imprimitive_terms": ("bounds", "o10_plus_imprimitive_terms"),
}

COUNTED = {
    "perm.compose": ("perm", "compose"),
    "perm.PermGroup.contains": ("perm", "PermGroup.contains"),
    "partitions.apply_to_canonical": ("partitions", "apply_to_canonical"),
    "fq.mat_vec": ("fq", "mat_vec"),
    "fq.rref": ("fq", "rref"),
}

ROOT = "cli.main"


def layer_of(name):
    return name.split(".", 1)[0]


class Tracer:
    """Spans and counts of one command; lives in one worker process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self._cells = {}  # count name -> one-element list

    # -- wrappers -------------------------------------------------------------

    def _timed(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        after = self._AFTER.get(name)

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        cell = self._cell(name)

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _cell(self, name):
        return self._cells.setdefault(name, [0])

    def _bump(self, name, by=1):
        self._cell(name)[0] += by

    # result hooks: counts that only the return value shows
    def _after_stabilizer(self, args, group):
        self._bump("partitions.stabilizer_trivial", group.order == 1)

    def _after_lattice(self, args, _):
        self._bump("lattice.subgroups", len(args[0].subgroups))

    def _after_sp4_pair(self, args, rep):
        self._bump("classical.sp4_candidates", rep.candidates)
        self._bump("classical.sp4_survivors", len(rep.survivors))

    _AFTER = {
        "partitions.partition_stabilizer": _after_stabilizer,
        "lattice.Lattice": _after_lattice,
        "classical.sp4_pair_stabilizer": _after_sp4_pair,
    }

    # -- installation -----------------------------------------------------------

    def install(self):
        """Wrap every binding of every TIMED and COUNTED target."""
        modules = {
            m: importlib.import_module(f"minbase.{m}")
            for m in ("perm", "partitions", "lattice", "invariants", "fq",
                      "classical", "bounds", "catalog", "cli")
        }
        for table, make in ((TIMED, self._timed), (COUNTED, self._counted)):
            for name, (mod, path) in table.items():
                owner = modules[mod]
                *cls_path, attr = path.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                wrapper = make(name, original)
                if cls_path:
                    setattr(owner, attr, wrapper)
                    continue
                for module in modules.values():
                    _rebind(module, original, wrapper)

    def run_root(self, fn, *args):
        """Call fn as the command's root span."""
        return self._timed(ROOT, fn)(*args)

    def export(self):
        return {"spans": self.spans,
                "counts": {k: v[0] for k, v in self._cells.items()}}


def _rebind(module, original, wrapper):
    for key, value in list(vars(module).items()):
        if value is original:
            setattr(module, key, wrapper)
        elif isinstance(value, dict) and not key.startswith("__"):
            for k, v in list(value.items()):
                if v is original:
                    value[k] = wrapper


def summarize(spans):
    """Per-span-name totals of one command, {name: [calls, self_s]}, and
    the number of Lattice builds inside an invariants.chief_series span."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = {}
    in_chief = [False] * len(spans)
    for i, (name, start, end, parent) in enumerate(spans):
        entry = totals.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - child_time[i]
        if parent >= 0:
            in_chief[i] = in_chief[parent] or spans[parent][0] == "invariants.chief_series"
    quotient_lattices = sum(
        1 for i, s in enumerate(spans) if in_chief[i] and s[0] == "lattice.Lattice"
    )
    return totals, quotient_lattices
