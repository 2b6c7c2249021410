"""Span tracing of revsym's layers from outside the package.

`install` wraps selected public functions of each layer and rebinds every
name under which revsym modules refer to them (for example
`revsym.matgroup.mat_det`, the name matgroup imported from exactmath), so
calls made inside the package are traced without changing its source.

Each call records a span (name, start, end, parent span, op id) in flat
arrays kept in memory; `Recorder.write` stores them once at the end.  A
span's self time is its duration minus the time covered by its traced
children.

Run as a script, this module executes the revsym command line with tracing
installed and prints the layer summary as the last line of stderr:

    python3 bench/tracing.py analyze --format json -- "1 1; 1 2"
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute) of every traced function; a dotted attribute names a
# method.  The criteria are reached through verify.ALL_CRITERIA.
TRACED = (
    ("exactmath", "mat_det"),
    ("exactmath", "mat_mul"),
    ("exactmath", "mat_inverse_unimodular"),
    ("exactmath", "finite_order_test"),
    ("exactmath", "char_poly"),
    ("matgroup", "intertwiner_lattice"),
    ("matgroup", "search_reversors"),
    ("matgroup", "symmetry_generator_2x2"),
    ("matgroup", "analyze"),
    ("absgroup", "multiply"),
    ("absgroup", "verify_theorem_claims"),
    ("polyauto", "MultiPoly.substitute"),
    ("polyauto", "compose"),
    ("elliptic", "add"),
    ("numth", "square_roots_of_unity"),
) + tuple(("verify", f"criterion_{k}") for k in range(1, 10))

SPAN_FIELDS = (("name", "i"), ("start", "d"), ("end", "d"),
               ("parent", "i"), ("op", "i"))


class Recorder:
    def __init__(self):
        self.names = []
        self.spans = {field: array(code) for field, code in SPAN_FIELDS}
        self.stack = []         # [span index, time covered by children]
        self.op = -1
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counters = Counter()
        self.maxima = Counter()

    def span_count(self):
        return len(self.spans["name"])

    def wrap(self, name, fn, observe=None):
        nid = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self.stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            idx = len(spans["name"])
            frame = [idx, 0.0]
            spans["name"].append(nid)
            spans["parent"].append(parent[0] if parent else -1)
            spans["op"].append(self.op)
            spans["end"].append(0.0)
            stack.append(frame)
            start = perf_counter()
            spans["start"].append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans["end"][idx] = end
                dur = end - start
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - frame[1]
                if parent:
                    parent[1] += dur
            if observe:
                observe(self, result, parent)
            return result

        traced.__wrapped__ = fn
        return traced

    def parent_name(self, parent):
        return self.names[self.spans["name"][parent[0]]] if parent else None

    def summary(self):
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "total_s": dict(self.total_s),
                "counters": dict(self.counters), "maxima": dict(self.maxima)}

    def write(self, path):
        """Store the spans: `path`.json holds the names and the field
        layout, `path`.bin the arrays one after another."""
        with open(f"{path}.bin", "wb") as fh:
            for field, _ in SPAN_FIELDS:
                self.spans[field].tofile(fh)
        with open(f"{path}.json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "count": self.span_count(),
                       "fields": SPAN_FIELDS}, fh)


def read_spans(path):
    """Inverse of Recorder.write: (names, {field: array})."""
    with open(f"{path}.json", encoding="utf-8") as fh:
        head = json.load(fh)
    spans = {}
    with open(f"{path}.bin", "rb") as fh:
        for field, code in head["fields"]:
            spans[field] = array(code)
            spans[field].fromfile(fh, head["count"])
    return head["names"], spans


def _observe_det(rec, value, parent):
    # mat_det called directly by search_reversors: one unimodular candidate
    # (plus the input's own unimodularity check)
    if rec.parent_name(parent) == "matgroup.search_reversors":
        rec.counters["candidates"] += 1
        if value in (1, -1):
            rec.counters["unimodular_hits"] += 1


def _observe_lattice(rec, basis, parent):
    rec.maxima["lattice_rank"] = max(rec.maxima["lattice_rank"], len(basis))
    entry = max((abs(v) for b in basis for row in b.rows for v in row),
                default=0)
    rec.maxima["lattice_entry"] = max(rec.maxima["lattice_entry"], entry)


def _observe_search(rec, found, parent):
    rec.counters["reversors"] += len(found)


OBSERVERS = {
    "exactmath.mat_det": _observe_det,
    "matgroup.intertwiner_lattice": _observe_lattice,
    "matgroup.search_reversors": _observe_search,
}


def install(rec: Recorder):
    """Wrap every function in TRACED and rebind all references to it inside
    revsym.  Returns a function that restores the originals."""
    from revsym import verify

    modules = [m for name, m in sys.modules.items()
               if name == "revsym" or name.startswith("revsym.")]
    undo = []
    for module_name, attr in TRACED:
        module = sys.modules[f"revsym.{module_name}"]
        owner = module
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(module, cls_name)
            name = f"{module_name}.{cls_name}.{attr}"
        else:
            name = f"{module_name}.{attr}"
        if module_name == "verify":
            attr = next(a for a in vars(verify) if a.startswith(attr + "_"))
        original = getattr(owner, attr)
        traced = rec.wrap(name, original, OBSERVERS.get(name))
        targets = [owner] if owner is not module else modules
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    undo.append((target, key, value))
                    setattr(target, key, traced)
                elif (isinstance(value, tuple) and original in value
                      and target is verify):
                    undo.append((target, key, value))
                    setattr(target, key, tuple(traced if v is original else v
                                                for v in value))

    def restore():
        for target, key, value in reversed(undo):
            setattr(target, key, value)
    return restore


def main(argv):
    from revsym import cli

    rec = Recorder()
    install(rec)
    code = cli.main(argv)
    sys.stdout.flush()
    print("bench-trace " + json.dumps(rec.summary()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
