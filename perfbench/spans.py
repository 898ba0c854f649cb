"""Spans and counts around posheaf's public functions, for the traced run.

``Tracer.install`` replaces each traced function, in every loaded posheaf
module that refers to it, by a wrapper that records a span (name, start, end,
parent span, job) and the counts named below; ``Tracer.uninstall`` puts the
originals back.  Wrappers never change arguments or results, so traced job
outputs stay byte-identical.  Spans are kept in memory and written out once,
at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import Counter


def _nnz(rows) -> int:
    return sum(1 for row in rows for v in row if v)


def _count_chains(c: Counter, args, result):
    c["poset.chains"] += sum(len(group) for group in result)


def _count_generators(c: Counter, args, result):
    c["cochain.generators"] += len(result.generators)


def _count_complex(c: Counter, args, result):
    c["cochain.cells"] += sum(len(tags) for tags in result.degrees)
    c["cochain.diff_nnz"] += sum(_nnz(m.data) for m in result.diffs)


def _count_rref(c: Counter, args, result):
    m = args[0]
    c["linalg.rref_calls"] += 1
    c["linalg.rref_entries"] += m.rows * m.cols
    c["linalg.rref_nnz"] += _nnz(m.data)


def _count_eig(c: Counter, args, result):
    c["spectral.eig_calls"] += 1
    c["spectral.eig_order_sum"] += len(result[0]) if isinstance(result, tuple) \
        else len(result.eigenvalues)


def _count_coboundary(c: Counter, args, result):
    c["nsd.coboundary_calls"] += 1


def _count_learn(c: Counter, args, result):
    c["nsd.learn_steps"] += len(result.loss_history) - 1


def _count_fd(c: Counter, args, result):
    c["nsd.fd_gradient_calls"] += 1


# (module, public function, span name or None for a count-only wrapper, counter)
TARGETS = (
    ("io", "parse_sheaf", "io.parse", None),
    ("io", "parse_document", "io.parse", None),
    ("io", "canonical_json", "io.emit", None),
    ("poset", "build_poset", "poset.build", None),
    ("poset", "order_complex", "poset.order_complex", _count_chains),
    ("poset", "classify", "poset.classify", None),
    ("sheaf", "build_sheaf", "sheaf.build", None),
    ("sheaf", "check_compositionality", "sheaf.validate", None),
    ("sheaf", "global_sections_bruteforce", "sheaf.sections", None),
    ("cochain", "minimal_incidence", "cochain.incidence", _count_generators),
    ("cochain", "roos_complex", "cochain.assemble", _count_complex),
    ("cochain", "cellular_complex", "cochain.assemble", _count_complex),
    ("cochain", "minimal_complex", "cochain.assemble", _count_complex),
    ("cochain", "cohomology", "cochain.cohomology", None),
    ("linalg", "rref", "linalg.rref", _count_rref),
    ("linalg", "homology_basis", "linalg.homology_basis", None),
    ("spectral", "real_sheaf_complex", "spectral.real_complex", None),
    ("spectral", "laplacian", "spectral.laplacian", None),
    ("spectral", "eigendecompose", "spectral.eig", _count_eig),
    ("spectral", "jacobi_eigh", "spectral.eig", _count_eig),
    ("spectral", "heat_diffusion", "spectral.diffusion", None),
    ("nsd", "nsd_forward", "nsd.forward", None),
    ("nsd", "sheaf_diffusion_op", "nsd.diffusion_op", None),
    ("nsd", "learn_sheaf", "nsd.learn", _count_learn),
    ("nsd", "graph_coboundary", "nsd.coboundary", _count_coboundary),
    ("nsd", "finite_difference_gradient", None, _count_fd),
)

# Per-layer metric -> (span name, "total" for the time of outermost spans or
# "self" for span time minus the time covered by child spans).
TIMES = {
    "cli.self_s": ("cli", "self"),
    "io.parse_s": ("io.parse", "self"),
    "io.emit_s": ("io.emit", "self"),
    "poset.build_s": ("poset.build", "total"),
    "poset.order_complex_s": ("poset.order_complex", "total"),
    "poset.classify_s": ("poset.classify", "total"),
    "sheaf.build_s": ("sheaf.build", "total"),
    "sheaf.validate_s": ("sheaf.validate", "total"),
    "sheaf.sections_s": ("sheaf.sections", "total"),
    "cochain.incidence_s": ("cochain.incidence", "total"),
    "cochain.assemble_s": ("cochain.assemble", "total"),
    "cochain.cohomology_self_s": ("cochain.cohomology", "self"),
    "linalg.rref_s": ("linalg.rref", "total"),
    "linalg.homology_basis_s": ("linalg.homology_basis", "total"),
    "spectral.real_complex_s": ("spectral.real_complex", "total"),
    "spectral.laplacian_s": ("spectral.laplacian", "total"),
    "spectral.eig_s": ("spectral.eig", "total"),
    "spectral.diffusion_self_s": ("spectral.diffusion", "self"),
    "nsd.forward_self_s": ("nsd.forward", "self"),
    "nsd.diffusion_op_self_s": ("nsd.diffusion_op", "self"),
    "nsd.learn_self_s": ("nsd.learn", "self"),
    "nsd.coboundary_s": ("nsd.coboundary", "total"),
}
COUNTS = (
    "poset.chains", "cochain.generators", "cochain.cells", "cochain.diff_nnz",
    "linalg.rref_calls", "linalg.rref_entries", "spectral.eig_calls",
    "spectral.eig_order_sum", "nsd.coboundary_calls", "nsd.fd_gradient_calls",
    "nsd.learn_steps",
)


class Tracer:
    """In-memory span recorder for one traced pass.

    Time spent in the counters is kept out of every span's duration, so a
    span's time covers the traced call and the tracer's own bookkeeping only.
    """

    def __init__(self):
        self.reset()
        self._patched: list[tuple[object, str, object]] = []

    def reset(self):
        # spans: [name, start, end, parent index, job]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self._stack: list[list] = []  # [span index, child time, counter time]
        self._open: Counter = Counter()
        self.job = -1

    def _enter(self, name: str) -> tuple[int, bool, float]:
        outermost = self._open[name] == 0
        self._open[name] += 1
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self._stack.append([index, 0.0, 0.0])
        start = time.perf_counter()
        self.spans.append([name, start, 0.0, parent, self.job])
        return index, outermost, start

    def _exit(self, name: str, index: int, outermost: bool, start: float):
        end = time.perf_counter()
        _, child, counting = self._stack.pop()
        self._open[name] -= 1
        self.spans[index][2] = end
        duration = end - start - counting
        self.self_time[name] += duration - child
        if outermost:
            self.total[name] += duration
        if self._stack:
            self._stack[-1][1] += duration
            self._stack[-1][2] += counting

    def _count(self, counter, args, result):
        start = time.perf_counter()
        counter(self.counts, args, result)
        if self._stack:
            self._stack[-1][2] += time.perf_counter() - start

    @contextlib.contextmanager
    def span(self, name: str, job: int):
        """A span opened by the benchmark itself, around one job."""
        self.job = job
        state = self._enter(name)
        try:
            yield
        finally:
            self._exit(name, *state)

    def _wrap(self, fn, name, counter):
        tracer = self
        if name is None:
            @functools.wraps(fn)
            def count_only(*args, **kwargs):
                result = fn(*args, **kwargs)
                tracer._count(counter, args, result)
                return result
            return count_only

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, *state)
            if counter is not None and state[1]:
                tracer._count(counter, args, result)
            return result
        return traced

    def install(self):
        """Wrap every target wherever a loaded posheaf module refers to it."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "posheaf" or k.startswith("posheaf."))]
        for module_name, fn_name, name, counter in TARGETS:
            original = getattr(importlib.import_module(f"posheaf.{module_name}"), fn_name)
            wrapper = self._wrap(original, name, counter)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, attr, original))
                        setattr(m, attr, wrapper)

    def uninstall(self):
        while self._patched:
            m, attr, original = self._patched.pop()
            setattr(m, attr, original)

    def metrics(self) -> dict[str, float]:
        """Per-layer times and counts of the spans recorded since reset."""
        out: dict[str, float] = {}
        for metric, (name, kind) in TIMES.items():
            out[metric] = (self.total if kind == "total" else self.self_time)[name]
        for name in COUNTS:
            out[name] = self.counts[name]
        entries = self.counts["linalg.rref_entries"]
        out["linalg.rref_density"] = self.counts["linalg.rref_nnz"] / entries if entries else 0.0
        return out

    def write(self, path, meta: dict):
        """Write the recorded spans, with times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[name, round(s - t0, 9), round(e - t0, 9), parent, job]
                for name, s, e, parent, job in self.spans]
        doc = dict(meta, fields=["name", "start_s", "end_s", "parent", "job"], spans=rows)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
