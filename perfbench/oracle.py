"""Independent references for every benchmark job, and the checks that compare
a job's output with them.

Nothing here imports posheaf.  Exact references come from the planted facts
of each document, from chain enumeration of the benchmark's own order
closure, and from fraction-free Bareiss ranks; real references come from
numpy (``eigvalsh``, dense products) on Laplacians the benchmark assembles
from the document text itself.
"""

from __future__ import annotations

import json
import math

import numpy as np

from gen import FP, PRIME

SPECTRUM_RTOL = 1e-8
NSD_ATOL = 1e-9
LEARN_RATIO = 1e-4


# ---------------------------------------------------------------------------
# Exact references.
# ---------------------------------------------------------------------------

def bareiss_rank(rows: list[list[int]]) -> int:
    """Rank over Q of an integer matrix by fraction-free Bareiss elimination."""
    m = [list(row) for row in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank, prev = 0, 1
    for c in range(ncols):
        pivot = next((i for i in range(rank, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = (m[i][j] * m[rank][c] - m[i][c] * m[rank][j]) // prev
            m[i][c] = 0
        prev = m[rank][c]
        rank += 1
        if rank == nrows:
            break
    return rank


def strict_up(elements: list[str], covers: list[list[str]]) -> dict[str, set[str]]:
    """Order closure: up[a] is every b with a < b."""
    succ = {e: set() for e in elements}
    for a, b in covers:
        succ[a].add(b)
    up: dict[str, set[str]] = {}

    def visit(a: str) -> set[str]:
        if a not in up:
            acc: set[str] = set()
            for b in succ[a]:
                acc |= {b} | visit(b)
            up[a] = acc
        return up[a]

    for e in elements:
        visit(e)
    return up


def chains(elements: list[str], up: dict[str, set[str]]) -> list[tuple[str, ...]]:
    """Every nonempty chain of the poset on ``elements``."""
    out: list[tuple[str, ...]] = []

    def extend(chain: tuple[str, ...]):
        out.append(chain)
        for t in elements:
            if t in up[chain[-1]]:
                extend(chain + (t,))

    for s in elements:
        extend((s,))
    return out


def order_complex_betti(elements: list[str], up: dict[str, set[str]],
                        reduced: bool) -> list[int]:
    """Rational Betti numbers of the order complex, from degree 0 (or from
    degree -1 when ``reduced``, which adds the augmentation)."""
    by_dim: dict[int, list[tuple[str, ...]]] = {}
    for chain in chains(elements, up):
        by_dim.setdefault(len(chain) - 1, []).append(chain)
    top = max(by_dim, default=-1)
    counts = {d: len(by_dim.get(d, [])) for d in range(top + 1)}
    ranks = {}
    for d in range(top + 1):
        cols = by_dim[d]
        if d == 0:
            ranks[0] = 1 if (reduced and cols) else 0
            continue
        row_index = {c: i for i, c in enumerate(by_dim[d - 1])}
        mat = [[0] * len(cols) for _ in row_index]
        for j, chain in enumerate(cols):
            for i in range(len(chain)):
                mat[row_index[chain[:i] + chain[i + 1:]]][j] = -1 if i % 2 else 1
        ranks[d] = bareiss_rank(mat)
    betti = [counts[d] - ranks[d] - ranks.get(d + 1, 0) for d in range(top + 1)]
    if reduced:
        return [1 - ranks.get(0, 0)] + betti
    return betti


def _rank2(m, fld: str) -> int:
    (a, b), (c, d) = m
    if fld == FP:
        a, b, c, d = (x % PRIME for x in (a, b, c, d))
        det = (a * d - b * c) % PRIME
    else:
        det = a * d - b * c
    if det:
        return 2
    return 1 if any((a, b, c, d)) else 0


def strip(vec: list[int]) -> list[int]:
    out = list(vec)
    while out and out[-1] == 0:
        out.pop()
    return out


def exact_reference(doc) -> dict:
    """Betti vector, grading and per-element incidence degrees of an exact
    document, from its planted facts and the benchmark's own enumeration."""
    facts = doc.facts
    data = json.loads(doc.text)
    ref: dict = {}
    if facts["family"] == "cycle":
        (a, b), (c, d) = facts["monodromy"]
        k = 2 - _rank2(((a - 1, b), (c, d - 1)), facts["field"])
        ref["betti"] = [k, k]
    elif facts["family"] == "simplex":
        ref["betti"] = [1, 0, math.comb(facts["k"] - 1, 3)]
    elements, covers = data["elements"], data["covers"]
    up = strict_up(elements, covers)
    if facts["family"] == "dag":
        base = order_complex_betti(elements, up, reduced=False)
        ref["betti"] = [facts["multiplicity"] * b for b in base]
    if facts["family"] in ("dag", "simplex"):
        down = {e: [t for t in elements if e in up[t]] for e in elements}
        spheres, degrees = {}, {}
        for e in elements:
            sub_up = {t: up[t] & set(down[e]) for t in down[e]}
            reduced = order_complex_betti(down[e], sub_up, reduced=True)
            degrees[e] = sorted(j for j, b in enumerate(reduced) for _ in range(b))
            nonzero = [(j, b) for j, b in enumerate(reduced) if b]
            spheres[e] = nonzero[0][0] if len(nonzero) == 1 and nonzero[0][1] == 1 else None
        ref["incidence_degrees"] = degrees
        ref["cell_dims"] = spheres
        lower = {e: [a for a, b in covers if b == e] for e in elements}
        lengths: dict[str, set[int]] = {}

        def depth(x: str) -> set[int]:
            if x not in lengths:
                lengths[x] = ({0} if not lower[x]
                              else {l + 1 for a in lower[x] for l in depth(a)})
            return lengths[x]

        for e in elements:
            depth(e)
        graded = all(len(v) == 1 for v in lengths.values())
        ref["rank"] = {e: min(lengths[e]) for e in elements} if graded else None
    return ref


# ---------------------------------------------------------------------------
# Real references.
# ---------------------------------------------------------------------------

def graph_coboundary(text: str) -> np.ndarray:
    """Vertex-to-edge coboundary of a graph document over R (vertices in
    declaration order, two rows per edge)."""
    data = json.loads(text)
    elements, covers, stalks = data["elements"], data["covers"], data["stalks"]
    tops = {b for _, b in covers}
    vertices = [e for e in elements if e not in tops]
    col, total = {}, 0
    for v in vertices:
        col[v] = total
        total += stalks[v]
    ends: dict[str, list[str]] = {}
    for a, b in covers:
        ends.setdefault(b, []).append(a)
    edges = [e for e in elements if e in tops]
    d0 = np.zeros((sum(stalks[e] for e in edges), total))
    r = 0
    for e in edges:
        de = stalks[e]
        for sign, v in zip((1.0, -1.0), ends[e]):
            dv = stalks[v]
            block = np.array([float(x) for x in data["maps"][f"{v}<{e}"]]).reshape(de, dv)
            d0[r:r + de, col[v]:col[v] + dv] += sign * block
        r += de
    return d0


def normalized_laplacian(d0: np.ndarray, norm: str, block: int = 2) -> np.ndarray:
    lap = d0.T @ d0
    lap = 0.5 * (lap + lap.T)
    if norm == "weak":
        diag = np.diag(lap)
        k = np.array([1.0 / x if x != 0.0 else 1.0 for x in diag])
        lap = lap * np.sqrt(np.outer(k, k))
    elif norm == "strong":
        scale = np.zeros_like(lap)
        for off in range(0, lap.shape[0], block):
            lam, vec = np.linalg.eigh(lap[off:off + block, off:off + block])
            top = max(float(lam[-1]), 0.0)
            s = np.array([1.0 / x if x > max(1e-12, 1e-12 * top) else 1.0 for x in lam])
            scale[off:off + block, off:off + block] = (vec * np.sqrt(s)) @ vec.T
        lap = scale @ lap @ scale
    return 0.5 * (lap + lap.T)


def graph_reference(doc) -> dict:
    d0 = graph_coboundary(doc.text)
    ref = {"b0": doc.facts["b0"], "laplacian": {}, "eigenvalues": {}}
    for norm in ("none", "weak", "strong"):
        lap = normalized_laplacian(d0, norm)
        ref["laplacian"][norm] = lap
        ref["eigenvalues"][norm] = np.linalg.eigvalsh(lap)
    return ref


def sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-z))


def nsd_reference(sheaf_text: str, params_text: str) -> np.ndarray:
    """sigma((I - 2 eta L) (I_n kron W1) X W2), eta = 1/(2 lambda_max) when
    the parameters omit it."""
    params = json.loads(params_text)
    lap = normalized_laplacian(graph_coboundary(sheaf_text), params.get("norm", "weak"))
    eta = params.get("eta")
    if eta is None:
        lam_max = float(np.linalg.eigvalsh(lap)[-1])
        eta = 0.5 / lam_max if lam_max > 0 else 0.5
    x = np.array(params["X"], dtype=float)
    w1 = np.array(params["W1"], dtype=float)
    d = w1.shape[0]
    mixed = np.vstack([w1 @ x[i:i + d] for i in range(0, x.shape[0], d)])
    op = np.eye(lap.shape[0]) - 2.0 * eta * lap
    return sigmoid(op @ mixed @ np.array(params["W2"], dtype=float))


def references(docs, jobs) -> dict:
    """Reference data per document name (and per NSD job), computed once."""
    by_name = {d.name: d for d in docs}
    refs: dict = {}
    for d in docs:
        family = d.facts.get("family")
        if family in ("cycle", "simplex", "dag"):
            refs[d.name] = exact_reference(d)
        elif family == "graph":
            refs[d.name] = graph_reference(d)
    for j in jobs:
        if j.kind == "nsd-forward":
            refs[tuple(j.files)] = nsd_reference(by_name[j.files[0]].text,
                                                 by_name[j.files[1]].text)
    return refs


# ---------------------------------------------------------------------------
# Checks.  Each returns None when the output agrees, else a short reason.
# ---------------------------------------------------------------------------

def _close(a, b, tol: float) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol))


def _check_betti(got: list[int], ref: dict) -> str | None:
    if strip(got) != strip(ref["betti"]):
        return f"betti {got} != reference {ref['betti']}"
    return None


def _check_incidence(report: dict, ref: dict) -> str | None:
    inc = report["incidence"]
    degrees: dict[str, list[int]] = {e: [] for e in ref["incidence_degrees"]}
    for g in inc["generators"]:
        degrees[g["owner"]].append(g["degree"])
    for e, want in ref["incidence_degrees"].items():
        if sorted(degrees[e]) != want:
            return f"incidence degrees at {e}: {sorted(degrees[e])} != {want}"
    size = len(inc["generators"]) + 1
    if len(inc["labels"]) != size or len(inc["matrix"]) != size:
        return "incidence matrix shape disagrees with the generator count"
    return None


def _check_classify(report: dict, ref: dict) -> str | None:
    got = report["classification"]
    if got["graded"] != (ref["rank"] is not None) or got["rank"] != ref["rank"]:
        return "grading disagrees with the reference"
    spheres = ref["cell_dims"]
    morse = all(v is not None for v in spheres.values())
    want_dims = dict(spheres) if morse else None
    if got["morse_cell"] != morse or got["cell_dims"] != want_dims:
        return "cell dimensions disagree with the reference"
    cell = morse and ref["rank"] is not None and all(
        want_dims[e] == ref["rank"][e] for e in spheres)
    if got["homology_cell"] != cell:
        return "homology_cell disagrees with the reference"
    return None


def _check_spectrum(report: dict, ref: dict, norm: str) -> str | None:
    spec = report["spectrum"]
    want = ref["eigenvalues"][norm]
    tol = SPECTRUM_RTOL * float(want[-1])
    if not _close(spec["eigenvalues"], want, tol):
        return f"{norm} eigenvalues differ from eigvalsh beyond {tol:.3g}"
    if spec["harmonic_dim"] != ref["b0"]:
        return f"harmonic_dim {spec['harmonic_dim']} != planted b0 {ref['b0']}"
    return None


def _check_diffuse(report: dict, ref: dict) -> str | None:
    trace = report["trace"]
    lap = ref["laplacian"]["none"]
    lam = ref["eigenvalues"]["none"]
    x0 = np.ones(lap.shape[0])
    scale = max(float(lam[-1]), 1.0)
    if abs(trace["energies_first"] - float(x0 @ lap @ x0)) > SPECTRUM_RTOL * scale * x0.size:
        return "initial energy differs from the reference Laplacian"
    if abs(trace["eta"] - 0.5 / float(lam[-1])) > SPECTRUM_RTOL * trace["eta"]:
        return "default step size differs from 1/(2 lambda_max)"
    values, vectors = np.linalg.eigh(lap)
    kernel = vectors[:, values < SPECTRUM_RTOL * float(values[-1])]
    if kernel.shape[1] != ref["b0"]:
        return "reference kernel dimension differs from the planted b0"
    if not _close(trace["limit"], kernel @ (kernel.T @ x0), SPECTRUM_RTOL * x0.size):
        return "diffusion limit is not the harmonic projection of x0"
    if trace["energies_last"] > trace["energies_first"] or (
            trace["distance_last"] > trace["distance_first"]):
        return "diffusion increased energy or distance"
    return None


def _check_learn(report: dict) -> str | None:
    history = report["learn"]["loss_history"]
    if not history or history[0] <= 0:
        return "empty or zero initial loss"
    if any(b > a for a, b in zip(history, history[1:])):
        return "loss history increases"
    if history[-1] > LEARN_RATIO * history[0]:
        return f"final loss {history[-1]:.3g} above {LEARN_RATIO} x initial {history[0]:.3g}"
    return None


def check(job, rc: int, out: str, refs: dict) -> str | None:
    """Compare one job's exit code and stdout with the references."""
    if rc != 0:
        return f"exit code {rc}"
    if not out.endswith("\n") or out.count("\n") != 1:
        return "stdout is not exactly one line"
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        return "stdout is not JSON"
    if not isinstance(report, dict):
        return "stdout is not a JSON object"
    ref = refs.get(job.doc)
    try:
        if job.kind in ("betti", "cohomology"):
            return _check_betti(report["betti"], ref)
        if job.kind == "sections":
            if report["sections"]["dim"] != ref["betti"][0]:
                return f"sections dim {report['sections']['dim']} != b0 {ref['betti'][0]}"
            if len(report["sections"]["basis"]) != ref["betti"][0]:
                return "section basis size differs from b0"
            return None
        if job.kind == "validate":
            if report["ok"] is not True or report["violations"]:
                return "compositional sheaf reported as violating"
            return None
        if job.kind == "classify":
            return _check_classify(report, ref)
        if job.kind == "incidence":
            return _check_incidence(report, ref)
        if job.kind == "spectrum":
            return _check_spectrum(report, ref, job.argv[job.argv.index("--norm") + 1])
        if job.kind == "diffuse":
            return _check_diffuse(report, ref)
        if job.kind == "nsd-forward":
            if not _close(report["output"], refs[tuple(job.files)], NSD_ATOL):
                return f"NSD output differs from the numpy forward pass beyond {NSD_ATOL}"
            return None
        if job.kind == "learn":
            return _check_learn(report)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        return f"malformed report: {exc!r}"
    return f"no check for job kind {job.kind!r}"

