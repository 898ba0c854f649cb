"""Seeded sheaf documents and job lists for the three benchmark workloads.

Everything here is the benchmark's own code: documents are written as
canonical JSON text without calling posheaf, and every document carries the
planted facts (monodromy, multiplicity, gauge kind) that the independent
references in ``oracle.py`` start from.  The same workload and seed always
give the same document texts.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

PRIME = 2**31 - 1
FP = f"Fp:{PRIME}"
WORKLOADS = ("exact-ladder", "exact-many", "real-graph")

CYCLE_SIZES = (40, 80, 160)
SIMPLEX_SIZES = (6, 8, 10)
ROOS_SIMPLEX_MAX = 8
MANY_POSETS = 200
MANY_MAX_ELEMENTS = 9
MANY_CHAIN_CAP = 60
GRAPH_SIZES = (10, 20, 30)
LEARN_SIZES = (6, 7, 8)
LEARN_SIGNALS = 6
NSD_CHANNELS = 3
NSD_ETA = 0.05

# Planted monodromy of each twisted cycle; b0 = b1 = dim ker(M - I) is 2, 1
# and 0 down the ladder.  It is fixed per size so that every seed asks for
# the same elimination work up to the random gauge.
MONODROMIES = {
    40: ((1, 0), (0, 1)),
    80: ((1, 1), (0, 1)),
    160: ((2, 1), (1, 1)),
}
GAUGE_POOL = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
              Fraction(1, 2), Fraction(-1, 2), Fraction(3))


@dataclass
class Doc:
    """One input file: its name in the work directory, its text, and the
    planted facts the references start from."""

    name: str
    text: str
    facts: dict = field(default_factory=dict)


@dataclass
class Job:
    """One unit of work: a CLI subcommand (``argv`` with document names in
    place of paths) or the library job ``cohomology``."""

    kind: str
    doc: str
    argv: list[str]
    files: list[str]


def dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":")) + "\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Scalars and small integer matrices.
# ---------------------------------------------------------------------------

def _scalar(value, fld: str) -> str:
    if fld == FP:
        value = Fraction(value)
        return str(value.numerator * pow(value.denominator, -1, PRIME) % PRIME)
    return str(Fraction(value))


def _matmul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def _unimodular2(rng: random.Random):
    """Random 2x2 integer matrix of determinant 1 and its integer inverse."""
    g = ((1, 0), (0, 1))
    for _ in range(2):
        a = rng.choice((-2, -1, 1, 2))
        step = ((1, a), (0, 1)) if rng.random() < 0.5 else ((1, 0), (a, 1))
        g = _matmul(g, step)
    if rng.random() < 0.5:
        g = tuple(tuple(-x for x in row) for row in g)
    (p, q), (r, s) = g
    return g, ((s, -q), (-r, p))


def _entries(m, fld: str) -> list[str]:
    return [_scalar(x, fld) for row in m for x in row]


def _sheaf_text(fld: str, elements: list[str], covers: list[tuple[str, str]],
                stalks: dict[str, int], maps: dict[str, list[str]]) -> str:
    index = {e: i for i, e in enumerate(elements)}
    covers = sorted(covers, key=lambda ab: (index[ab[0]], index[ab[1]]))
    return dumps({
        "field": fld,
        "elements": elements,
        "covers": [[a, b] for a, b in covers],
        "stalks": {e: stalks[e] for e in elements},
        "maps": {key: maps[key] for key in sorted(maps)},
    })


# ---------------------------------------------------------------------------
# exact-ladder: twisted cycles over Q and F_p, gauge sheaves on simplices.
# ---------------------------------------------------------------------------

def twisted_cycle(n: int, fld: str, rng: random.Random, monodromy) -> str:
    """C_n with 2-dim stalks and maps g_e T g_v^-1, T = I except the planted
    monodromy on v0 < e{n-1}; gauge-equivalent to a cycle twisted by M."""
    vertices = [f"v{i}" for i in range(n)]
    edges = [f"e{i}" for i in range(n)]
    gauge = {e: _unimodular2(rng) for e in vertices + edges}
    covers, maps = [], {}
    for i in range(n):
        for v in (vertices[i], vertices[(i + 1) % n]):
            e = edges[i]
            twist = monodromy if (v, e) == ("v0", f"e{n - 1}") else ((1, 0), (0, 1))
            m = _matmul(_matmul(gauge[e][0], twist), gauge[v][1])
            covers.append((v, e))
            maps[f"{v}<{e}"] = _entries(m, fld)
    stalks = {e: 2 for e in vertices + edges}
    return _sheaf_text(fld, vertices + edges, covers, stalks, maps)


def simplex_skeleton(k: int, rng: random.Random) -> str:
    """2-skeleton of the simplex on k vertices over Q, rank-1 gauge sheaf
    D(a<b) = u_b / u_a.  Element names are sorted comma-joined vertex names."""
    names = [chr(ord("a") + i) for i in range(k)]
    simplices = [c for r in (1, 2, 3) for c in itertools.combinations(names, r)]
    elements = [",".join(s) for s in simplices]
    units = {e: rng.choice(GAUGE_POOL) for e in elements}
    covers, maps = [], {}
    for s in simplices:
        if len(s) == 1:
            continue
        top = ",".join(s)
        for i in range(len(s)):
            face = ",".join(s[:i] + s[i + 1:])
            covers.append((face, top))
            maps[f"{face}<{top}"] = [_scalar(units[top] / units[face], "Q")]
    return _sheaf_text("Q", elements, covers, {e: 1 for e in elements}, maps)


def exact_ladder(rng: random.Random) -> tuple[list[Doc], list[Job]]:
    docs, jobs = [], []
    for n in CYCLE_SIZES:
        m = MONODROMIES[n]
        gauge_seed = f"{n}:{rng.random()}"
        for fld, tag in (("Q", "q"), (FP, "fp")):
            name = f"cycle{n}_{tag}.json"
            text = twisted_cycle(n, fld, random.Random(gauge_seed), m)
            docs.append(Doc(name, text, {"family": "cycle", "n": n, "field": fld,
                                         "monodromy": m}))
    for k in SIMPLEX_SIZES:
        name = f"simplex{k}.json"
        docs.append(Doc(name, simplex_skeleton(k, rng),
                        {"family": "simplex", "k": k, "field": "Q"}))
    for d in docs:
        jobs.append(Job("betti", d.name, ["betti", d.name, "--method", "minimal"],
                        [d.name]))
        if d.facts["family"] == "simplex":
            jobs.append(Job("betti", d.name, ["betti", d.name, "--method", "cellular"],
                            [d.name]))
        if d.facts["family"] == "cycle" or d.facts["k"] <= ROOS_SIMPLEX_MAX:
            jobs.append(Job("betti", d.name, ["betti", d.name, "--method", "roos"],
                            [d.name]))
        if d.facts["family"] == "simplex":
            jobs.append(Job("incidence", d.name, ["incidence", d.name], [d.name]))
        jobs.append(Job("cohomology", d.name, [d.name], [d.name]))
    return docs, jobs


# ---------------------------------------------------------------------------
# exact-many: small random DAG posets with sums of gauge-twisted constants.
# ---------------------------------------------------------------------------

def random_dag(rng: random.Random) -> tuple[list[str], list[tuple[str, str]]]:
    """Random poset (elements, Hasse covers) with at most MANY_CHAIN_CAP chains."""
    while True:
        n = rng.randint(3, MANY_MAX_ELEMENTS)
        up = [set() for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    up[i].add(j)
        for i in reversed(range(n)):
            for j in list(up[i]):
                up[i] |= up[j]
        ending = [0] * n
        for j in range(n):
            ending[j] = 1 + sum(ending[i] for i in range(j) if j in up[i])
        if sum(ending) > MANY_CHAIN_CAP:
            continue
        names = [f"x{i}" for i in range(n)]
        covers = [
            (names[i], names[j])
            for i in range(n) for j in sorted(up[i])
            if not any(j in up[k] for k in up[i] if k != j)
        ]
        return names, covers


def gauge_sum(elements, covers, fld: str, rng: random.Random) -> tuple[str, int]:
    """Direct sum of 1-3 rank-1 gauge-twisted constant sheaves; returns the
    document text and the number of summands."""
    pieces = rng.randint(1, 3)
    units = [{e: rng.choice(GAUGE_POOL) for e in elements} for _ in range(pieces)]
    maps = {}
    for a, b in covers:
        diag = [units[k][b] / units[k][a] for k in range(pieces)]
        maps[f"{a}<{b}"] = [
            _scalar(diag[i] if i == j else 0, fld)
            for i in range(pieces) for j in range(pieces)
        ]
    stalks = {e: pieces for e in elements}
    return _sheaf_text(fld, elements, covers, stalks, maps), pieces


def exact_many(rng: random.Random) -> tuple[list[Doc], list[Job]]:
    docs, jobs = [], []
    for i in range(MANY_POSETS):
        fld = "Q" if i % 2 == 0 else FP
        elements, covers = random_dag(rng)
        text, pieces = gauge_sum(elements, covers, fld, rng)
        name = f"dag{i:03d}.json"
        docs.append(Doc(name, text, {"family": "dag", "field": fld,
                                     "multiplicity": pieces}))
        for argv, kind in (
            (["validate", name], "validate"),
            (["classify", name], "classify"),
            (["sections", name], "sections"),
            (["betti", name, "--method", "roos"], "betti"),
            (["betti", name, "--method", "minimal"], "betti"),
            (["incidence", name], "incidence"),
        ):
            jobs.append(Job(kind, name, argv, [name]))
        jobs.append(Job("cohomology", name, [name], [name]))
    return docs, jobs


# ---------------------------------------------------------------------------
# real-graph: graph sheaves over R for spectra, diffusion, NSD and learning.
# ---------------------------------------------------------------------------

def _gaussian2(rng: random.Random):
    return tuple(tuple(rng.gauss(0.0, 1.0) for _ in range(2)) for _ in range(2))


def _orthogonal2(rng: random.Random):
    phi = rng.uniform(0.0, 2.0 * math.pi)
    c, s = math.cos(phi), math.sin(phi)
    if rng.random() < 0.5:
        return ((c, -s), (s, c))
    return ((c, s), (s, -c))


def chorded_cycle(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Cycle on n vertices plus n // 2 distinct chords."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    seen = {frozenset(e) for e in edges}
    while len(edges) < n + n // 2:
        a, b = rng.sample(range(n), 2)
        if frozenset((a, b)) not in seen:
            seen.add(frozenset((a, b)))
            edges.append((min(a, b), max(a, b)))
    return edges


def graph_sheaf(n: int, edges, maps_for) -> str:
    """R-sheaf with 2-dim stalks on a graph; maps_for(v, e) gives each 2x2 map."""
    vertices = [f"v{i}" for i in range(n)]
    names = [f"e{k}" for k in range(len(edges))]
    covers, maps = [], {}
    for k, (a, b) in enumerate(edges):
        for v in (vertices[a], vertices[b]):
            covers.append((v, names[k]))
            maps[f"{v}<{names[k]}"] = [repr(float(x)) for row in maps_for(v, names[k])
                                       for x in row]
    stalks = {e: 2 for e in vertices + names}
    return _sheaf_text("R", vertices + names, covers, stalks, maps)


def planted_learn_docs(n: int, rng: random.Random) -> tuple[str, str]:
    """Connected graph with planted per-vertex maps R_v / sqrt(2) (R_v a
    rotation) and signals drawn from the planted section space."""
    edges = [(i, i + 1) for i in range(n - 1)]
    edges += [(i, j) for i in range(n) for j in range(i + 2, n) if rng.random() < 0.15]
    planted = []
    for _ in range(n):
        phi = rng.uniform(0.0, 2.0 * math.pi)
        r = 1.0 / math.sqrt(2.0)
        planted.append(((r * math.cos(phi), -r * math.sin(phi)),
                        (r * math.sin(phi), r * math.cos(phi))))
    text = graph_sheaf(n, edges, lambda v, e: planted[int(v[1:])])
    signals = []
    for _ in range(LEARN_SIGNALS):
        t = (rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        x = []
        for (a, b), (c, d) in planted:  # x_v solves planted_v x_v = t
            det = a * d - b * c
            x += [(d * t[0] - b * t[1]) / det, (-c * t[0] + a * t[1]) / det]
        signals.append(x)
    return text, dumps({"signals": signals})


def real_graph(rng: random.Random) -> tuple[list[Doc], list[Job]]:
    docs, jobs = [], []
    for n in GRAPH_SIZES:
        edges = chorded_cycle(n, rng)
        frames = {}  # one random orthogonal frame per element

        def gauge_map(v: str, e: str):
            for x in (v, e):
                if x not in frames:
                    frames[x] = _orthogonal2(rng)
            return _matmul(frames[e], tuple(zip(*frames[v])))

        for kind, maps_for, b0 in (("gauss", lambda v, e: _gaussian2(rng), 0),
                                   ("gauge", gauge_map, 2)):
            name = f"graph{n}_{kind}.json"
            text = graph_sheaf(n, edges, maps_for)
            docs.append(Doc(name, text, {"family": "graph", "n": n, "b0": b0,
                                         "field": "R"}))
            for norm in ("none", "weak", "strong"):
                jobs.append(Job("spectrum", name, ["spectrum", name, "--norm", norm],
                                [name]))
            for mode in ("discrete", "continuous"):
                jobs.append(Job("diffuse", name, ["diffuse", name, "--mode", mode],
                                [name]))
            for eta in (None, NSD_ETA):
                params = {
                    "X": [[rng.gauss(0.0, 1.0) for _ in range(NSD_CHANNELS)]
                          for _ in range(2 * n)],
                    "W1": [[rng.gauss(0.0, 1.0) for _ in range(2)] for _ in range(2)],
                    "W2": [[rng.gauss(0.0, 1.0) for _ in range(NSD_CHANNELS)]
                           for _ in range(NSD_CHANNELS)],
                }
                if eta is not None:
                    params["eta"] = eta
                    params["norm"] = "none"
                pname = f"graph{n}_{kind}_nsd{'_eta' if eta else ''}.json"
                docs.append(Doc(pname, dumps(params), {"family": "nsd-params"}))
                jobs.append(Job("nsd-forward", name, ["nsd-forward", name, pname],
                                [name, pname]))
    # The learner's run time swings several-fold with its input, so its
    # documents and seeds are fixed and do not follow the workload seed.
    for n in LEARN_SIZES:
        name = f"learn{n}.json"
        sname = f"learn{n}_signals.json"
        text, signals = planted_learn_docs(n, random.Random(f"learn:{n}"))
        docs.append(Doc(name, text, {"family": "learn", "n": n}))
        docs.append(Doc(sname, signals, {"family": "signals"}))
        jobs.append(Job("learn", name, [
            "learn", name, sname, "--d", "2", "--lr", "4", "--iters", "300",
            "--seed", str(n),
        ], [name, sname]))
    return docs, jobs


BUILDERS = {
    "exact-ladder": exact_ladder,
    "exact-many": exact_many,
    "real-graph": real_graph,
}


def build(workload: str, seed: int) -> tuple[list[Doc], list[Job]]:
    """Documents and the job list (one pass) of a workload for a seed."""
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"))
