"""Command-line interface.

Every subcommand reads a sheaf document, runs one pipeline stage, and prints a
deterministic JSON run report on stdout: ``command``, then ``inputs_digest``
(the SHA-256 of the document bytes), then the fields of that subcommand.  The
document and the side files (``--x0``, the ``nsd-forward`` params and the
``learn`` signals) are all read as UTF-8.  Exit codes: 0 success, 1 domain
error (with an error report of ``command`` and ``error``), 2 usage error.
Help and usage text are formatted at a fixed width of 78 columns, what
argparse gives an 80-column terminal, whatever the terminal.
A ``betti`` vector has one entry per degree of the complex that ``--method``
builds, so its length can differ between methods on the same document.
``incidence``'s ``matrix`` (a row per label) and ``sections``'s ``basis`` (a
vector per dimension) are sparse: each row maps a position, as a decimal key,
to the scalar text there, nonzero cells only, in increasing position.  Row h
maps generator position g to the coefficient of label h in g's boundary; a
basis position is a stalk coordinate in ``layout`` order.
The real subcommands load numpy, ``spectral`` and ``nsd`` when they run, and call
them through the module objects; the exact ones (marked in ``SUBCOMMANDS``) never do.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import cochain, linalg
from .errors import OverflowOnConvert, ParseError, PosheafError, SchemaError, brief
from .io import (
    canonical_json,
    inputs_digest,
    map_entries,
    parse_document,
    parse_sheaf,
    scalar_to_string,
)
from .poset import classify
from .sheaf import check_compositionality, global_sections_bruteforce


def _read(path: str) -> tuple[str, bytes]:
    """A file's text, decoded as UTF-8, and its bytes."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        return raw.decode("utf-8"), raw
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text at byte {exc.start}: {exc.reason}") from None


def _side_document(path: str) -> dict:
    return parse_document(_read(path)[0])


def _is_finite_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the double range
        return False


def _numeric_array(doc: dict, key: str):
    """doc[key] as a float array: nested lists of one shape holding finite
    numbers, or a SchemaError naming the key."""
    import numpy as np
    if key not in doc:
        raise SchemaError(f"missing key {key!r}")
    stack = [doc[key]]
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            stack.extend(item)
        elif not _is_finite_number(item):
            raise SchemaError(f"{key}: {brief(repr(item))} is not a finite number")
    try:
        return np.array(doc[key], dtype=float)
    except ValueError:
        raise SchemaError(f"{key}: ragged array") from None


def cmd_validate(sheaf, args) -> dict:
    violations = check_compositionality(sheaf)
    noncommutativity = float(sum(v.deviation_sq for v in violations))
    if not math.isfinite(noncommutativity):
        raise OverflowOnConvert("noncommutativity: sum of deviations beyond the double range")
    return {
        "ok": not violations,
        "violations": [
            {
                "source": v.source,
                "target": v.target,
                "path_a": list(v.path_a),
                "path_b": list(v.path_b),
                "deviation_sq": v.deviation_sq,
            }
            for v in violations
        ],
        "noncommutativity": noncommutativity,
    }


def cmd_classify(sheaf, args) -> dict:
    result = classify(sheaf.poset, sheaf.field)
    # the rank comes in topo order; cell_dims is already in declaration order
    return {"classification": {
        "graded": result.graded,
        "rank": None if result.rank is None else {e: result.rank[e] for e in sheaf.poset.elements},
        "homology_cell": result.homology_cell,
        "morse_cell": result.morse_cell,
        "cell_dims": result.cell_dims,
    }}


def cmd_sections(sheaf, args) -> dict:
    space, f = global_sections_bruteforce(sheaf), sheaf.field
    return {"sections": {
        "dim": space.dim,
        "layout": list(space.layout),
        "basis": [{k: scalar_to_string(v, f) for k, v in vec.items()} for vec in space.basis],
    }}


def cmd_betti(sheaf, args) -> dict:
    return {"method": args.method, "betti": cochain.betti(sheaf, args.method)}


def cmd_incidence(sheaf, args) -> dict:
    f = sheaf.field
    inc = cochain.minimal_incidence(sheaf.poset, f)
    # the augmented matrix over ["@"] + generators, a sparse row per label:
    # entry (h, g) is the coefficient of h in the boundary of g
    rows: list[dict[int, str]] = [{} for _ in range(len(inc.generators) + 1)]
    for g, column in enumerate(inc.columns, start=1):
        for h, value in column.items():
            rows[h + 1][g] = scalar_to_string(value, f)
    return {"incidence": {
        "generators": [
            {"id": g, "degree": deg, "owner": owner}
            for g, (deg, owner) in enumerate(inc.generators)
        ],
        "labels": ["@"] + [f"g{g}" for g in range(len(inc.generators))],
        "matrix": rows,
    }}


def _laplacian(sheaf, args):
    from . import spectral
    return spectral.laplacian(spectral.real_sheaf_complex(sheaf), args.degree, args.norm)


def cmd_spectrum(sheaf, args) -> dict:
    from . import spectral
    bundle = spectral.eigendecompose(_laplacian(sheaf, args))
    return {"spectrum": {
        "degree": args.degree,
        "normalization": args.norm,
        "eigenvalues": bundle.eigenvalues.tolist(),
        "lambda_min": bundle.lam_min,
        "lambda_max": bundle.lam_max,
        "harmonic_dim": bundle.harmonic_dim,
    }}


def cmd_diffuse(sheaf, args) -> dict:
    import numpy as np
    from . import spectral
    lap = _laplacian(sheaf, args)
    x0 = _numeric_array(_side_document(args.x0), "x0") if args.x0 else np.ones(len(lap))
    trace = spectral.heat_diffusion(lap, x0, eta=args.eta, steps=args.steps, mode=args.mode)
    return {"trace": {
        "degree": args.degree,
        "normalization": args.norm,
        "eta": trace.eta,
        "steps": args.steps,
        "mode": trace.mode,
        "energies_first": trace.energies[0],
        "energies_last": trace.energies[-1],
        "distance_first": trace.distances[0],
        "distance_last": trace.distances[-1],
        "limit": trace.limit.tolist(),
    }}


def cmd_nsd_forward(sheaf, args) -> dict:
    from . import nsd
    params = _side_document(args.params)
    x, w1, w2 = (_numeric_array(params, key) for key in ("X", "W1", "W2"))
    eta = params.get("eta")
    if eta is not None and not _is_finite_number(eta):
        raise SchemaError(f"eta: {brief(repr(eta))} is not a finite number")
    layer = nsd.NsdLayer(sheaf, w1, w2, eta=eta, norm=params.get("norm", "weak"))
    return {"output": nsd.nsd_forward(layer, x).tolist()}


def cmd_learn(sheaf, args) -> dict:
    from . import nsd
    signals = _numeric_array(_side_document(args.signals), "signals")
    if signals.size and signals.ndim != 2:  # [] is the learner's EmptySignalSet
        raise SchemaError("signals: must be an array of signal vectors")
    result = nsd.learn_sheaf(sheaf.poset, signals, lr=args.lr, iters=args.iters, d=args.d,
                             seed=args.seed)
    return {"learn": {
        "d": args.d,
        "loss_history": result.loss_history,
        "field": str(result.sheaf.field),
        "maps": map_entries(result.sheaf, float),
    }}


def _checked(parse, ok, what: str):
    """An argparse type: parse the text, then require ok(value)."""
    def convert(text: str):
        if not ok(value := parse(text)):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value
    return convert


_COUNT = _checked(int, lambda v: v >= 0, "a nonnegative integer")
_POSITIVE_INT = _checked(int, lambda v: v >= 1, "a positive integer")
_POSITIVE_FINITE = _checked(float, lambda v: 0 < v < math.inf, "a positive finite number")


_LAPLACIAN_ARGS = (("--degree", {"type": int, "default": 0}),
                   ("--norm", {"choices": cochain.NORMALIZATIONS, "default": "none"}))

# subcommand -> (handler name, exact, help, arguments after the document as (name,
# add_argument keywords)); cli() looks the handler up by name when it runs.
SUBCOMMANDS = {
    "validate": ("cmd_validate", True, "check compositionality", ()),
    "classify": ("cmd_classify", True, "gradedness and cell-likeness of the poset", ()),
    "sections": ("cmd_sections", True, "global sections by brute force", ()),
    "betti": ("cmd_betti", True, "Betti numbers of the sheaf", (
        ("--method", {"choices": cochain.CONSTRUCTIONS, "default": cochain.MINIMAL}),)),
    "incidence": ("cmd_incidence", True, "incidence data of the poset", ()),
    "spectrum": ("cmd_spectrum", False, "Laplacian eigendecomposition", _LAPLACIAN_ARGS),
    "diffuse": ("cmd_diffuse", False, "heat diffusion trace", _LAPLACIAN_ARGS + (
        ("--eta", {"type": float, "default": None}),
        ("--steps", {"type": _COUNT, "default": 100}),
        ("--mode", {"choices": cochain.DIFFUSION_MODES, "default": "discrete"}),
        ("--x0", {"default": None, "help": "JSON file with an initial state"}))),
    "nsd-forward": ("cmd_nsd_forward", False, "neural sheaf diffusion layer", (
        ("params", {"help": "JSON file with X, W1, W2 and optional eta/norm"}),)),
    "learn": ("cmd_learn", False, "learn edge maps from smooth signals", (
        ("signals", {"help": "JSON file with a 'signals' array"}),
        ("--lr", {"type": _POSITIVE_FINITE, "default": 0.2}),
        ("--iters", {"type": _COUNT, "default": 60}),
        ("--d", {"type": _POSITIVE_INT, "default": 1}),
        ("--seed", {"type": _COUNT, "default": 0}))),
}


# argparse's width on an 80-column terminal (80 - 2), given so that no
# formatter asks the terminal its size
_FORMATTER = functools.partial(argparse.HelpFormatter, width=78)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posheaf", description="Sheaves on finite posets: cohomology, Laplacians, diffusion.",
        formatter_class=_FORMATTER)
    # given its prog, argparse formats no usage line to derive it
    sub = parser.add_subparsers(dest="subcommand", required=True, prog=parser.prog)
    for name, (_, _, help_text, arguments) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text, formatter_class=_FORMATTER)
        p.add_argument("document", help="sheaf document (JSON)")
        for flag, options in arguments:
            p.add_argument(flag, **options)
    return parser


def cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    command = args.subcommand
    handler, exact = SUBCOMMANDS[command][:2]
    try:
        text, raw = _read(args.document)
        sheaf = parse_sheaf(text)
        if exact:
            linalg.require_exact(sheaf.field, command)
        frame = {"command": command, "inputs_digest": inputs_digest(raw)}
        out, status = canonical_json(frame | globals()[handler](sheaf, args)), 0
    except (PosheafError, OSError) as exc:
        code = exc.code if isinstance(exc, PosheafError) else "IOError"
        error = {"code": code, "message": str(exc)}
        out, status = canonical_json({"command": command, "error": error}), 1
    sys.stdout.write(out + "\n")
    return status


def main():
    raise SystemExit(cli())


if __name__ == "__main__":
    main()
