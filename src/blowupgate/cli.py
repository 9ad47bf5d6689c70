"""Command-line interface.

Subcommands: invariants, gate, flow, solve, brieskorn, euler,
mw-admissible.  All output is JSON (or a terse text rendering with
--format text) on stdout; runs with identical inputs and seed are
byte-identical.

The argument parser is built once, when this module is imported, and
`run` may be called repeatedly in one process: each call parses into a
fresh namespace and looks its handler up by name.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from math import prod
from operator import itemgetter

from blowupgate.errors import (BlowupgateError, InputError, _check_tol,
                               _integer, _integers)
from blowupgate.exact import AbelianGroup
from blowupgate.gate import gate as evaluate_gate
from blowupgate.gate import (Flow, FlowGraph, HomologyElement, homology_class,
                             is_flow, realizable_k)
from blowupgate.invariants import link_invariants
from blowupgate.links import (BraidWord, LinkDiagram, Presentation,
                              from_braid, parse_pd)
from blowupgate.psl2r import PSL2, _euler_and_residual, milnor_wood_admissible
from blowupgate.repvar import (BrieskornData, brieskorn_enumerate, is_abelian,
                               is_irreducible, is_metabelian, solve,
                               trace_coordinates)

SCHEMA = "1"
# Limits on counts in the input, checked by _limit before anything of
# that size is built: a split braid closure on n strands has a dense
# (n - 1)^2 Seifert matrix (about 0.26 s for the whole process at 1000
# strands on a shared 2-vCPU host), a link with c crossings (braid letters
# or PD crossings) has a Seifert or Fox matrix of about c rows (a 3-strand
# alternating word of 100 letters takes about 22 s by the Seifert route
# and 3.3 s by the Fox route for the whole process on that host, and the
# cost grows faster than c^5), solve prints C(n, 3) trace coordinates per
# class of an n-generator group (at 64 generators and 20 restarts, a free
# group takes about 3.8 s, prints 23 MB and peaks at 132 MB, and a chain
# of 63 commutators takes about 14 s on that host), its Jacobian holds 12
# entries per generator and relator and its prefix products one matrix
# per relator letter (on 64 generators, 100,000 relators [1, -1] do not
# fit in 1 GB; at the relator limits, 256 relators of 16 letters take
# about 24 s a restart, as 64 commutators [g1, gj] already do under the
# generator limit alone), mw-admissible lists
# all prod(4 g_j - 3) vectors, and brieskorn tries all
# (p - 1)(q - 1)(r - 1) angle triples at about 34 us each.
MAX_STRANDS = 1000
MAX_CROSSINGS = 100
MAX_GENERATORS = 64
MAX_RELATORS = 256
MAX_RELATOR_LETTERS = 4096
MAX_MW_VECTORS = 10 ** 6
MAX_CENSUS_TRIPLES = 10 ** 6


class NonFiniteResult(BlowupgateError, ValueError):
    """A result holds a NaN or infinite number, which JSON cannot carry."""


def _load_json(path: str, what: str) -> dict:
    """The JSON object in the file at path, a file of kind what."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc
    # besides a JSONDecodeError: a byte that is not UTF-8, an integer of
    # more digits than int() takes, or arrays nested too deep
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{what} JSON must be an object")
    return data


def _limit(count: int, limit: int, what: str):
    """Refuse more than limit of what.  The message leaves count out: a
    product of counts can have more digits than str() of an int takes."""
    if count > limit:
        raise InputError(f"more than {limit} {what}")


def _fields(text: str) -> list:
    """The nonblank fields of a comma-separated option value, stripped."""
    return [f.strip() for f in text.split(",") if f.strip()]


@contextmanager
def _input_errors(what: str):
    """Report a KeyError, TypeError, ValueError or ArithmeticError raised
    while reading input data as an InputError; a BlowupgateError keeps
    its own code."""
    try:
        yield
    except BlowupgateError:
        raise
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise InputError(f"{what}: {exc}") from exc


def _diagram_from_json(data: dict) -> LinkDiagram:
    if "pd" in data and "braid" in data:
        raise InputError('link JSON has both a "pd" and a "braid" field')
    if "pd" in data:
        with _input_errors("malformed pd code"):
            d = parse_pd(data["pd"])
        crossings = len(d.crossings)
    elif "braid" in data:
        braid = data["braid"]
        with _input_errors("malformed braid object"):
            strands = _integer(braid["strands"])
            _limit(strands, MAX_STRANDS, "strands")
            word = BraidWord(strands, braid.get("word", ()))
        # len(d.crossings) would assemble the PD code of the braid
        d, crossings = from_braid(word), len(word.word)
    else:
        raise InputError('link JSON needs a "pd" or "braid" field')
    _limit(crossings, MAX_CROSSINGS, "crossings")
    return d


def _invariants_json(inv) -> dict:
    """The alexander, det, det_signed, h1_branched and h1_method fields of
    inv, or for None (no labeled sublink) the same keys, each null."""
    if inv is None:
        return dict.fromkeys(("alexander", "det", "det_signed",
                              "h1_branched", "h1_method"))
    coeffs, min_exp = inv.alexander.coeff_list()
    return {"alexander": {"coeffs": coeffs, "min_exp": min_exp},
            "det": inv.det,
            "det_signed": str(inv.det_signed),
            "h1_branched": {"rank": inv.h1_branched.rank,
                            "torsion": list(inv.h1_branched.torsion)},
            "h1_method": inv.h1_method}


def _emit(obj, out, fmt: str):
    """Write obj, with the schema version added, as one JSON line or as
    text lines.  The whole rendering is built first, so a non-finite
    number writes nothing and raises NonFiniteResult."""
    obj = {"schema": SCHEMA, **obj}
    try:
        if fmt == "json":
            text = json.dumps(obj, sort_keys=True, separators=(",", ":"),
                              allow_nan=False) + "\n"
        else:
            text = "".join(line + "\n" for line in _text_lines(obj, prefix=""))
    except ValueError as exc:
        raise NonFiniteResult(str(exc)) from exc
    out.write(text)


def _text_lines(obj, prefix: str):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _text_lines(obj[key],
                                   f"{prefix}{key}." if prefix else f"{key}.")
    else:
        label = prefix[:-1] if prefix.endswith(".") else prefix
        yield f"{label} = {json.dumps(obj, sort_keys=True, allow_nan=False)}"


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_invariants(args):
    d = _diagram_from_json(_load_json(args.link, "link"))
    inv = link_invariants(d)
    return {"components": inv.components,
            "b1_positive": inv.b1_positive, **_invariants_json(inv)}


def _monodromy_label(x) -> bool:
    """True for a nontrivial monodromy label (true, 1, "1", "true",
    "True"), False for a trivial one (false, 0, "0", "false", "False")."""
    if x in (True, "1", "true", "True"):
        return True
    if x in (False, "0", "false", "False"):
        return False
    raise InputError(f"monodromy label {x!r} is not 0, 1, true or false")


def _cmd_gate(args):
    data = _load_json(args.link, "link")
    d = _diagram_from_json(data)
    if args.monodromy is not None:
        labels = _fields(args.monodromy)
    elif "monodromy" in data:
        labels = data["monodromy"]
    else:
        labels = [True] * d.component_count
    labels = _integers(labels, _monodromy_label)
    verdict = evaluate_gate(d, labels)
    cert = _invariants_json(verdict.invariants)
    cert["alexander_z1"] = cert.pop("alexander")
    return {"status": verdict.status, "reasons": list(verdict.reasons),
            # gate refuses labels that do not match the component count
            "certificates": dict(cert, z_components=len(labels),
                                 z1_components=sum(labels))}


def _element_from_json(obj) -> HomologyElement:
    if not isinstance(obj, dict) or "free" not in obj:
        raise InputError('homology elements need a "free" field')
    return HomologyElement(obj["free"], obj.get("torsion", ()))


def _cmd_flow(args):
    data = _load_json(args.graph, "flow graph")
    with _input_errors("malformed flow graph JSON"):
        edges = _integers(data["edges"], itemgetter("from", "to"))
        labels = tuple(_element_from_json(e["label"])
                       for e in data["edges"] if "label" in e) or None
        if labels and len(labels) != len(edges):
            raise InputError("either every edge has a label or none has")
        graph = FlowGraph(data["vertices"], edges, labels)
        # read as decimal strings, so that 0.1 is 1/10
        weights = _integers(data["weights"], str)
        flow = Flow.from_weights(weights, data["orientations"])
        model = None
        if "model" in data:
            model = AbelianGroup(data["model"]["rank"],
                                 data["model"].get("torsion", ()))
        elif labels is not None:
            model = AbelianGroup(len(labels[0].free))
    out = {"is_flow": is_flow(graph, flow), "class": None, "realizable_k": None}
    # a chain that is not a cycle has no homology class; labels come with
    # a model, given or of their rank
    if out["is_flow"] and labels is not None and flow.is_integral:
        cls = homology_class(graph, flow, model)
        out["class"] = {"free": list(cls.free), "torsion": list(cls.torsion)}
        if "admissible" in data:
            with _input_errors("malformed flow graph JSON"):
                admissible = _integers(data["admissible"],
                                       _element_from_json)
            rk = realizable_k(cls, admissible, model)
            if rk.finite:
                out["realizable_k"] = {"finite": True, "values": list(rk.values)}
            else:
                out["realizable_k"] = {"finite": False,
                                       "residues": list(rk.residues),
                                       "modulus": rk.modulus}
    return out


def _presentation_from_json(data) -> Presentation:
    with _input_errors("malformed presentation JSON"):
        return Presentation(data["generators"], data["relators"])


def _matrix_json(m: PSL2):
    # + 0.0 folds negative zero away
    return [[round(x, 15) + 0.0 for x in row] for row in m.matrix_rows()]


def _class_json(rep, traces, **flags) -> dict:
    """A representation class: the residual and matrices of the
    assignment rep, its traces rounded to 9 decimals, and flags."""
    return {"residual": rep.residual,
            "traces": [round(t, 9) + 0.0 for t in traces],
            "matrices": {g: _matrix_json(m) for g, m in rep.matrices.items()},
            **flags}


def _cmd_solve(args):
    pres = _presentation_from_json(_load_json(args.presentation,
                                              "presentation"))
    _limit(len(pres.generators), MAX_GENERATORS, "generators")
    _limit(len(pres.relators), MAX_RELATORS, "relators")
    _limit(sum(map(len, pres.relators)), MAX_RELATOR_LETTERS,
           "relator letters")
    sols = solve(pres, restarts=args.restarts, tol=args.tol, seed=args.seed)
    out = [_class_json(rep, trace_coordinates(pres, rep),
                       irreducible=is_irreducible(rep),
                       abelian=is_abelian(rep),
                       metabelian=is_metabelian(rep)) for rep in sols]
    return {"count": len(out), "solutions": out}


def _cmd_brieskorn(args):
    data = BrieskornData(args.p, args.q, args.r)
    _limit((args.p - 1) * (args.q - 1) * (args.r - 1), MAX_CENSUS_TRIPLES,
           "angle triples")
    census = brieskorn_enumerate(data, tol=args.tol)
    classes = [_class_json(cls.assignment, cls.traces,
                           angles=list(cls.angles),
                           irreducible=cls.irreducible) for cls in census]
    return {"exponents": [args.p, args.q, args.r],
            "seifert": {"b0": data.b0, "cone": [[p, b] for p, b in data.cone]},
            "count": len(classes), "census": classes}


def _cmd_euler(args):
    _check_tol(args.tol)        # before the input is read
    data = _load_json(args.rep, "representation")
    mats = data.get("matrices", data)
    if not isinstance(mats, dict):
        raise InputError("representation JSON must map generators to matrices")
    genus = args.genus
    if genus is None:
        # int() refuses some digit strings: "²", and over 4300 digits
        with _input_errors("cannot infer genus"):
            indices = [int(name[1:]) for name in mats if len(name) > 1
                       and name[0] in "ab" and name[1:].isdigit()]
        if not indices:
            raise InputError("cannot infer genus; pass --genus")
        genus = max(indices)
    with _input_errors("malformed matrix data"):
        matrices = {name: PSL2.from_matrix(rows) for name, rows in mats.items()}
    e, res = _euler_and_residual(matrices, genus, args.tol)
    return {"euler": e, "residual": res, "genus": genus}


def _cmd_mw(args):
    with _input_errors("--genera"):
        genera = [int(g) for g in _fields(args.genera)]
    if all(g >= 1 for g in genera):     # else the library refuses a genus
        _limit(prod(4 * g - 3 for g in genera), MAX_MW_VECTORS,
               "Milnor-Wood vectors")
    vectors = milnor_wood_admissible(genera)
    return {"genera": genera, "bounds": [2 * g - 2 for g in genera],
            "n_vectors": [list(v) for v in vectors],
            "alpha_vectors": [[2 * x for x in v] for v in vectors]}


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blowupgate",
        description="Link obstruction gate and PSL(2,R) representation explorer")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants", help="Alexander polynomial, determinant, "
                       "branched double cover homology")
    p.add_argument("link", help="link JSON file")
    p.set_defaults(handler="_cmd_invariants")

    p = sub.add_parser("gate", help="obstruction verdict for a labeled link")
    p.add_argument("link", help="link JSON file")
    p.add_argument("--monodromy", help="comma-separated 0/1 per component")
    p.set_defaults(handler="_cmd_gate")

    p = sub.add_parser("flow", help="conservation check and homology class "
                       "of a weighted graph")
    p.add_argument("graph", help="flow graph JSON file")
    p.set_defaults(handler="_cmd_flow")

    p = sub.add_parser("solve", help="search PSL(2,R) representations")
    p.add_argument("presentation", help="presentation JSON file")
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler="_cmd_solve")

    p = sub.add_parser("brieskorn", help="representation census of a "
                       "Brieskorn homology sphere")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("r", type=int)
    p.add_argument("--restarts", type=int, default=60,
                   help="ignored: the census is solved in closed form")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--seed", type=int, default=0,
                   help="ignored: the census is solved in closed form")
    p.set_defaults(handler="_cmd_brieskorn")

    p = sub.add_parser("euler", help="Euler number of a surface-group "
                       "representation")
    p.add_argument("rep", help="representation JSON file")
    p.add_argument("--genus", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(handler="_cmd_euler")

    p = sub.add_parser("mw-admissible", help="integer classes allowed by the "
                       "Milnor-Wood bound")
    p.add_argument("--genera", required=True, help="comma-separated genera")
    p.set_defaults(handler="_cmd_mw")

    return parser


# built eagerly, so that its cost is part of importing the module and
# not of the first call to run
_PARSER = _build_parser()


def run(argv, out=None) -> int:
    """Entry point returning an exit code: 0 success, 1 input error,
    2 usage error."""
    out = out if out is not None else sys.stdout
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        # looked up at call time, so a rebound module-level _cmd_* is used
        _emit(globals()[args.handler](args), out, args.format)
    except BlowupgateError as exc:
        _emit({"error": {"code": type(exc).__name__, "message": str(exc)}},
              out, args.format)
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
