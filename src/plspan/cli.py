"""Command line front end.

Four subcommands: generate writes polygon files from the built-in
families, span builds a spanning surface and reports the certificate
its builder derived, verify re-derives the certificates from existing
files with the same mesh.certify, bounds evaluates the count bounds for
a polygon.  Reports are JSON with rationals rendered as strings;
wall-clock timings live under a single "timings" key so reports can be
compared byte-for-byte without them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .bounds import bounds_report, genus_lower_bound, unoriented_genus_bound
from .diagram import project_polygon
from .geom import rat_str
from .mesh import certify, read_off, write_off
from .otherdims import cone_highdim, earclip_2d, embedded_4d, immersed_disk_4d
from .polygon import (
    gen_planar_ngon,
    gen_random,
    gen_torus_stick,
    gen_twist_writhe,
    polygon_text,
    read_polygon,
    validate_embedded,
    write_polygon,
)
from .seifert import SMOOTHING_RULES, spanning_surface_r3

# name: (applies to dimension d, build(poly, args)); auto takes the first
# that applies.  Builders are looked up by name at call time, so a wrapper
# set on this module sees the call.
STRATEGIES = {
    "earclip": (lambda d: d == 2, lambda p, a: earclip_2d(p)),
    "seifert": (lambda d: d == 3,
                lambda p, a: spanning_surface_r3(p, seed=a.seed, rule=a.rule)),
    "immersed4": (lambda d: d == 4,
                  lambda p, a: immersed_disk_4d(p, seed=a.seed)),
    "embedded4": (lambda d: d == 4,
                  lambda p, a: embedded_4d(p, seed=a.seed, rule=a.rule)),
    "cone": (lambda d: d >= 5, lambda p, a: cone_highdim(p, seed=a.seed)),
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("%s is not a positive integer" % text)
    return value


def _genus(parse, rule):
    """argparse type for a genus option, checked by its bound rule."""
    def check(text: str):
        try:
            value = parse(text)
            rule(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError("%s: %s" % (text, exc))
        return value
    return check


def _plain(x):
    """JSON-safe copy: exact rationals become strings like '14/9'."""
    if isinstance(x, bool) or x is None or isinstance(x, (int, str, float)):
        return x
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return rat_str(x)


def _write_text(text: str, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _write_report(report: dict, path: str | None) -> None:
    text = json.dumps(_plain(report), indent=2, sort_keys=True) + "\n"
    if path:
        _write(_write_text, text, path)
    else:
        sys.stdout.write(text)


def _read(reader, path):
    """reader(path); a missing or malformed file ends the command with a
    one-line message that names it, and exit status 1."""
    try:
        return reader(path)
    except OSError as exc:
        raise SystemExit("%s: %s" % (path, exc.strerror or exc)) from None
    except ValueError as exc:
        raise SystemExit("%s: %s" % (path, exc)) from None


def _write(writer, data, path) -> None:
    """writer(data, path); a path that cannot be written ends the
    command as _read ends it on a missing file."""
    try:
        writer(data, path)
    except OSError as exc:
        raise SystemExit("%s: %s" % (path, exc.strerror or exc)) from None


def cmd_generate(args) -> int:
    fam = args.family
    try:
        if fam == "torus":
            if args.m is None:
                raise SystemExit("--m required for the torus family")
            poly = gen_torus_stick(args.m)
        elif fam == "twist":
            if args.m is None:
                raise SystemExit("--m required for the twist family")
            poly = gen_twist_writhe(args.m)
        elif fam == "ngon":
            if args.n is None:
                raise SystemExit("--n required for the ngon family")
            poly = gen_planar_ngon(args.n, dim=args.dim or 2)
        else:
            if args.n is None or args.dim is None:
                raise SystemExit("--n and --dim required for the random "
                                 "family")
            poly = gen_random(args.n, args.dim, seed=args.seed)
    except (ValueError, AssertionError) as exc:
        raise SystemExit("--family %s: %s" % (fam, exc)) from None
    echo = "n=%d dim=%d" % (len(poly), poly.dim)
    if args.out:
        _write(write_polygon, poly, args.out)
        print(echo)
    else:
        sys.stdout.write(polygon_text(poly))
        print(echo, file=sys.stderr)
    return 0


def _embedding_error(poly) -> dict | None:
    """The error entries of a report on a polygon that is not embedded,
    with the exact witness; None for an embedded one.

    The one embeddedness check of span and bounds, in every dimension.
    Without it a polygon that is not embedded would only surface after
    a retry budget ran out, as a crash, or, for bounds, not at all.
    """
    bad = validate_embedded(poly)
    if bad is None:
        return None
    return {"error": "polygon is not embedded: %r" % bad,
            "error_kind": "polygon-not-embedded"}


def cmd_span(args) -> int:
    poly = _read(read_polygon, args.polygon)
    n, dim = len(poly), poly.dim
    strategy = args.strategy
    if strategy == "auto":
        strategy = next(name for name, (applies, _) in STRATEGIES.items()
                        if applies(dim))
    applies, build = STRATEGIES[strategy]
    if not applies(dim):
        raise SystemExit("strategy %s does not apply in dimension %d"
                         % (strategy, dim))
    report: dict = {
        "input": args.polygon,
        "n": n,
        "dim": dim,
        "strategy": strategy,
        "rule": args.rule if strategy in ("seifert", "embedded4") else None,
        "seed": args.seed,
    }
    timings: dict = {}
    t0 = time.perf_counter()
    error = _embedding_error(poly)
    if error is not None:
        timings["construct"] = time.perf_counter() - t0
        report.update(error, certificates={}, timings=timings)
        _write_report(report, args.report)
        return 1
    try:
        mesh, rep = build(poly, args)
    except (ValueError, AssertionError, RuntimeError) as exc:
        timings["construct"] = time.perf_counter() - t0
        report.update({"error": str(exc), "certificates": {},
                       "timings": timings})
        _write_report(report, args.report)
        return 1
    timings["construct"] = time.perf_counter() - t0

    # every builder certifies the mesh it returns (mesh.certify) and
    # raises when a certificate fails; `plspan verify` re-derives them
    cert = rep["cert"]
    census = cert["census"]
    kind = cert["interior"]
    certs = dict(cert["verdicts"])
    certs["chi_consistent"] = census["chi"] == rep["euler"]
    if strategy == "seifert" and args.rule == "orientation":
        certs["orientable"] = census["orientable"]
    report.update({
        "c": rep.get("crossings"),
        "writhe": rep.get("writhe"),
        "circuits": rep.get("circuits"),
        "levels": rep.get("levels"),
        "t": len(mesh.triangles),
        "chi": census["chi"],
        "genus": census["genus"],
        "orientable": census["orientable"],
        "embedded": certs.get("embedded"),
        "certificate": kind,
        "boundary_match": certs["boundary_match"],
        "certificates": certs,
        "bounds": bounds_report(n, dim=dim, c=rep.get("crossings"),
                                w=rep.get("writhe"), g=args.knot_genus,
                                t=len(mesh.triangles)),
        "timings": timings,
    })
    witness = cert["witnesses"].get("orientation_witness")
    if witness is not None:
        report["orientation_witness"] = witness
    if args.mesh_out:
        _write(write_off, mesh, args.mesh_out)
    _write_report(report, args.report)
    return 0 if all(certs.values()) else 1


def cmd_verify(args) -> int:
    mesh = _read(read_off, args.mesh)
    poly = _read(read_polygon, args.polygon) if args.polygon else None
    if args.mode == "immersed" and poly is None:
        raise SystemExit("--polygon is required for immersed mode")
    if poly is not None and poly.dim != mesh.dim:
        raise SystemExit("--polygon is in R^%d but the mesh is in R^%d"
                         % (poly.dim, mesh.dim))
    cert = certify(mesh, poly, interior=args.mode)
    census = cert["census"]
    report: dict = {
        "input": args.mesh,
        "dim": mesh.dim,
        "t": len(mesh.triangles),
        "chi": census["chi"],
        "mode": args.mode,
        "orientable": census["orientable"],
        "boundary_cycles": census["boundary_cycles"],
        "certificates": cert["verdicts"],
    }
    for key in ("manifold_witness", "violation_witness"):
        if key in cert["witnesses"]:
            report[key] = cert["witnesses"][key]
    _write_report(report, args.report)
    return 0 if all(cert["verdicts"].values()) else 1


def cmd_bounds(args) -> int:
    poly = _read(read_polygon, args.polygon)
    n, dim = len(poly), poly.dim
    report: dict = {"input": args.polygon, "n": n, "dim": dim}
    error = _embedding_error(poly)
    if error is not None:
        report.update(error)
        _write_report(report, args.report)
        return 1
    c = w = None
    if dim == 2:
        c, w = 0, 0
    elif dim == 3:
        projections = []
        dia = None
        for seed in range(args.projections):
            # every seed's shear search tries the identity first, so when
            # seed 0 keeps the vertical shadow, every seed keeps it
            if dia is None or any(dia.slopes):
                dia = project_polygon(poly, seed=seed)
            projections.append({"seed": seed, "c": len(dia.crossings),
                                "w": dia.writhe})
        report["projections"] = projections
        w = max((p["w"] for p in projections), key=abs)
        c = projections[0]["c"]
        report["max_abs_writhe"] = abs(w)
    report["bounds"] = bounds_report(n, dim=dim, c=c, w=w,
                                     g=args.knot_genus,
                                     gstar=args.unoriented_genus)
    _write_report(report, args.report)
    return 0


def build_parser() -> tuple:
    """The plspan parser, and the subparsers with a --seed option.

    main builds this once per process.  It sets the --seed default from
    PLSPAN_SEED on every call and finds the command function by name
    then, so a wrapper set on this module sees the call."""
    top = argparse.ArgumentParser(
        prog="plspan",
        description="Triangulated spanning surfaces for closed polygons")
    sub = top.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a polygon from a family")
    g.add_argument("--family", required=True,
                   choices=["torus", "twist", "ngon", "random"])
    g.add_argument("--m", type=int, help="family parameter (torus, twist)")
    g.add_argument("--n", type=int, help="vertex count (ngon, random)")
    g.add_argument("--dim", type=int, help="ambient dimension")
    g.add_argument("--seed", type=int)
    g.add_argument("--out", help="output polygon path (default stdout)")

    s = sub.add_parser("span", help="build and verify a spanning surface")
    s.add_argument("polygon", help="input polygon path")
    s.add_argument("--strategy", default="auto",
                   choices=["auto", *STRATEGIES])
    s.add_argument("--rule", default="orientation",
                   choices=SMOOTHING_RULES)
    s.add_argument("--seed", type=int)
    s.add_argument("--knot-genus", type=_genus(int, genus_lower_bound),
                   help="user-supplied knot genus for the bounds block")
    s.add_argument("--mesh-out", help="write the surface as an OFF file")
    s.add_argument("--report", help="report path (default stdout)")

    v = sub.add_parser("verify", help="re-run mesh checks on files")
    v.add_argument("mesh", help="OFF mesh path")
    v.add_argument("--polygon", help="polygon the mesh should span")
    v.add_argument("--mode", default="embedded",
                   choices=["embedded", "immersed"])
    v.add_argument("--report", help="report path (default stdout)")

    b = sub.add_parser("bounds", help="evaluate count bounds for a polygon")
    b.add_argument("polygon", help="input polygon path")
    b.add_argument("--projections", type=_positive_int, default=8,
                   help="projections, seeded 0, 1, ..., whose largest "
                   "|writhe| is reported (dim 3); every seed tries the "
                   "identity shear first, so a generic vertical shadow "
                   "gives the same diagram for every seed")
    b.add_argument("--knot-genus", type=_genus(int, genus_lower_bound))
    b.add_argument("--unoriented-genus",
                   type=_genus(str, unoriented_genus_bound),
                   help="half-integers accepted, e.g. 1/2")
    b.add_argument("--report", help="report path (default stdout)")
    return top, (g, s)


_PARSER = None  # build_parser()'s result, once main has run


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    top, seeded = _PARSER
    # a string default goes through type=int too, so a PLSPAN_SEED that
    # is not an integer is a usage error rather than a silent seed
    seed = os.environ.get("PLSPAN_SEED", "0")
    for parser in seeded:
        parser.set_defaults(seed=seed)
    args = top.parse_args(argv)
    return globals()["cmd_" + args.command](args)
