"""Workload corpora and per-operation correctness gates.

Every workload writes real polygon (and, for recheck, mesh) files into
the current directory and returns the CLI operations of one pass.  The
polygon families (torus sticks, twist knots, planar n-gons, acceptance
criterion 1's fixed random polygons) do not depend on the seed; the
random polygons and planar dents are drawn from
random.Random("<workload>/<seed>"), which also shuffles the pass.  The
program always runs with its default --seed, so the workload seed only
changes the inputs.

Sizing.  An op's latency is its median over the passes (bench/run.py),
so a pass is kept to 3-5 s on a 2-core machine with the
fractions.Fraction backend, and a 30 s run makes four to eight passes.
Torus sticks m >= 4, twist m >= 4, random R^3 n > 12, embedded4 on
lifted torus3 and on random R^4 polygons are left out: one such op
costs 2-27 s there, and embedded4's cost swings 1-27 s with the seed.

Ranks.  latency_p50_s is the median op and latency_tail_s the eleventh
op from the top (bench/run.py), so each corpus puts a group of like
inputs at both ranks, and the shuffle spreads every group over the pass:
both statistics then rest on a group rather than on a single input.
"""

from __future__ import annotations

import json
import random

MAX_DRAWS = 500


class Op:
    """One CLI call with what its gate needs to know."""

    __slots__ = ("name", "argv", "kind", "n", "report", "mesh", "expect_t",
                 "expect_w")

    def __init__(self, name, argv, kind, n, report, mesh=None,
                 expect_t=None, expect_w=None):
        self.name = name
        self.argv = argv
        self.kind = kind
        self.n = n
        self.report = report
        self.mesh = mesh
        self.expect_t = expect_t
        self.expect_w = expect_w


def _rng(workload, seed):
    return random.Random("%s/%d" % (workload, seed))


def _fixed_rng(workload):
    """Draws for the inputs that hold the latency ranks where a seeded
    draw would move the rank's value by itself: the same whatever the
    seed, so those ranks measure the program rather than the draw."""
    return random.Random("%s/fixed" % workload)


def _span_op(pl, name, poly, kind, strategy=None):
    pl.write_polygon(poly, name + ".poly")
    argv = ["span", name + ".poly", "--mesh-out", name + ".off",
            "--report", name + ".json"]
    if strategy:
        argv += ["--strategy", strategy]
    return Op(name, argv, kind, len(poly.vertices), name + ".json",
              mesh=name + ".off")


def _mesh_op(pl, name, poly, mesh, kind, mode=None):
    pl.write_polygon(poly, name + ".poly")
    pl.write_off(mesh, name + ".off")
    argv = ["verify", name + ".off", "--polygon", name + ".poly",
            "--report", name + ".v.json"]
    if mode:
        argv += ["--mode", mode]
    return Op(name, argv, kind, len(poly.vertices), name + ".v.json",
              expect_t=len(mesh.triangles))


def _bounds_op(pl, name, poly, writhe=None):
    pl.write_polygon(poly, name + ".poly")
    return Op(name, ["bounds", name + ".poly", "--report", name + ".json"],
              "bounds", len(poly.vertices), name + ".json", expect_w=writhe)


def _r3_families(pl, twists):
    """(name, polygon, writhe at projection seed 0 when known)."""
    return ([("torus3", pl.gen_torus_stick(3), None)]
            + [("twist%d" % m, pl.gen_twist_writhe(m), m * (m + 1))
               for m in range(1, twists + 1)])


def _random_r3(pl, rng, strata, prefix="rand"):
    """Seeded random R^3 polygons, one per (n, c_lo, c_hi) stratum.

    Draws repeat until the projection span will use (project_polygon at
    its default seed) has between c_lo and c_hi crossings.  Fixing the
    (n, c) profile keeps the triangle count t = 3n + 14c - 2s, and with it
    the work, of the random part nearly equal across seeds."""
    out = []
    for k, (n, c_lo, c_hi) in enumerate(strata):
        for _ in range(MAX_DRAWS):
            poly = pl.gen_random(n, 3, seed=rng.getrandbits(32))
            c = len(pl.project_polygon(poly).crossings)
            if c_lo <= c <= c_hi:
                out.append(("%s%d_n%d_c%d" % (prefix, k, n, c), poly))
                break
        else:
            raise RuntimeError("no random %d-gon with %d..%d crossings in %d "
                               "draws" % (n, c_lo, c_hi, MAX_DRAWS))
    return out


# Acceptance criterion 1 draws gen_random(4 + i % 13, 3, seed=i); these
# two (n = 7 and 12) are fixed inputs of about 0.2 s each.
CRITERION_01 = (3, 8)
# By cost: torus3, twist2 and the criterion-1 polygons on top; then
# twist1 and twelve fixed 6-gons with c = 2, which hold the tail
# (eleventh from the top); twelve fixed 4-gons with c = 1, which hold
# the median; eighteen seeded 4- and 5-gons with c = 0.
R3_FIXED_STRATA = [(6, 2, 2)] * 12 + [(4, 1, 1)] * 12
R3_STRATA = [(4, 0, 0), (5, 0, 0)] * 9


def setup_span_r3(pl, seed):
    rng = _rng("span-r3", seed)
    ops = [_span_op(pl, name, poly, "seifert")
           for name, poly, _ in _r3_families(pl, 2)]
    ops += [_span_op(pl, "crit01_%d" % i,
                     pl.gen_random(4 + i % 13, 3, seed=i), "seifert")
            for i in CRITERION_01]
    randoms = (_random_r3(pl, _fixed_rng("span-r3"), R3_FIXED_STRATA, "fix")
               + _random_r3(pl, rng, R3_STRATA))
    ops += [_span_op(pl, name, poly, "seifert") for name, poly in randoms]
    rng.shuffle(ops)
    return ops


def _dented_ngon(pl, n, k):
    verts = list(pl.gen_planar_ngon(n).vertices)
    verts[k] = verts[k].scale(pl.Rat(1, 8))
    poly = pl.ClosedPolygon(verts)
    if pl.validate_embedded(poly) is not None:
        raise RuntimeError("dented %d-gon is not embedded" % n)
    return poly


# embedded4 runs on a fixed random R^4 4-gon (gen_random(4, 4, seed=0)):
# about 1 s, where lifted torus3 takes 8 s and seeded draws swing
# from 0.5 s to 27 s.
EMBEDDED_N = 4
# By cost: embedded4 on top, then fourteen fixed immersed4 6-gons and
# the fixed cones n = 9..12, which hold the tail (eleventh from the top);
# twelve seeded immersed4 4-gons hold the median, above the smaller cones
# and ten seeded earclip n-gons.
TAIL_IMMERSED = 14
MEDIAN_IMMERSED = 12


def setup_span_otherdims(pl, seed):
    rng = _rng("span-otherdims", seed)
    fixed = _fixed_rng("span-otherdims")
    ops = [_span_op(pl, "emb%d" % EMBEDDED_N,
                    pl.gen_random(EMBEDDED_N, 4, seed=0), "embedded4",
                    "embedded4")]
    for k, (n, draw) in enumerate([(6, fixed)] * TAIL_IMMERSED
                                  + [(4, rng)] * MEDIAN_IMMERSED):
        ops.append(_span_op(pl, "imm%d_n%d" % (k, n),
                            pl.gen_random(n, 4, seed=draw.getrandbits(32)),
                            "immersed4", "immersed4"))
    for n in range(4, 13):
        ops.append(_span_op(pl, "cone%d" % n,
                            pl.gen_random(n, 5 + n % 2,
                                          seed=fixed.getrandbits(32)),
                            "cone", "cone"))
    for n in range(3, 13):
        poly = (pl.gen_planar_ngon(n) if n == 3
                else _dented_ngon(pl, n, rng.randrange(n)))
        ops.append(_span_op(pl, "ngon%d" % n, poly, "earclip", "earclip"))
    rng.shuffle(ops)
    return ops


# verify on these fixed draws and on the families holds the tail
RECHECK_STRATA = [(5, 1, 1), (6, 2, 2)] * 2 + [(7, 3, 3)] * 4
# bounds on random 10-gons costs about the median op of the pass, so
# twenty of them hold latency_p50_s
BOUNDS_GROUP = 20


def setup_recheck(pl, seed):
    rng = _rng("recheck", seed)
    fixed = _fixed_rng("recheck")
    fams = _r3_families(pl, 3)
    randoms = _random_r3(pl, fixed, RECHECK_STRATA)
    ops = []
    for name, poly in [(nm, p) for nm, p, _ in fams] + randoms:
        mesh, rep = pl.spanning_surface_r3(poly)
        n, t = len(poly.vertices), len(mesh.triangles)
        if t != 3 * n + 14 * rep["crossings"] - 2 * rep["circuits"]:
            raise RuntimeError("setup mesh %s breaks t = 3n + 14c - 2s"
                               % name)
        ops.append(_mesh_op(pl, "v_" + name, poly, mesh, "verify"))
    for n in range(4, 11):
        poly = pl.gen_random(n, 4, seed=fixed.getrandbits(32))
        mesh, _ = pl.immersed_disk_4d(poly)
        ops.append(_mesh_op(pl, "vi%d" % n, poly, mesh, "verify-immersed",
                            "immersed"))
    ops += [_bounds_op(pl, "b_" + name, poly, w) for name, poly, w in fams]
    ops += [_bounds_op(pl, "b_rand%d_n10" % k,
                       pl.gen_random(10, 3, seed=rng.getrandbits(32)))
            for k in range(BOUNDS_GROUP)]
    rng.shuffle(ops)
    return ops


SETUP = {
    "span-r3": setup_span_r3,
    "span-otherdims": setup_span_otherdims,
    "recheck": setup_recheck,
}


# ---------------------------------------------------------------------------
# gates

WITNESS_KEYS = ("error", "manifold_witness", "orientation_witness",
                "violation_witness")


def witness(rep):
    """The report's witness fields, for the failure record."""
    if rep is None:
        return None
    return {k: rep[k] for k in WITNESS_KEYS if k in rep} or None


def gate(op: Op, code, rep: dict | None):
    """None when the operation's output is correct, else the reason."""
    if code != 0:
        return "exit status %r" % (code,)
    if rep is None:
        return "no report"
    certs = rep.get("certificates", {})
    if op.kind != "bounds" and (not certs or not all(
            v is True for v in certs.values())):
        return "certificate not true: %s" % json.dumps(certs, sort_keys=True)
    n, t = op.n, rep.get("t")
    if op.kind == "seifert":
        c, s = rep["c"], rep["circuits"]
        if t != 3 * n + 14 * c - 2 * s:
            return "t=%d but 3n+14c-2s=%d" % (t, 3 * n + 14 * c - 2 * s)
        if t > 7 * n * n:
            return "t=%d exceeds 7n^2" % t
    elif op.kind == "embedded4" and t > 21 * n * n:
        return "t=%d exceeds 21n^2" % t
    elif op.kind in ("immersed4", "cone", "earclip"):
        want = {"immersed4": 3 * n, "cone": n, "earclip": n - 2}[op.kind]
        if t != want:
            return "t=%d, wanted %d" % (t, want)
    elif op.kind in ("verify", "verify-immersed") and t != op.expect_t:
        return "verify saw t=%d, set-up built %d" % (t, op.expect_t)
    elif op.kind == "bounds":
        projs = rep.get("projections", [])
        if len(projs) != 8 or "bounds" not in rep:
            return "bounds report incomplete"
        if op.expect_w is not None and projs[0]["w"] != op.expect_w:
            return "writhe %d, wanted %d" % (projs[0]["w"], op.expect_w)
    return None
