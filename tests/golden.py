"""The pinned output manifest: what the CLI writes, in two parts.

Each case runs one `plspan` command in a scratch directory, on relative
file names.  The manifest keeps, per case:

- digests: the sha256 of the polygon file it starts from, of the mesh
  file it writes (span) and of its JSON report with the run-dependent
  `timings` key removed;
- invariants: per report, the facts read from it that a mesh change
  must say it moves (INVARIANTS): n, t, c, the circuit count s,
  writhe, chi, genus, orientability, the certificate verdicts and the
  error kind.

tests/test_golden.py compares the two parts apart: it names the cases
whose invariants moved, and apart from them those whose bytes alone
moved.  So a change that is meant to keep outputs byte-identical shows
it, one that changes meshes but not what they are (a flipped diagonal)
shows up under bytes only, and one that changes what they are (a lost
triangle) under invariants.

Rewrite the manifest, after a deliberate output change, with

    PYTHONPATH=src python tests/golden.py
"""

import hashlib
import json
import os
import tempfile
from pathlib import Path

from plspan.cli import main
from plspan.polygon import (gen_planar_ngon, gen_random, gen_torus_stick,
                            gen_twist_writhe, write_polygon)

MANIFEST = Path(__file__).with_name("golden.json")

# the report keys of the invariant part; each report keeps those it has
INVARIANTS = ("n", "t", "c", "circuits", "writhe", "chi", "genus",
              "orientable", "certificates", "error_kind")


def _families():
    return ([("torus%d" % m, gen_torus_stick(m)) for m in range(3, 9)]
            + [("twist%d" % m, gen_twist_writhe(m)) for m in range(1, 5)])


def cases():
    """(name, polygon, commands): commands run in order in one directory
    holding the polygon as p.poly; each is (tag, argv) and writes
    tag.json, and span writes its mesh to m.off."""
    span = ("span", ["span", "p.poly", "--report", "span.json",
                     "--mesh-out", "m.off"])
    # criterion 01's polygons: its six tori are the torus cases below
    out = [("crit01_rand%d_n%d" % (i, 4 + i % 13),
            gen_random(4 + i % 13, 3, seed=i), [span]) for i in range(50)]
    verify = ("verify", ["verify", "m.off", "--polygon", "p.poly",
                         "--report", "verify.json"])
    bounds = ("bounds", ["bounds", "p.poly", "--report", "bounds.json"])
    out += [(name, poly, [span, verify, bounds])
            for name, poly in _families()]
    # the exact circle: ear-clipped planar n-gons, and flat ones of R^3
    # on a circle of radius 4 through the R^3 span
    out += [("planar_n%d" % n, gen_planar_ngon(n), [span])
            for n in range(3, 13)]
    out += [("planar3_r4_n%d" % n, gen_planar_ngon(n, dim=3, radius=4),
             [span]) for n in (3, 5, 7)]
    for strategy, dim in (("immersed4", 4), ("cone", 5)):
        out += [("%s_n%d_s%d" % (strategy, n, s), gen_random(n, dim, seed=s),
                 [(span[0], span[1] + ["--strategy", strategy])])
                for n in range(4, 9) for s in range(3)]
    out += [("embedded4_n4_s%d" % s, gen_random(4, 4, seed=s),
             [(span[0], span[1] + ["--strategy", "embedded4"])])
            for s in range(3)]
    return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(poly, commands) -> tuple[dict, dict]:
    """({file: digest}, {tag: invariants}) of the polygon file and of the
    files the commands write; reports lose their timings first."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            write_polygon(poly, "p.poly")
            digests = {"p.poly": _sha(Path("p.poly").read_bytes())}
            invariants = {}
            for tag, argv in commands:
                try:
                    main(argv)
                except SystemExit as exc:
                    # a command refused outright (verify of a mesh that a
                    # failed span never wrote) writes no report
                    invariants[tag] = {"exit": str(exc.code)}
                    continue
                with open(tag + ".json") as fh:
                    report = json.load(fh)
                report.pop("timings", None)
                digests[tag + ".json"] = _sha(json.dumps(
                    report, sort_keys=True).encode())
                invariants[tag] = {key: report[key] for key in INVARIANTS
                                   if key in report}
                if tag == "span" and os.path.exists("m.off"):
                    digests["m.off"] = _sha(Path("m.off").read_bytes())
        finally:
            os.chdir(here)
    return digests, invariants


def manifest() -> dict:
    """{"digests": {case: ...}, "invariants": {case: ...}} of every
    case."""
    out = {"digests": {}, "invariants": {}}
    for name, poly, commands in cases():
        out["digests"][name], out["invariants"][name] = run_case(
            poly, commands)
    return out


if __name__ == "__main__":
    MANIFEST.write_text(json.dumps(manifest(), indent=1, sort_keys=True)
                        + "\n")
    print("wrote %s" % MANIFEST)
