"""The pinned output manifest: sha256 digests of what the CLI writes.

Each case runs one `plspan` command in a scratch directory, on relative
file names, and records the digest of the polygon file it starts from,
of the mesh file it writes (span) and of its JSON report with the
run-dependent `timings` key removed.
tests/test_golden.py compares every case against tests/golden.json and
names the cases whose digests moved, so a change that is meant to keep
outputs byte-identical shows it, and one that is not lists what moved.

Rewrite the manifest, after a deliberate output change, with

    PYTHONPATH=src python tests/golden.py
"""

import hashlib
import json
import os
import tempfile
from pathlib import Path

from plspan.cli import main
from plspan.polygon import (gen_random, gen_torus_stick, gen_twist_writhe,
                            write_polygon)

MANIFEST = Path(__file__).with_name("golden.json")


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


def run_case(poly, commands) -> dict:
    """{file: digest} of the polygon file and of the files the commands
    write; reports lose their timings first."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            write_polygon(poly, "p.poly")
            out = {"p.poly": _sha(Path("p.poly").read_bytes())}
            for tag, argv in commands:
                main(argv)
                with open(tag + ".json") as fh:
                    report = json.load(fh)
                report.pop("timings", None)
                out[tag + ".json"] = _sha(json.dumps(
                    report, sort_keys=True).encode())
                if tag == "span" and os.path.exists("m.off"):
                    out["m.off"] = _sha(Path("m.off").read_bytes())
        finally:
            os.chdir(here)
    return out


def digests() -> dict:
    return {name: run_case(poly, commands)
            for name, poly, commands in cases()}


if __name__ == "__main__":
    MANIFEST.write_text(json.dumps(digests(), indent=1, sort_keys=True)
                        + "\n")
    print("wrote %s" % MANIFEST)
