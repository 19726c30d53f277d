import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import plspan
import plspan.cli
import plspan.mesh
import plspan.otherdims
from plspan.cli import main
from plspan.geom import Point
from plspan.mesh import CertificateError, TriMesh
from plspan.polygon import (
    ClosedPolygon,
    gen_planar_ngon,
    gen_random,
    gen_torus_stick,
    polygon_text,
    read_polygon,
    write_polygon,
)


def run(*argv):
    return main([str(a) for a in argv])


def load(path):
    with open(path) as fh:
        return json.load(fh)


def stripped(path):
    rep = load(path)
    rep.pop("timings", None)
    return json.dumps(rep, sort_keys=True)


def test_generate_torus_file(tmp_path, capsys):
    out = tmp_path / "p.poly"
    assert run("generate", "--family", "torus", "--m", 3, "--out", out) == 0
    assert capsys.readouterr().out.strip() == "n=6 dim=3"
    poly = read_polygon(str(out))
    assert len(poly.vertices) == 6
    assert poly.dim == 3


@pytest.mark.parametrize("m", [13, 16, 20])
def test_generate_torus_past_m_12(tmp_path, m):
    # the quadratic regime: 2m edges, writhe m(m - 2), surplus crossings
    # in cancelling pairs
    from plspan.diagram import project_polygon
    out = tmp_path / "p.poly"
    assert run("generate", "--family", "torus", "--m", m, "--out", out) == 0
    poly = read_polygon(str(out))
    assert len(poly.vertices) == 2 * m
    dia = project_polygon(poly, seed=0)
    assert dia.writhe == m * (m - 2)
    assert (len(dia.crossings) - dia.writhe) % 2 == 0


def test_generate_stdout(capsys):
    assert run("generate", "--family", "ngon", "--n", 5) == 0
    cap = capsys.readouterr()
    assert cap.out.startswith("pl-polygon 2 5")
    assert "n=5 dim=2" in cap.err


def test_generate_twist_size(tmp_path):
    out = tmp_path / "tw.poly"
    assert run("generate", "--family", "twist", "--m", 2, "--out", out) == 0
    assert len(read_polygon(str(out)).vertices) <= 15


def test_span_trefoil(tmp_path):
    poly = tmp_path / "p.poly"
    mesh = tmp_path / "m.off"
    report = tmp_path / "r.json"
    run("generate", "--family", "torus", "--m", 3, "--out", poly)
    assert run("span", poly, "--mesh-out", mesh, "--report", report) == 0
    rep = load(report)
    assert rep["t"] == 56
    assert rep["strategy"] == "seifert"
    assert rep["chi"] == -1
    assert rep["genus"] == 1
    assert all(rep["certificates"].values())
    assert rep["bounds"]["iso_ratio"] == "14/9"
    assert mesh.exists()


@pytest.mark.parametrize("dim,strategy", [(2, "auto"), (3, "auto"),
                                          (4, "auto"), (4, "embedded4"),
                                          (5, "auto")])
def test_span_rejects_bowtie_up_front(tmp_path, dim, strategy):
    # a bowtie is refused before any builder runs, with the exact
    # crossing point, instead of exhausting a retry budget
    pad = [1] * (dim - 2)
    bow = ClosedPolygon([Point([0, 0] + pad), Point([4, 4] + pad),
                         Point([4, 0] + pad), Point([0, 4] + pad)])
    poly, report = tmp_path / "bow.poly", tmp_path / "bow.json"
    write_polygon(bow, str(poly))
    assert run("span", poly, "--strategy", strategy,
               "--report", report) == 1
    rep = load(report)
    assert rep["error_kind"] == "polygon-not-embedded"
    assert rep["error"] == "polygon is not embedded: PolygonViolation(0, " \
        "2, %r)" % Point([2, 2] + pad)
    assert rep["certificates"] == {}
    assert rep["timings"]["construct"] < 1


def test_non_simple_ring_with_ears_is_refused(tmp_path):
    # edges 0 and 3 of this hexagon cross, yet every corner the ear rule
    # clips has an empty closed triangle: the ears make n - 2 triangles,
    # the certificate of their disk refuses them, and span refuses the
    # polygon before any ear
    hexagon = ClosedPolygon([Point(p) for p in (
        (6, "5/2"), (1, 4), (5, "9/2"), (3, "7/2"), (2, "3/2"), (2, 5))])
    assert len(plspan.geom.earclip_2d(hexagon.hom)) == 4
    with pytest.raises(CertificateError, match="self-intersection"):
        plspan.otherdims.earclip_2d(hexagon)
    poly, report = tmp_path / "hex.poly", tmp_path / "hex.json"
    write_polygon(hexagon, str(poly))
    assert run("span", poly, "--strategy", "earclip",
               "--report", report) == 1
    assert load(report)["error_kind"] == "polygon-not-embedded"


def test_span_auto_dispatch(tmp_path):
    ngon = tmp_path / "flat.poly"
    run("generate", "--family", "ngon", "--n", 5, "--out", ngon)
    rep_path = tmp_path / "flat.json"
    assert run("span", ngon, "--report", rep_path) == 0
    rep = load(rep_path)
    assert rep["strategy"] == "earclip"
    assert rep["t"] == 3

    tri5 = tmp_path / "tri5.poly"
    tri5.write_text("pl-polygon 5 3\n0 0 0 0 0\n4 0 0 0 0\n0 4 0 0 0\n")
    rep_path = tmp_path / "tri5.json"
    assert run("span", tri5, "--report", rep_path) == 0
    rep = load(rep_path)
    assert rep["strategy"] == "cone"
    assert rep["t"] == 3

    r4 = tmp_path / "r4.poly"
    run("generate", "--family", "random", "--n", 6, "--dim", 4,
        "--seed", 1, "--out", r4)
    rep_path = tmp_path / "r4.json"
    assert run("span", r4, "--report", rep_path) == 0
    rep = load(rep_path)
    assert rep["strategy"] == "immersed4"
    assert rep["t"] == 18
    assert rep["certificate"] == "complementary-immersed"


def test_span_embedded4(tmp_path):
    r4 = tmp_path / "h4.poly"
    run("generate", "--family", "random", "--n", 6, "--dim", 4,
        "--seed", 1, "--out", r4)
    rep_path = tmp_path / "h4.json"
    assert run("span", r4, "--strategy", "embedded4",
               "--report", rep_path) == 0
    rep = load(rep_path)
    assert rep["t"] <= 21 * 36
    assert rep["certificates"]["embedded"]


def test_span_strategy_mismatch(tmp_path):
    poly = tmp_path / "p.poly"
    run("generate", "--family", "torus", "--m", 3, "--out", poly)
    with pytest.raises(SystemExit):
        run("span", poly, "--strategy", "cone")


def test_span_determinism(tmp_path):
    poly = tmp_path / "p.poly"
    run("generate", "--family", "random", "--n", 9, "--dim", 3,
        "--seed", 4, "--out", poly)
    m1, r1 = tmp_path / "a.off", tmp_path / "a.json"
    m2, r2 = tmp_path / "b.off", tmp_path / "b.json"
    assert run("span", poly, "--seed", 7, "--mesh-out", m1,
               "--report", r1) == 0
    assert run("span", poly, "--seed", 7, "--mesh-out", m2,
               "--report", r2) == 0
    assert m1.read_bytes() == m2.read_bytes()
    assert stripped(r1) == stripped(r2)


def test_verify_pass_and_forced_failures(tmp_path):
    poly = tmp_path / "p.poly"
    mesh = tmp_path / "m.off"
    run("generate", "--family", "torus", "--m", 3, "--out", poly)
    run("span", poly, "--mesh-out", mesh, "--report", tmp_path / "s.json")
    rep_path = tmp_path / "v.json"
    assert run("verify", mesh, "--polygon", poly,
               "--report", rep_path) == 0
    assert all(load(rep_path)["certificates"].values())

    lines = mesh.read_text().splitlines()
    nv, nf, _ = lines[1].split()

    # dropping one triangle opens the boundary
    cut = tmp_path / "cut.off"
    cut.write_text("\n".join([lines[0], "%s %d 0" % (nv, int(nf) - 1)]
                             + lines[2:-1]) + "\n")
    rep_path = tmp_path / "vc.json"
    assert run("verify", cut, "--polygon", poly,
               "--report", rep_path) == 1
    assert load(rep_path)["certificates"]["boundary_match"] is False

    # duplicating one triangle breaks the edge census
    dup = tmp_path / "dup.off"
    dup.write_text("\n".join([lines[0], "%s %d 0" % (nv, int(nf) + 1)]
                             + lines[2:] + [lines[-1]]) + "\n")
    rep_path = tmp_path / "vd.json"
    assert run("verify", dup, "--polygon", poly,
               "--report", rep_path) == 1
    rep = load(rep_path)
    assert rep["certificates"]["manifold"] is False
    assert "manifold_witness" in rep


def test_verify_immersed_mode(tmp_path):
    poly = tmp_path / "p.poly"
    mesh = tmp_path / "m.off"
    run("generate", "--family", "random", "--n", 5, "--dim", 4,
        "--seed", 2, "--out", poly)
    assert run("span", poly, "--mesh-out", mesh,
               "--report", tmp_path / "s.json") == 0
    rep_path = tmp_path / "v.json"
    assert run("verify", mesh, "--polygon", poly, "--mode", "immersed",
               "--report", rep_path) == 0
    assert load(rep_path)["certificates"]["complementary-immersed"]


def test_verify_immersed_mode_accepts_an_r3_span(tmp_path):
    # the R^3 surface's boundary subdivides the polygon's edges at the
    # crossing marks; the immersed certificate reads those pieces, which
    # meet the walls beside them only at shared ends (criterion 01's
    # polygon 10)
    poly, mesh = tmp_path / "p.poly", tmp_path / "m.off"
    write_polygon(gen_random(8, 3, seed=4), str(poly))
    assert run("span", poly, "--mesh-out", mesh,
               "--report", tmp_path / "s.json") == 0
    assert load(tmp_path / "s.json")["c"] > 0
    rep_path = tmp_path / "v.json"
    assert run("verify", mesh, "--polygon", poly, "--mode", "immersed",
               "--report", rep_path) == 0
    assert load(rep_path)["certificates"] == {
        "manifold": True, "boundary_match": True,
        "complementary-immersed": True}


@pytest.mark.parametrize("mode", ["embedded", "immersed"])
def test_verify_rejects_a_polygon_of_another_dimension(tmp_path, mode):
    # an R^4 mesh against an R^3 polygon is refused before any
    # certificate runs: exit status 1, both dimensions named, no traceback
    poly4, poly3 = tmp_path / "p4.poly", tmp_path / "p3.poly"
    mesh, rep_path = tmp_path / "m.off", tmp_path / "v.json"
    write_polygon(gen_random(5, 4, seed=2), str(poly4))
    write_polygon(gen_random(5, 3, seed=2), str(poly3))
    assert run("span", poly4, "--mesh-out", mesh,
               "--report", tmp_path / "s.json") == 0
    src = str(Path(plspan.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-m", "plspan", "verify", str(mesh), "--polygon",
         str(poly3), "--mode", mode, "--report", str(rep_path)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.returncode == 1
    assert out.stderr == "--polygon is in R^3 but the mesh is in R^4\n"
    assert not rep_path.exists()


def test_bounds_planar_all_ones(tmp_path):
    poly = tmp_path / "p.poly"
    run("generate", "--family", "ngon", "--n", 7, "--out", poly)
    rep_path = tmp_path / "b.json"
    assert run("bounds", poly, "--report", rep_path) == 0
    rep = load(rep_path)
    assert all(v == 1 for v in rep["bounds"]["lower"].values())
    assert rep["bounds"]["upper"]["planar"] == 5


def test_bounds_torus_with_genus(tmp_path):
    poly = tmp_path / "p.poly"
    run("generate", "--family", "torus", "--m", 5, "--out", poly)
    rep_path = tmp_path / "b.json"
    assert run("bounds", poly, "--knot-genus", 6, "--report", rep_path) == 0
    rep = load(rep_path)
    assert rep["bounds"]["lower"]["genus"] == 25
    assert rep["max_abs_writhe"] == 15
    assert len(rep["projections"]) == 8


def test_bounds_twist_writhe(tmp_path):
    poly = tmp_path / "p.poly"
    run("generate", "--family", "twist", "--m", 3, "--out", poly)
    rep_path = tmp_path / "b.json"
    assert run("bounds", poly, "--report", rep_path) == 0
    assert load(rep_path)["bounds"]["lower"]["writhe"] == 13


@pytest.mark.parametrize("count", [0, -1])
def test_bounds_rejects_nonpositive_projections(tmp_path, capsys, count):
    poly = tmp_path / "p.poly"
    run("generate", "--family", "torus", "--m", 3, "--out", poly)
    with pytest.raises(SystemExit) as exc:
        run("bounds", poly, "--projections", count)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: plspan bounds")
    assert "%d is not a positive integer" % count in err


@pytest.mark.parametrize("command,option,value,message", [
    ("bounds", "--knot-genus", "-1", "knot genus must be a nonnegative"),
    ("bounds", "--knot-genus", "1/2", "invalid literal for int()"),
    ("bounds", "--unoriented-genus", "abc", "Invalid literal for Fraction"),
    ("bounds", "--unoriented-genus", "1/3", "must be a multiple of 1/2"),
    ("bounds", "--unoriented-genus", "-1/2", "must be nonnegative"),
    ("bounds", "--unoriented-genus", "1/0", "zero denominator in '1/0'"),
    ("span", "--knot-genus", "-1", "knot genus must be a nonnegative"),
])
def test_bad_genus_is_a_usage_error(tmp_path, capsys, monkeypatch, command,
                                    option, value, message):
    # the bound that reads the option rejects it before anything is built
    import plspan.cli as cli
    poly = tmp_path / "p.poly"
    run("generate", "--family", "torus", "--m", 3, "--out", poly)
    monkeypatch.setattr(cli, "project_polygon", None)
    monkeypatch.setattr(cli, "spanning_surface_r3", None)
    with pytest.raises(SystemExit) as exc:
        run(command, poly, "%s=%s" % (option, value))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: plspan %s" % command)
    assert "argument %s: %s: " % (option, value) in err
    assert message in err


def test_env_seed(tmp_path, monkeypatch):
    # main keeps one parser per process and reads PLSPAN_SEED on each call
    poly = tmp_path / "p.poly"
    write_polygon(gen_planar_ngon(5), str(poly))
    got = []
    for env in ("5", None):
        if env is None:
            monkeypatch.delenv("PLSPAN_SEED")
        else:
            monkeypatch.setenv("PLSPAN_SEED", env)
        out, report = tmp_path / "r.poly", tmp_path / "r.json"
        assert run("generate", "--family", "random", "--n", 6, "--dim", 3,
                   "--out", out) == 0
        assert run("span", poly, "--report", report) == 0
        got.append((out.read_text(), load(report)["seed"]))
    assert got == [(polygon_text(gen_random(6, 3, seed=s)), s)
                   for s in (5, 0)]


def test_env_seed_must_be_an_integer(tmp_path, monkeypatch, capsys):
    # a PLSPAN_SEED that is not an integer is a usage error, not seed 0;
    # an explicit --seed still wins over it
    out = tmp_path / "a.poly"
    monkeypatch.setenv("PLSPAN_SEED", "abc")
    for cmd in (["generate", "--family", "random", "--n", 6, "--dim", 3],
                ["span", out]):
        with pytest.raises(SystemExit) as exc:
            run(*cmd)
        assert exc.value.code == 2
        assert "argument --seed: invalid int value: 'abc'" \
            in capsys.readouterr().err
    assert run("generate", "--family", "random", "--n", 6, "--dim", 3,
               "--seed", 5, "--out", out) == 0
    assert out.read_text() == polygon_text(gen_random(6, 3, seed=5))


# main builds its parser once per process; what must stay per call is
# checked across calls in this one

def test_main_builds_the_parser_once(monkeypatch):
    import plspan.cli as cli
    builds = []
    build = cli.build_parser

    def spy():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", spy)
    monkeypatch.setattr(cli, "_PARSER", None)
    for m in (3, 4, 5):
        assert run("generate", "--family", "torus", "--m", m) == 0
    assert len(builds) == 1


def test_usage_error_leaves_the_next_call_alone(tmp_path, monkeypatch):
    poly = tmp_path / "p.poly"
    write_polygon(gen_planar_ngon(5), str(poly))
    reports = [tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"]
    assert run("span", poly, "--report", reports[0]) == 0
    with pytest.raises(SystemExit) as exc:
        run("span", poly, "--strategy", "bogus")
    assert exc.value.code == 2
    assert run("span", poly, "--report", reports[1]) == 0
    monkeypatch.setenv("PLSPAN_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        run("span", poly)
    assert exc.value.code == 2
    monkeypatch.delenv("PLSPAN_SEED")
    assert run("span", poly, "--report", reports[2]) == 0
    assert len({stripped(r) for r in reports}) == 1


def test_wrapper_set_after_a_call_sees_the_next(tmp_path, monkeypatch):
    import plspan.cli as cli
    poly = tmp_path / "p.poly"
    write_polygon(gen_planar_ngon(5), str(poly))
    assert run("span", poly, "--report", tmp_path / "a.json") == 0
    seen = []
    span = cli.cmd_span

    def wrapper(args):
        seen.append(args.polygon)
        return span(args)

    monkeypatch.setattr(cli, "cmd_span", wrapper)
    assert run("span", poly, "--report", tmp_path / "b.json") == 0
    assert seen == [str(poly)]


TRIANGLE = "pl-polygon 2 3\n0 0\n1 0\n0 1\n"
TRIANGLE_OFF = "pl-off 2\n3 1 0\n0 0\n1 0\n0 1\n3 0 1 2\n"
BAD_INPUTS = {
    "polygon count": ("span", "pl-polygon 2 x\n0 0\n",
                      "invalid literal for int() with base 10: 'x'"),
    "polygon coordinate": ("span", TRIANGLE.replace("1 0", "x 0"),
                           "Invalid literal for Fraction: 'x'"),
    "polygon header": ("bounds", "pl-off 2\n", "not a pl-polygon file"),
    "polygon vertices": ("bounds", TRIANGLE + "2 2\n",
                         "vertex count does not match header"),
    "missing polygon": ("bounds", None, "No such file or directory"),
    "mesh count line": ("verify", TRIANGLE_OFF.replace("3 1 0", "3 1"),
                        "pl-off count line must be 'vertices faces 0'"),
    "mesh count line third field": (
        "verify", TRIANGLE_OFF.replace("3 1 0", "3 1 7"),
        "pl-off count line must be 'vertices faces 0'"),
    "mesh coordinate": ("verify", TRIANGLE_OFF.replace("\n1 0", "\nx 0"),
                        "Invalid literal for Fraction: 'x'"),
    "mesh face": ("verify", TRIANGLE_OFF.replace("0 1 2", "0 1 7"),
                  "triangle references missing vertex"),
    "missing mesh": ("verify", None, "No such file or directory"),
    "polygon zero denominator": ("span", TRIANGLE.replace("1 0", "1/0 0"),
                                 "zero denominator in '1/0'"),
    "bounds zero denominator": ("bounds", TRIANGLE.replace("0 1", "0 -2/0"),
                                "zero denominator in '-2/0'"),
    "mesh zero denominator": ("verify",
                              TRIANGLE_OFF.replace("\n1 0", "\n1/0 0"),
                              "zero denominator in '1/0'"),
    "mesh negative vertex count": (
        "verify", TRIANGLE_OFF.replace("3 1 0", "-1 3 0"),
        "pl-off count line '-1 3 0' has a negative count"),
    "mesh negative face count": (
        "verify", TRIANGLE_OFF.replace("3 1 0", "3 -1 0"),
        "pl-off count line '3 -1 0' has a negative count"),
}


def _plspan(*argv):
    src = str(Path(plspan.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "plspan",
                           *(str(a) for a in argv)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_file_exits_with_one_line(tmp_path, case):
    command, text, reason = BAD_INPUTS[case]
    path = tmp_path / "input"
    if text is not None:
        path.write_text(text)
    out = _plspan(command, path)
    assert out.returncode == 1
    assert out.stderr == "%s: %s\n" % (path, reason)
    assert out.stdout == ""


@pytest.mark.parametrize("flag", ["--mesh-out", "--report", "--out"])
def test_unwritable_output_exits_with_one_line(tmp_path, flag):
    # an output path in a missing directory ends the command as a
    # missing input does: one line naming it, exit status 1, no traceback
    target = tmp_path / "missing" / "out"
    if flag == "--out":
        out = _plspan("generate", "--family", "ngon", "--n", 5, flag, target)
    else:
        poly = tmp_path / "p.poly"
        poly.write_text(TRIANGLE)
        out = _plspan("span", poly, flag, target)
    assert out.returncode == 1
    assert out.stderr == "%s: No such file or directory\n" % target
    assert out.stdout == ""


# triangle 0 is flat (three collinear vertices), triangle 1 is not
FLAT_OFF = ("pl-off 3\n5 2 0\n0 0 0\n2 0 0\n4 0 0\n1 -1 -1\n1 1 1\n"
            "3 0 1 2\n3 0 3 4\n")


@pytest.mark.parametrize("mode", ["embedded", "immersed"])
def test_verify_reports_a_degenerate_triangle(tmp_path, mode):
    # the interior tests take nondegenerate triangles only: certify fails
    # the interior certificate by naming the flat triangle, and verify
    # writes its report and exits 1 instead of raising
    mesh, rep_path = tmp_path / "a.off", tmp_path / "v.json"
    mesh.write_text(FLAT_OFF)
    poly = []
    if mode == "immersed":
        poly = ["--polygon", tmp_path / "p.poly"]
        poly[1].write_text("pl-polygon 3 3\n0 0 0\n4 0 0\n1 1 1\n")
    out = _plspan("verify", mesh, *poly, "--mode", mode,
                  "--report", rep_path)
    assert (out.returncode, out.stdout, out.stderr) == (1, "", "")
    rep = load(rep_path)
    kind = "embedded" if mode == "embedded" else "complementary-immersed"
    assert rep["certificates"][kind] is False
    assert rep["certificates"]["manifold"] is False
    assert rep["manifold_witness"] == "triangle 0 is degenerate"
    assert rep["violation_witness"] == "triangle 0 is degenerate"


@pytest.mark.parametrize("args, reason", [
    (["torus", "--m", 2], "need m >= 3"),
    (["ngon", "--n", 5, "--dim", 5], "planar generator supports dim 2 or 3"),
    (["random", "--n", 2, "--dim", 3], "need n >= 3"),
])
def test_generate_out_of_range_exits_with_one_line(args, reason):
    out = _plspan("generate", "--family", *args)
    assert out.returncode == 1
    assert out.stderr == "--family %s: %s\n" % (args[0], reason)
    assert "Traceback" not in out.stderr


def test_generate_layout_failure_exits_with_one_line(monkeypatch):
    # a generator that finds no layout raises AssertionError; generate
    # reports it as it reports an out-of-range parameter
    def no_layout(m):
        raise AssertionError("no working stick layout for m=%d" % m)

    monkeypatch.setattr(plspan.cli, "gen_torus_stick", no_layout)
    with pytest.raises(SystemExit) as exit_:
        run("generate", "--family", "torus", "--m", 13)
    assert exit_.value.code == \
        "--family torus: no working stick layout for m=13"


# one input per strategy, each built at its first attempt
STRATEGY_INPUTS = {
    "earclip": (lambda: gen_planar_ngon(6), "embedded"),
    "seifert": (lambda: gen_torus_stick(3), "embedded"),
    "immersed4": (lambda: gen_random(5, 4, seed=2), "immersed"),
    "embedded4": (lambda: gen_random(4, 4, seed=0), "embedded"),
    "cone": (lambda: gen_random(6, 5, seed=0), "embedded"),
}


def _spy_certificate_checks(monkeypatch):
    """Count every call of the certificate checks, through whichever
    module binding the caller uses."""
    calls = {}

    def counting(name, fn):
        def spy(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return spy

    for fn in (plspan.mesh.check_embedded, plspan.mesh.boundary_matches,
               plspan.otherdims.polygon_contact_clean):
        spy = counting(fn.__name__, fn)
        for name, mod in list(sys.modules.items()):
            if name.startswith("plspan."):
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        monkeypatch.setattr(mod, attr, spy)
    for meth in ("validate_manifold", "orientation_propagate",
                 "euler_characteristic"):
        monkeypatch.setattr(TriMesh, meth,
                            counting(meth, getattr(TriMesh, meth)))
    return calls


@pytest.mark.parametrize("strategy", sorted(STRATEGY_INPUTS))
def test_span_derives_each_certificate_once(tmp_path, monkeypatch,
                                            strategy):
    make, mode = STRATEGY_INPUTS[strategy]
    poly, report = tmp_path / "p.poly", tmp_path / "r.json"
    write_polygon(make(), str(poly))
    calls = _spy_certificate_checks(monkeypatch)
    assert run("span", poly, "--strategy", strategy,
               "--report", report) == 0
    interior = ("polygon_contact_clean" if mode == "immersed"
                else "check_embedded")
    assert calls == {"validate_manifold": 1, "orientation_propagate": 1,
                     "euler_characteristic": 1, "boundary_matches": 1,
                     interior: 1}
    assert load(report)["timings"].keys() == {"construct"}


@pytest.mark.parametrize("strategy", sorted(STRATEGY_INPUTS))
def test_span_checks_the_polygon_once(tmp_path, monkeypatch, strategy):
    # the up-front check is the only embeddedness test of the input
    # polygon; embedded4 also checks its projection, another polygon
    make, _ = STRATEGY_INPUTS[strategy]
    poly, report = tmp_path / "p.poly", tmp_path / "r.json"
    write_polygon(make(), str(poly))
    checked = []
    validate = plspan.polygon.validate_embedded

    def spy(p):
        checked.append(p.vertices)
        return validate(p)

    for mod in (plspan.cli, plspan.otherdims):
        monkeypatch.setattr(mod, "validate_embedded", spy)
    assert run("span", poly, "--strategy", strategy,
               "--report", report) == 0
    assert checked.count(read_polygon(str(poly)).vertices) == 1


@pytest.mark.parametrize("strategy", sorted(STRATEGY_INPUTS))
def test_span_reports_embedded_only_for_the_embedded_certificate(
        tmp_path, strategy):
    # an immersed disk may cross itself, so its report leaves "embedded"
    # null and carries its verdict under its own certificate's name
    make, mode = STRATEGY_INPUTS[strategy]
    poly, report = tmp_path / "p.poly", tmp_path / "r.json"
    write_polygon(make(), str(poly))
    assert run("span", poly, "--strategy", strategy,
               "--report", report) == 0
    rep = load(report)
    if mode == "immersed":
        assert rep["certificate"] == "complementary-immersed"
        assert rep["embedded"] is None
        assert "embedded" not in rep["certificates"]
        assert rep["certificates"]["complementary-immersed"] is True
    else:
        assert rep["certificate"] == "embedded"
        assert rep["embedded"] is True


@pytest.mark.parametrize("strategy", sorted(STRATEGY_INPUTS))
def test_verify_agrees_with_span(tmp_path, strategy):
    make, mode = STRATEGY_INPUTS[strategy]
    poly, mesh = tmp_path / "p.poly", tmp_path / "m.off"
    span_rep, verify_rep = tmp_path / "s.json", tmp_path / "v.json"
    write_polygon(make(), str(poly))
    assert run("span", poly, "--strategy", strategy, "--mesh-out", mesh,
               "--report", span_rep) == 0
    assert run("verify", mesh, "--polygon", poly, "--mode", mode,
               "--report", verify_rep) == 0
    spanned, verified = load(span_rep), load(verify_rep)
    certs = verified["certificates"]
    assert set(certs) == {"manifold", "boundary_match",
                          spanned["certificate"]}
    assert certs == {k: spanned["certificates"][k] for k in certs}
    for key in ("t", "chi", "orientable"):
        assert verified[key] == spanned[key]


def _bounds_oracle(path, poly, projections=8):
    """cmd_bounds' report on an embedded R^3 polygon, projecting every
    seed."""
    from plspan.bounds import bounds_report
    from plspan.cli import _plain
    from plspan.diagram import project_polygon
    projs = []
    for seed in range(projections):
        dia = project_polygon(poly, seed=seed)
        projs.append({"seed": seed, "c": len(dia.crossings),
                      "w": dia.writhe})
    w = max((p["w"] for p in projs), key=abs)
    report = {"input": str(path), "n": len(poly.vertices), "dim": 3,
              "projections": projs, "max_abs_writhe": abs(w),
              "bounds": bounds_report(len(poly.vertices), dim=3,
                                      c=projs[0]["c"], w=w, g=None,
                                      gstar=None)}
    return json.loads(json.dumps(_plain(report)))


def _spy_projections(monkeypatch):
    import plspan.cli
    seeds = []
    project = plspan.cli.project_polygon

    def spy(poly, seed=0, **kwargs):
        seeds.append(seed)
        return project(poly, seed=seed, **kwargs)

    monkeypatch.setattr(plspan.cli, "project_polygon", spy)
    return seeds


@pytest.mark.parametrize("kept", [True, False])
def test_bounds_projects_once_when_the_vertical_shadow_is_kept(
        tmp_path, monkeypatch, kept):
    if kept:
        polys = [gen_torus_stick(3), gen_random(10, 3, seed=5)]
    else:
        # a vertical edge, and a vertex over another edge: seed 0 shears
        polys = [ClosedPolygon([Point(c) for c in pts]) for pts in (
            [(0, 0, 0), (0, 0, 2), (3, 1, 3), (4, -1, 1)],
            [(0, 0, 0), (4, 0, 0), (4, 3, 0), (2, 3, 1), (2, 0, 2),
             (1, -3, 2)])]
    for k, poly in enumerate(polys):
        path, report = tmp_path / ("p%d.poly" % k), tmp_path / "b.json"
        write_polygon(poly, str(path))
        seeds = _spy_projections(monkeypatch)
        assert run("bounds", path, "--report", report) == 0
        assert seeds == ([0] if kept else list(range(8)))
        monkeypatch.undo()
        assert load(report) == _bounds_oracle(path, poly)
        assert len(load(report)["projections"]) == 8


@pytest.mark.parametrize("pts,witness", [
    ([(0, 0, 0), (2, 2, 0), (2, 0, 0), (0, 2, 0)], (0, 2, (1, 1, 0))),
    ([(0, 0, 0), (4, 0, 0), (4, 3, 0), (2, 0, 0), (2, -3, 1)],
     (0, 2, (2, 0, 0))),
    ([(0, 0), (4, 4), (4, 0), (0, 4)], (0, 2, (2, 2))),
    ([(0, 0, 1, 1), (4, 4, 1, 1), (4, 0, 1, 1), (0, 4, 1, 1)],
     (0, 2, (2, 2, 1, 1))),
])
def test_bounds_rejects_non_embedded_up_front(tmp_path, pts, witness):
    # strands that meet in space have no over/under, and a vertex on
    # another edge defeats every shear: both are rejected with the
    # witness, as span does, instead of a traceback or a spent budget;
    # so is a bowtie in the plane or in R^4, which has no diagram
    poly, report = tmp_path / "bad.poly", tmp_path / "bad.json"
    write_polygon(ClosedPolygon([Point(p) for p in pts]), str(poly))
    assert run("bounds", poly, "--report", report) == 1
    rep = load(report)
    assert rep["error_kind"] == "polygon-not-embedded"
    assert rep["error"] == "polygon is not embedded: PolygonViolation(" \
        "%d, %d, %r)" % (witness[0], witness[1], Point(witness[2]))
    assert "bounds" not in rep
