import importlib.util
import json
import sys
from pathlib import Path

import plspan.cli  # noqa: F401  (the tracer patches every layer module)

ROOT = Path(__file__).resolve().parents[1]


def test_every_per_layer_metric_has_a_traced_function(monkeypatch):
    # `bench/run.py --trace 1` raises KeyError when a per-layer metric of
    # BENCHMARK.json names a function that is gone; this makes deleting
    # such a function fail here too.  mesh.max_coord_bits is read off
    # the written files, not traced.  bench/ is read, and left unchanged.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spec = importlib.util.spec_from_file_location("bench_run",
                                                  ROOT / "bench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    tracer = run.Tracer()
    tracer.install()
    try:
        computed = run.per_layer(tracer, passes=1, ops=1, untraced_wall=1.0,
                                 traced_wall=1.0)
    finally:
        tracer.uninstall()
    wanted = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    names = [m for m in wanted if m["name"] != "mesh.max_coord_bits"]
    assert len(names) == len(wanted) - 1
    assert set(run.select(names, computed)) == {m["name"] for m in names}


def test_tracer_installed_between_calls_sees_the_next(tmp_path, monkeypatch):
    # main keeps its parser across calls and finds the command function
    # by name, so a tracer installed after a first call counts the second
    from plspan import cli
    from plspan.polygon import gen_planar_ngon, write_polygon
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracer",
                                                  ROOT / "bench" / "tracer.py")
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    poly = tmp_path / "p.poly"
    write_polygon(gen_planar_ngon(5), str(poly))
    argv = ["span", str(poly), "--report", str(tmp_path / "r.json")]
    assert cli.main(argv) == 0
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert tracer.stats["cli.main"].calls == 1
    assert tracer.stats["cli.cmd_span"].calls == 1
