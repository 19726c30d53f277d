"""plspan benchmark: one client driving the CLI in a closed loop.

Run from the repository root:

    python3 bench/run.py --workload span-r3 --seed 1 --seconds 30 --trace 0

The workload's corpus is built from --seed (bench/workloads.py), set up
three times, then run pass after pass through plspan.cli.main, each call
waiting for the previous one, for as many whole passes as fit in
--seconds (at least one).  Every operation is gated (exit status,
certificates, count identities) and its outputs are digested; a pass
whose outputs differ from its first run fails.

The host this was sized on is shared, and its speed drifts: the same
work takes up to 1.8x longer for seconds or minutes at a time, in wall
and in CPU time alike.  So every operation runs right after calibrate(),
a fixed 10 ms batch of exact orientation tests on stdlib fractions that
uses no plspan code, and each op time is scaled by
CALIBRATION_REFERENCE_S / that calibration.  An op's latency is the
median of its scaled times over the passes; the unscaled figures are
printed beside them and kept in the record.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every op of a
pass twice back to back, untraced and under bench/tracer.py, and prints
the per-layer metrics per pass, with the traced/untraced op wall ratio
as the tracing overhead.  Metric names and units come from BENCHMARK.json.
The last line of standard output is the JSON result; a full record
(environment, digests, failures, spans) goes to
.bench_work/results/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

from fractions import Fraction

from tracer import Tracer
from workloads import SETUP, gate, witness

SETUP_REPS = 3
SETUP_CALIBRATIONS = 5  # before and after each set-up
WORK_DIR = ".bench_work"
# per-layer metric name -> tracer stat name, where the two differ
ALIASES = {
    "mesh.validate_manifold": "mesh.TriMesh.validate_manifold",
    "mesh.orientation_propagate": "mesh.TriMesh.orientation_propagate",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(SETUP))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _calibration_points(count=360):
    """Fixed points of R^3 with small fractional coordinates."""
    x, out = 12345, []
    for _ in range(count):
        coords = []
        for _ in range(3):
            x = (1103515245 * x + 12345) % 2 ** 31
            coords.append(Fraction(x % 201 - 100, x % 17 + 1))
        out.append(tuple(coords))
    return out


CALIBRATION = _calibration_points()
# calibrate() time on the host the benchmark was sized on (2 cores,
# Python 3.11.7) in its fast phases.  It only sets the unit of the
# scaled timings, never their ratios between commits.
CALIBRATION_REFERENCE_S = 0.0101


def calibrate():
    """Time a fixed batch of exact orientation tests on stdlib fractions.

    It does what plspan's certificates spend their time on (tuple
    differences, 3x3 determinants and their signs, bounding-box
    comparisons) but uses no plspan code, so a change to plspan never
    moves it, while a slower host slows both."""
    pts = CALIBRATION
    t0 = time.perf_counter()
    signs = 0
    for k in range(len(pts) - 3):
        a, b, c, d = pts[k:k + 4]
        if any(min(p[i] for p in (a, b)) > max(p[i] for p in (c, d))
               for i in range(3)):
            continue
        u, v, w = (tuple(q - r for q, r in zip(p, a)) for p in (b, c, d))
        det = (u[0] * (v[1] * w[2] - v[2] * w[1])
               - u[1] * (v[0] * w[2] - v[2] * w[0])
               + u[2] * (v[0] * w[1] - v[1] * w[0]))
        signs += (det > 0) - (det < 0)
    return time.perf_counter() - t0


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def sha256_json(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def dir_digest(path="."):
    return sha256_json({f: sha256_file(os.path.join(path, f))
                        for f in sorted(os.listdir(path))})


def git_commit(root):
    """HEAD of a git checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def src_digest(src):
    pkg = os.path.join(src, "plspan")
    return sha256_json({f: sha256_file(os.path.join(pkg, f))
                        for f in sorted(os.listdir(pkg)) if f.endswith(".py")})


def import_fresh(src):
    """Import plspan (and its CLI) from src as if in a new process."""
    for name in [m for m in sys.modules
                 if m == "plspan" or m.startswith("plspan.")]:
        del sys.modules[name]
    pl = importlib.import_module("plspan")
    importlib.import_module("plspan.cli")
    if not os.path.abspath(pl.__file__).startswith(src + os.sep):
        raise RuntimeError("imported plspan from %s, not %s"
                           % (pl.__file__, src))
    return pl


def max_coord_bits(path="."):
    """Largest numerator or denominator bit length in the .off meshes."""
    best = 0
    for f in os.listdir(path):
        if not f.endswith(".off"):
            continue
        with open(os.path.join(path, f)) as fh:
            lines = fh.read().split("\n")
        nv = int(lines[1].split()[0])
        for line in lines[2:2 + nv]:
            for tok in line.split():
                q = Fraction(tok)
                best = max(best, q.numerator.bit_length(),
                           q.denominator.bit_length())
    return best


class Runner:
    """Runs passes over the corpus and gates every operation."""

    def __init__(self, cli, ops):
        self.cli = cli
        self.ops = ops
        # op name -> [wall, pass, calibrate() just before the op]
        self.samples = {op.name: [] for op in ops}
        self.first = {}        # op name -> digests of its first run
        self.triangles = {}    # op name -> t from its first run
        self.failures = []
        self.attempted = 0
        self.passes = 0

    def call(self, op):
        for f in (op.report, op.mesh):
            if f and os.path.exists(f):
                os.remove(f)
        error = None
        t0 = time.perf_counter()
        try:
            code = self.cli.main(list(op.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed operation, not a bench error
            code = None
            error = traceback.format_exc(limit=4)
        return time.perf_counter() - t0, code, error

    def check(self, op, code, error):
        rep = None
        if os.path.exists(op.report):
            with open(op.report) as fh:
                rep = json.load(fh)
        why = error or gate(op, code, rep)
        if why is None:
            rep.pop("timings", None)
            digests = {"report": sha256_json(rep)}
            if op.mesh:
                digests["mesh"] = sha256_file(op.mesh)
            if op.name not in self.first:
                self.first[op.name] = digests
                self.triangles[op.name] = rep.get("t")
            elif self.first[op.name] != digests:
                why = "output differs from the first run of this op"
        return why, rep

    def run_op(self, op, cal=None):
        wall, code, error = self.call(op)
        self.attempted += 1
        why, rep = self.check(op, code, error)
        if why is None:
            self.samples[op.name].append((wall, self.passes, cal))
        else:
            self.failures.append({"pass": self.passes, "op": op.name,
                                  "argv": op.argv, "reason": why,
                                  "witness": witness(rep)})
        return wall

    def run_pass(self):
        """Every op once, each right after a calibrate() that measures
        the host's speed at that moment."""
        for op in self.ops:
            self.run_op(op, calibrate())
        self.passes += 1

    def run_traced_pass(self, tracer):
        """Every op untraced and traced back to back, in alternating order,
        so both runs of an op see the same machine state.  Returns the
        summed (untraced, traced) op wall times."""
        walls = [0.0, 0.0]
        for k, op in enumerate(self.ops):
            for traced in ((False, True), (True, False))[k % 2]:
                if traced:
                    tracer.op_id = "%d/%s" % (self.passes, op.name)
                    tracer.install()
                try:
                    walls[traced] += self.run_op(op)
                finally:
                    if traced:
                        tracer.uninstall()
        self.passes += 1
        return walls

    def run_for(self, seconds, one_pass):
        """Whole passes while the next one, taking as long as the slowest
        so far, still ends within `seconds`; returns the wall."""
        t0 = time.perf_counter()
        longest = 0.0
        while True:
            start = time.perf_counter()
            one_pass()
            end = time.perf_counter()
            longest = max(longest, end - start)
            if end - t0 + longest > seconds:
                return end - t0

    def op_latencies(self, normalized=True):
        """Per-op latency: the median over the passes of its wall time,
        each scaled by CALIBRATION_REFERENCE_S / the calibrate() time
        measured just before it when normalized."""
        return sorted(
            statistics.median(w * CALIBRATION_REFERENCE_S / c
                              if normalized else w for w, _, c in v)
            for v in self.samples.values() if v)


def tail(lat):
    """Highest percentile with at least ten samples beyond it."""
    c = len(lat)
    if c >= 11:
        return lat[c - 11], 100.0 * (c - 10) / c
    return (lat[-1] if lat else 0.0), 100.0


def timings(lat, setup_s):
    return {
        "throughput_ops_per_s": len(lat) / sum(lat),
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail(lat)[0],
        "setup_s": setup_s,
    }


def end_to_end(runner, wall, setup_s, raw_setup_s):
    lat = runner.op_latencies()
    raw = timings(runner.op_latencies(normalized=False), raw_setup_s)
    done = sum(len(v) for v in runner.samples.values())
    pct = tail(lat)[1]
    failed = len(runner.failures)
    metrics = dict(timings(lat, setup_s), **{
        "ok_frac": 1.0 - failed / runner.attempted,
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "triangles_total": sum(t for t in runner.triangles.values() if t),
    })
    notes = {
        "latency_p50_s": "median of %d per-op latencies over %d passes"
                         % (len(lat), runner.passes),
        "latency_tail_s": "p%.1f of %d per-op latencies over %d passes"
                          % (pct, len(lat), runner.passes),
        "ok_frac": "fail_frac %.4f (%d of %d operations failed)"
                   % (failed / runner.attempted, failed, runner.attempted),
        "throughput_ops_per_s": "%d ops of a pass in %.3f s at their "
                                "latencies; %d operations in %.3f s of wall"
                                % (len(lat), sum(lat), done, wall),
        "setup_s": "median of %d set-ups" % SETUP_REPS,
    }
    for key, value in raw.items():
        notes[key] += "; %.6g unscaled" % value
    return metrics, notes, raw


def per_layer(tracer, passes, ops, untraced_wall, traced_wall):
    m = {}
    for name, st in tracer.stats.items():
        m[name + ".calls"] = st.calls / passes
        m[name + ".self_s"] = st.self_time / passes
    for alias, name in ALIASES.items():
        m[alias + ".calls"] = m[name + ".calls"]
        m[alias + ".self_s"] = m[name + ".self_s"]
    for name in ("mesh.check_embedded", "mesh.boundary_matches"):
        m[name + ".calls_per_op"] = tracer.stats[name].calls / ops
    for key in ("mesh.check_embedded.tri_pairs", "seifert.mark_shrink_steps",
                "seifert.smoothing_retries",
                "otherdims.embedded_4d.attempts",
                "otherdims.immersed_disk_4d.attempts",
                "otherdims.cone_highdim.attempts"):
        m[key] = tracer.counters.get(key, 0) / passes
    for layer, s in tracer.layer_self_times().items():
        m["layer.%s.self_s" % layer] = s / passes
    m["trace.op_wall_s"] = tracer.stats["cli.main"].total / passes
    m["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return m


def select(spec_metrics, computed):
    out = {}
    for entry in spec_metrics:
        name = entry["name"]
        if name not in computed:
            raise KeyError("BENCHMARK.json lists %s, which the benchmark "
                           "does not compute" % name)
        out[name] = {"value": computed[name], "unit": entry["unit"]}
    return out


def measure(args, root, src):
    setup_times, setup_scaled, setup_digests = [], [], []
    for _ in range(SETUP_REPS):
        cal = [calibrate() for _ in range(SETUP_CALIBRATIONS)]
        t0 = time.perf_counter()
        pl = import_fresh(src)
        ops = SETUP[args.workload](pl, args.seed)
        setup_times.append(time.perf_counter() - t0)
        cal += [calibrate() for _ in range(SETUP_CALIBRATIONS)]
        setup_scaled.append(setup_times[-1] * CALIBRATION_REFERENCE_S
                            / statistics.median(cal))
        setup_digests.append(dir_digest())
    rat = pl.geom.Rat
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rat_backend": "%s.%s" % (rat.__module__, rat.__qualname__),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(root),
        "src_sha256": src_digest(src),
        "setup_reps": SETUP_REPS,
        "setup_s_each": setup_times,
    }
    runner = Runner(sys.modules["plspan.cli"], ops)
    if len(set(setup_digests)) != 1:
        runner.failures.append({"op": "setup", "reason":
                                "setup repetitions wrote different files"})
    record = {"env": env}
    if args.trace:
        tracer = Tracer()
        walls = [0.0, 0.0]

        def paired_pass():
            untraced, traced = runner.run_traced_pass(tracer)
            walls[0] += untraced
            walls[1] += traced

        runner.run_for(args.seconds, paired_pass)
        computed = per_layer(tracer, runner.passes,
                             runner.passes * len(ops), *walls)
        computed["mesh.max_coord_bits"] = max_coord_bits()
        notes = {"trace.overhead_frac":
                 "traced %.3f s against untraced %.3f s of op wall over %d "
                 "paired passes" % (walls[1], walls[0], runner.passes)}
        record["spans"] = tracer.span_records()
    else:
        wall = runner.run_for(args.seconds, runner.run_pass)
        computed, notes, raw = end_to_end(runner, wall,
                                          statistics.median(setup_scaled),
                                          statistics.median(setup_times))
        record["unscaled"] = raw
    record.update({
        "computed": computed,
        "notes": notes,
        "passes": runner.passes,
        "digests": runner.first,
        "outputs_sha256": sha256_json(runner.first),
        "triangles": runner.triangles,
        "op_order": [op.name for op in runner.ops],
        "op_latencies": {k: v for k, v in runner.samples.items()},
        "failures": runner.failures,
    })
    return runner, record


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "plspan", "__init__.py")):
        print("bench: no src/plspan under %s; run from the repository root"
              % root, file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, src)
    work_root = os.path.join(root, WORK_DIR)
    os.makedirs(os.path.join(work_root, "results"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="%s-seed%d-" % (args.workload, args.seed),
                            dir=work_root)
    os.chdir(work)
    try:
        runner, record = measure(args, root, src)
    finally:
        os.chdir(root)
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = select(wanted, record["computed"])
    failed = len(runner.failures)
    result = {"correct": failed == 0, "attempted": runner.attempted,
              "failed": failed, "metrics": metrics}
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(work_root, "results", name), "w") as fh:
        json.dump(dict(record, result=result), fh, indent=1, sort_keys=True)

    print("env: %s" % json.dumps(record["env"], sort_keys=True))
    print("outputs_sha256: %s (%d operations digested)"
          % (record["outputs_sha256"], len(runner.first)))
    for f in runner.failures:
        print("FAILED %s: %s %s" % (f["op"], f["reason"],
                                    json.dumps(f.get("witness"))))
    for key, m in metrics.items():
        note = record["notes"].get(key)
        print("%s = %.6g %s%s" % (key, m["value"], m["unit"],
                                  "  (%s)" % note if note else ""))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
