"""Layer tracer for the plspan benchmark.

The tracer wraps the public functions of every plspan module from the
outside (nothing under src/ changes).  Modules bind helpers such as
check_embedded or orient2d by name at import time, so a wrapper stored
only on the defining module would miss most calls; install() therefore
replaces every module attribute and class attribute in the package that
is the original function object.

Two kinds of wrapper share one call stack:

* spans, for the layer boundaries of cli, polygon, diagram, seifert,
  mesh, otherdims and bounds.  Each call is kept in memory as
  (name, start, end, parent span id, op id).  A span's self time is its
  duration minus the durations of its child spans.
* counters, for the exact kernel (module geom).  Its primitives run up to
  millions of times per operation, so they only add to a per-name call
  count and time.  Kernel time stays inside the calling span's self time;
  a counter's own self time excludes nested kernel calls only.
"""

from __future__ import annotations

import sys
import time
import types
from fractions import Fraction

LAYERS = ("cli", "polygon", "diagram", "seifert", "mesh", "geom",
          "otherdims", "bounds")
KERNEL_LAYER = "geom"
# Scalar coercions called for every coordinate; wrapping them would
# measure the tracer rather than the kernel.
SKIP = {"geom.rat", "geom.rat_str", "geom.sign"}
# Public TriMesh methods that do whole-mesh work.
MESH_METHODS = ("validate_manifold", "orientation_propagate", "transform",
                "connected_components", "boundary_components", "genus",
                "euler_characteristic")


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Patches the plspan package; undo with uninstall()."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.op_id = None
        # call frames: [child span time, child kernel time, span id]
        self._stack: list[list] = []
        self._undo: list[tuple] = []
        self._hooks = self._post_hooks()

    # -- patching -------------------------------------------------------
    def _targets(self):
        mods = {name: sys.modules["plspan." + name] for name in LAYERS}
        out = []
        for layer, mod in mods.items():
            for attr, fn in vars(mod).items():
                if (isinstance(fn, types.FunctionType)
                        and not attr.startswith("_")
                        and fn.__module__ == mod.__name__
                        and "%s.%s" % (layer, attr) not in SKIP):
                    out.append(("%s.%s" % (layer, attr), layer, fn))
        tri = mods["mesh"].TriMesh
        for meth in MESH_METHODS:
            out.append(("mesh.TriMesh.%s" % meth, "mesh", vars(tri)[meth]))
        return mods, out

    def install(self) -> None:
        mods, targets = self._targets()
        wrappers = {}
        for name, layer, fn in targets:
            wrappers[id(fn)] = (fn, self._wrap(name, fn,
                                               layer == KERNEL_LAYER))
        holders = list(mods.values())
        for mod in mods.values():
            holders += [v for v in vars(mod).values()
                        if isinstance(v, type)
                        and v.__module__ == mod.__name__]
        for holder in holders:
            for attr, val in list(vars(holder).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(holder, attr, hit[1])
                    self._undo.append((holder, attr, val))

    def uninstall(self) -> None:
        for holder, attr, val in reversed(self._undo):
            setattr(holder, attr, val)
        self._undo.clear()

    # -- wrappers -------------------------------------------------------
    def _wrap(self, name, fn, kernel):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        post = self._hooks.get(name)

        if kernel:
            def counted(*args, **kwargs):
                frame = [0.0, 0.0, stack[-1][2] if stack else None]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = clock() - t0
                    stack.pop()
                    stat.calls += 1
                    stat.total += dur
                    stat.self_time += dur - frame[1]
                    if stack:
                        stack[-1][1] += dur
            counted.__wrapped__ = fn
            return counted

        def spanned(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1][2] if stack else None
            frame = [0.0, 0.0, sid]
            stack.append(frame)
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stat.calls += 1
                stat.total += dur
                stat.self_time += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                spans[sid] = (name, t0, t1, parent, self.op_id)
                if post is not None:
                    post(args, kwargs, result, exc)
        spanned.__wrapped__ = fn
        return spanned

    def _post_hooks(self):
        def bump(key, k=1):
            self.counters[key] = self.counters.get(key, 0) + k

        def tri_pairs(args, kwargs, result, exc):
            t = len(args[0].triangles)
            bump("mesh.check_embedded.tri_pairs", t * (t - 1) // 2)

        def shrink(args, kwargs, result, exc):
            if result is not None:
                # the offset factor halves on every shrink step
                start = kwargs.get("start_factor") or Fraction(1, 4)
                ratio = Fraction(start) / result.factor
                bump("seifert.mark_shrink_steps",
                     ratio.numerator.bit_length() - 1)

        def smoothing(args, kwargs, result, exc):
            if type(exc).__name__ == "SmoothingError":
                bump("seifert.smoothing_retries")

        def attempts(key):
            def hook(args, kwargs, result, exc):
                if result is not None:
                    bump(key, result[1]["attempt"] + 1)
            return hook

        return {
            "mesh.check_embedded": tri_pairs,
            "seifert.insert_interior_vertices": shrink,
            "seifert.smooth": smoothing,
            "otherdims.embedded_4d": attempts("otherdims.embedded_4d.attempts"),
            "otherdims.immersed_disk_4d":
                attempts("otherdims.immersed_disk_4d.attempts"),
            "otherdims.cone_highdim": attempts("otherdims.cone_highdim.attempts"),
        }

    # -- results --------------------------------------------------------
    def layer_self_times(self) -> dict[str, float]:
        """Self time summed per module.  Span layers partition the
        traced wall time; the geom figure is kernel time inside them."""
        out = {layer: 0.0 for layer in LAYERS}
        for name, st in self.stats.items():
            out[name.split(".", 1)[0]] += st.self_time
        return out

    def span_records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "op": o}
                for n, s, e, p, o in self.spans if n is not None]
