"""Spans around the public functions of each pseudomode layer.

The program has no tracing of its own, so a traced pass wraps functions from
outside.  A function imported with ``from .x import f`` is a separate binding
in the importing module, so ``install`` replaces every binding of each traced
object in every loaded ``pseudomode`` module and then verifies that none of
the originals is still reachable there; a missed binding would otherwise
drop spans without any error.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span or -1.  Spans stay in memory until the pass writes them out.
"""

import functools
import os
import sys
import time
from collections import Counter, defaultdict

from scipy.sparse.linalg import LinearOperator, aslinearoperator

# module -> traced names; "Class.method" patches the class attribute
TRACED = {
    "grid": ["discretize", "DenseOperator.reduced", "resolvent_map",
             "smallest_singular_value", "residual_triple"],
    "frame": ["build_frame", "defect", "numerical_abscissa",
              "semigroup_bound_check", "evolve_approx", "regularized_inverse"],
    "fbi": ["DistortedFBI.norm", "fftconvolve", "scaled_distorted_grids",
            "near_isometry_probe", "orthogonality_decay",
            "boundedness_profile", "g_profile"],
    "wkb": ["transport_recursion", "choose_delta", "assemble_mode",
            "gaussian_mode", "rough_mode"],
    "_series": ["Series.__call__"],
    "boundary": ["robin_combination"],
    "symbol": ["region_mask", "symbol_image", "principal_symbol"],
    "serialize": ["write_csv", "write_json", "mode_to_csv",
                  "resolvent_to_csv", "report_to_csv", "gnuplot_contour"],
}
CLI_SPAN = "cli.main"
MATVEC_SPAN = "fbi.lanczos_matvec"


class Tracer:
    def __init__(self):
        self.spans = []
        self.bytes_written = 0
        self._stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counts_bytes = name.startswith("serialize.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            outer_write = counts_bytes and (
                parent < 0 or not spans[parent][0].startswith("serialize."))
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, parent])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if outer_write:
                self.bytes_written += os.path.getsize(result)
            return result

        return traced

    def _counting_eigsh(self, eigsh):
        """eigsh whose operator records one span per matrix-vector product."""

        @functools.wraps(eigsh)
        def traced(A, *args, **kwargs):
            op = aslinearoperator(A)
            counted = LinearOperator(op.shape, dtype=op.dtype,
                                     matvec=self.wrap(MATVEC_SPAN, op.matvec))
            return eigsh(counted, *args, **kwargs)

        return traced

    def install(self):
        """Patch every binding of every traced name; raise if one survives."""
        modules = [m for n, m in sys.modules.items()
                   if n == "pseudomode" or n.startswith("pseudomode.")]
        patches = []
        for modname, names in TRACED.items():
            home = sys.modules[f"pseudomode.{modname}"]
            for qual in names:
                cls_name, _, attr = qual.rpartition(".")
                owner = getattr(home, cls_name) if cls_name else home
                orig = getattr(owner, attr)
                patches.append((owner if cls_name else None, attr, orig,
                                self.wrap(f"{modname}.{qual}", orig)))
        fbi = sys.modules["pseudomode.fbi"]
        patches.append((None, "eigsh", fbi.eigsh,
                        self._counting_eigsh(fbi.eigsh)))

        for owner, attr, orig, wrapped in patches:
            if owner is not None:
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
        originals = [orig for _, _, orig, _ in patches]
        for mod in modules:
            for key, val in vars(mod).items():
                if any(val is orig for orig in originals):
                    raise RuntimeError(f"{mod.__name__}.{key} escaped tracing")

    def span(self, name, fn, *args):
        """Call fn(*args) inside a span named `name`."""
        return self.wrap(name, fn)(*args)


def summarize(spans):
    """(inclusive seconds, self seconds, calls) per span name.

    Inclusive time counts only spans with no ancestor of the same name, so
    recursion is not counted twice.  Self time is a span's duration minus
    the durations of its direct children.
    """
    child = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    total, own, calls = defaultdict(float), defaultdict(float), Counter()
    for i, (name, t0, t1, parent) in enumerate(spans):
        calls[name] += 1
        own[name] += (t1 - t0) - child[i]
        q = parent
        while q >= 0 and spans[q][0] != name:
            q = spans[q][3]
        if q < 0:
            total[name] += t1 - t0
    return total, own, calls


def outer_layer(spans, prefix):
    """(seconds, calls) of spans under `prefix` not nested in another one."""
    seconds, calls = 0.0, 0
    for name, t0, t1, parent in spans:
        if name.startswith(prefix) and (
                parent < 0 or not spans[parent][0].startswith(prefix)):
            seconds += t1 - t0
            calls += 1
    return seconds, calls
