"""Out-of-program tracing: wrap pitomo's public functions and count kernel work.

Nothing inside ``src/`` is changed.  :class:`Tracer` replaces each public
function of each pitomo module by a timing wrapper, in every pitomo
namespace that holds a reference to it (``acquisition.run_scan`` and
``cli.run_scan`` are the same function and both get the wrapper), and
replaces ``_kernels.Rng`` by a counting subclass.  :meth:`Tracer.restore`
puts every original back.

Per wrapped function it records calls, self time (span duration minus the
time covered by child spans) and inclusive time counted only at the
outermost entry, so recursion is not double counted.  Per layer (module)
it records the time during which at least one of the layer's functions
was on the stack.  Only spans opened while :attr:`Tracer.enabled` is set
are recorded, so the harness's own output checks stay out of the numbers.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

# Layer name -> module.  The kernel layer is the `_kernels` dispatch module,
# whose functions are defined in the backend modules, so its functions are
# listed by name instead of by their defining module.
LAYER_MODULES = {
    "qcore": "pitomo.qcore",
    "states": "pitomo.states",
    "interferometer": "pitomo.interferometer",
    "acquisition": "pitomo.acquisition",
    "reconstruct": "pitomo.reconstruct",
    "cli": "pitomo.cli",
}
KERNEL_MODULE = "pitomo._kernels"
KERNEL_FUNCTIONS = ("mat_mul", "mat_dagger", "kron", "partial_trace", "eigh",
                    "loggam", "sinusoid_sq_residual")


class PoissonCounts:
    """Work counters of the Poisson sampler, filled by the counting Rng."""

    def __init__(self):
        self.uniforms = 0           # every Rng.random() call
        self.draws = 0
        self.uniforms_in_draws = 0
        self.rejection_draws = 0    # draws on the mu >= 30 branch
        self.rejection_attempts = 0  # proposals there, two uniforms each


def counting_rng_class(base, counts: PoissonCounts, traced_poisson):
    """Subclass of the kernel ``Rng`` that counts uniforms and draws.

    The pure backend's ``poisson`` calls ``self.random()``, so the override
    below sees every uniform a draw consumes.  A compiled backend draws its
    uniforms internally; there the uniform counts stay zero.
    """

    class CountingRng(base):
        def random(self):
            counts.uniforms += 1
            return base.random(self)

        def poisson(self, mu):
            before = counts.uniforms
            k = traced_poisson(self, mu)
            used = counts.uniforms - before
            counts.draws += 1
            counts.uniforms_in_draws += used
            if mu >= 30.0:
                counts.rejection_draws += 1
                counts.rejection_attempts += used // 2
            return k

    return CountingRng


class Tracer:
    """Span aggregation for wrapped functions; see the module docstring."""

    def __init__(self, keep_spans_of_ops: int = 0):
        self.enabled = False
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.incl_s: defaultdict[str, float] = defaultdict(float)
        self.layer_s: defaultdict[str, float] = defaultdict(float)
        self.poisson = PoissonCounts()
        self.spans: list[dict] = []
        self._keep_spans_of_ops = keep_spans_of_ops
        self._op = -1
        self._next_id = 0
        self._stack: list[list] = []  # [span id, start, child time]
        self._fn_depth: Counter[str] = Counter()
        self._fn_t0: dict[str, float] = {}
        self._layer_depth: Counter[str] = Counter()
        self._layer_t0: dict[str, float] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def begin_op(self, index: int) -> None:
        self._op = index
        self.enabled = True

    def end_op(self) -> None:
        self.enabled = False

    def wrap(self, name: str, layer: str, fn):
        perf_counter = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            stack.append([span_id, t0, 0.0])
            if self._fn_depth[name] == 0:
                self._fn_t0[name] = t0
            self._fn_depth[name] += 1
            if self._layer_depth[layer] == 0:
                self._layer_t0[layer] = t0
            self._layer_depth[layer] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                _, _, child = stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][2] += dur
                self.calls[name] += 1
                self.self_s[name] += dur - child
                self._fn_depth[name] -= 1
                if self._fn_depth[name] == 0:
                    self.incl_s[name] += t1 - self._fn_t0[name]
                self._layer_depth[layer] -= 1
                if self._layer_depth[layer] == 0:
                    self.layer_s[layer] += t1 - self._layer_t0[layer]
                if self._op < self._keep_spans_of_ops:
                    self.spans.append({"id": span_id, "parent": parent,
                                       "op": self._op, "name": name,
                                       "start": t0, "end": t1})

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation ----------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "pitomo"
                                   or mod_name.startswith("pitomo.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, replacement)

    def install(self) -> None:
        """Wrap every public pitomo function and the kernel Rng."""
        targets = []
        for layer, mod_name in LAYER_MODULES.items():
            mod = sys.modules.get(mod_name)
            if mod is None:
                continue
            for key, value in vars(mod).items():
                if (not key.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == mod_name):
                    targets.append((f"{layer}.{key}", layer, value))
        kernels = sys.modules.get(KERNEL_MODULE)
        if kernels is not None:
            for key in KERNEL_FUNCTIONS:
                if hasattr(kernels, key):
                    targets.append((f"kernels.{key}", "kernels",
                                    getattr(kernels, key)))
        for name, layer, fn in targets:
            self._replace_everywhere(fn, self.wrap(name, layer, fn))

        if kernels is not None and hasattr(kernels, "Rng"):
            base = kernels.Rng
            traced_poisson = self.wrap("kernels.poisson", "kernels", base.poisson)
            self._replace_everywhere(
                base, counting_rng_class(base, self.poisson, traced_poisson))

    def restore(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()
