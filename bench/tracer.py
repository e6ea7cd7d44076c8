"""Outside-in tracing of stationarylab layers, from the benchmark's own files.

SpanTracer replaces every binding of each listed public function inside the
stationarylab package with a wrapper that records a span (name, start, end,
parent span, job id) and work counts computed from the call's arguments and
result. CountTracer counts calls of the word kernel in a separate pass,
because wrappers on methods that run millions of times would distort every
self time. Both put back each attribute they replaced on exit.
"""

from __future__ import annotations

import inspect
import sys
import time
from pathlib import Path


def _size(x) -> int:
    """Support size of an AlgebraElement or a GroupMeasure."""
    return len(x.coeffs) if hasattr(x, "coeffs") else len(x.masses)


def _bytes_out(args, manifest) -> int:
    out = Path(args["out_dir"])
    return sum((out / name).stat().st_size for name in manifest.outputs)


# "<module>.<function>" -> (work count names, their values from the bound
# arguments and the result). Generator functions such as freegroup.ball return
# before doing their work, so they are never listed.
SPANNED = {
    "freegroup.free_basis_decomposition": (
        ("letters",), lambda a, r: (sum(len(w) for w in a["words"]),)),
    "algebra.convolve": (
        ("pairs", "terms_out"), lambda a, r: (_size(a["x"]) * _size(a["y"]), _size(r))),
    "algebra.norm_lower_bound": (("moments_requested",), lambda a, r: (a["n_moments"],)),
    "algebra.norm_upper_bound": None,
    "algebra.certify_norm": None,
    "walks.convolve_measures": (
        ("pairs", "terms_out"), lambda a, r: (_size(a["mu"]) * _size(a["nu"]), _size(r))),
    "walks.cesaro_measure": None,
    "walks.measure_convolve_element": (
        ("pairs",), lambda a, r: (_size(a["mu"]) * _size(a["a"]),)),
    "walks.sample_path": (("steps",), lambda a, r: (a["length"],)),
    "boundary.solve_stationary": (("iterations",), lambda a, r: (r.iterations,)),
    "boundary.uniform_boundary_measure": None,
    "boundary.translate": None,
    "boundary.conditional_measure": None,
    "boundary.boundary_map": None,
    "boundary.stationarity_residual": None,
    "states.build_c_star_simple_measure": None,
    "states.powers_search": None,
    "states.cesaro_test": None,
    "subgroups.srs_escape_experiment": None,
    "subgroups.SubgroupChain.simulate": None,
    "subgroups.primitive_root": None,
    "subgroups.pdf_from_subgroup_sample": None,
    "subgroups.psd_check": None,
    "subgroups.freeness_report": None,
    "cli.run": (("bytes_out",), lambda a, r: (_bytes_out(a, r),)),
}

# Word-kernel operations of the count pass: metric -> (class or None, attribute).
COUNTED = {
    "freegroup.word_eq.count": ("Word", "__eq__"),
    "freegroup.word_mul.count": ("Word", "__mul__"),
    "freegroup.word_sort_key.count": ("Word", "sort_key"),
    "freegroup.conjugate.count": (None, "conjugate"),
}


def span_metric_names() -> list[str]:
    """Every metric SpanTracer.metrics() reports, in a fixed order."""
    names = []
    for name, work in SPANNED.items():
        names += [f"{name}.self_s", f"{name}.calls"]
        names += [f"{name}.{key}" for key in (work[0] if work else ())]
    return names


class _Tracer:
    """Installs wrappers on __enter__ and puts the originals back on __exit__."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def _install(self) -> None:
        raise NotImplementedError

    def _set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _rebind_everywhere(self, original, replacement) -> None:
        """Replace every module-level binding of `original` in stationarylab."""
        found = False
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != "stationarylab":
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, replacement)
                    found = True
        if not found:
            raise LookupError(f"no binding of {original.__qualname__} in stationarylab")

    def _restore(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()


class SpanTracer(_Tracer):
    """Records one span per call of each SPANNED function; spans stay in memory."""

    def __init__(self):
        super().__init__()
        # (name, start, end, parent index or -1, job id, work counts or None)
        self.spans: list[tuple] = []
        self.job = ""
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, work):
        if inspect.isgeneratorfunction(fn):
            raise TypeError(f"{name} is a generator function; its span would time nothing")
        sig = inspect.signature(fn)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job, None)
            if work is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = dict(zip(work[0], work[1](bound.arguments, result)))
                spans[index] = (name, start, end, parent, self.job, counts)
            return result

        return wrapper

    def _install(self) -> None:
        for name, work in SPANNED.items():
            module, _, func = name.partition(".")
            mod = sys.modules[f"stationarylab.{module}"]
            if "." in func:
                cls_name, attr = func.split(".")
                cls = getattr(mod, cls_name)
                static = cls.__dict__[attr]
                self._set(cls, attr, staticmethod(self._wrap(name, static.__func__, work)))
            else:
                original = getattr(mod, func)
                self._rebind_everywhere(original, self._wrap(name, original, work))

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def metrics(self) -> dict[str, float]:
        out = dict.fromkeys(span_metric_names(), 0)
        for span, own in zip(self.spans, self.self_times()):
            out[f"{span[0]}.self_s"] += own
            out[f"{span[0]}.calls"] += 1
            for key, value in (span[5] or {}).items():
                out[f"{span[0]}.{key}"] += value
        return out

    def covered_share(self) -> float:
        """Share of the time inside cli.run spent in the spans below it."""
        total = own = 0.0
        for span, self_s in zip(self.spans, self.self_times()):
            if span[0] == "cli.run":
                total += span[2] - span[1]
                own += self_s
        return 1.0 - own / total

    def to_json(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "job", "work")
        return [dict(zip(keys, s)) for s in self.spans]


class CountTracer(_Tracer):
    """Counts calls of the word-kernel operations in COUNTED."""

    def __init__(self):
        super().__init__()
        self.counts = dict.fromkeys(COUNTED, 0)

    def _wrap(self, metric: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _install(self) -> None:
        freegroup = sys.modules["stationarylab.freegroup"]
        for metric, (cls_name, attr) in COUNTED.items():
            if cls_name is None:
                original = getattr(freegroup, attr)
                self._rebind_everywhere(original, self._wrap(metric, original))
            else:
                cls = getattr(freegroup, cls_name)
                self._set(cls, attr, self._wrap(metric, cls.__dict__[attr]))
