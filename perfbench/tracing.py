"""Span recording around sawkit's layer entry points, from outside the package.

Wrappers replace module attributes, so both the benchmark's own calls and
sawkit's calls between modules pass through them.  Names a consumer module
imported directly (``extract.s_to_y``, ``fit.element_admittance`` ...) are
wrapped in that module too, or inner calls would go uncounted.  A name that
a later version of sawkit no longer has is skipped: its counters read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# (module, attribute, span name).  Class methods are given as "Class.method".
TARGETS = (
    ("touchstone", "parse_touchstone", "touchstone.parse"),
    ("touchstone", "write_touchstone", "touchstone.write"),
    ("network", "s_to_y", "network.s_to_y"),
    ("network", "renormalize", "network.renormalize"),
    ("network", "tune_source_impedance", "network.tune"),
    ("network", "_kasa_circle", "network.circle_fit"),
    ("extract", "s_to_y", "network.s_to_y"),
    ("extract", "tune_source_impedance", "network.tune"),
    ("extract", "full_extraction", "extract.full_extraction"),
    ("extract", "find_fs_fp", "extract.find_fs_fp"),
    ("extract", "bode_q", "extract.bode_q"),
    ("extract", "report_to_json", "extract.report_to_json"),
    ("fit", "find_fs_fp", "extract.find_fs_fp"),
    ("fit", "element_admittance", "mbvd.element_admittance"),
    ("fit", "initial_guess", "fit.initial_guess"),
    ("fit", "fit_mbvd", "fit.fit_mbvd"),
    ("fit", "result_to_json", "fit.result_to_json"),
    ("mbvd", "element_admittance", "mbvd.element_admittance"),
    ("mbvd", "synthesize_s11", "mbvd.synthesize"),
    ("design", "sweep", "design.sweep"),
    ("design", "scale_to_frequency", "design.scale"),
    ("design", "DispersionTable.lookup", "design.lookup"),
)


def _bytes(args, kwargs, result):
    text = args[0] if args else kwargs.get("text", "")
    return {"bytes": len(text)}


def _smoothed(args, kwargs, result):
    window = args[1] if len(args) > 1 else kwargs.get("smooth_window")
    return {"smoothed": window is not None}


def _samples(args, kwargs, result):
    f = args[6] if len(args) > 6 else kwargs.get("f")
    return {"samples": int(getattr(f, "size", 1))}


def _fit(args, kwargs, result):
    return {"iterations": result.iterations, "converged": bool(result.converged)}


def _rows(args, kwargs, result):
    return {"rows": len(result), "out_of_hull": sum(1 for row in result if row.error)}


# span name -> function(args, kwargs, result) giving attributes to record
NOTES = {
    "touchstone.parse": _bytes,
    "extract.bode_q": _smoothed,
    "mbvd.element_admittance": _samples,
    "fit.fit_mbvd": _fit,
    "design.sweep": _rows,
}


class Tracer:
    """In-memory spans: [name, request, parent index, start, end, attrs].

    attrs is None, the dict a NOTES entry returns, or {"raised": exception
    type} when the call raised.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.request = None
        self._stack: list[int] = []

    def wrap(self, name, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [name, self.request, self._stack[-1] if self._stack else None, 0.0, 0.0, None]
            self.spans.append(span)
            self._stack.append(index)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[5] = {"raised": type(exc).__name__}
                raise
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            if note is not None:
                span[5] = note(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> list:
        """Patch every target that exists; returns the undo list for uninstall()."""
        undo = []
        for module_name, attr, span in TARGETS:
            module = importlib.import_module(f"sawkit.{module_name}")
            owner, _, leaf = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            original = getattr(holder, leaf, None) if holder is not None else None
            if original is None:
                continue
            setattr(holder, leaf, self.wrap(span, original))
            undo.append((holder, leaf, original))
        return undo

    @staticmethod
    def uninstall(undo: list) -> None:
        for holder, leaf, original in reversed(undo):
            setattr(holder, leaf, original)

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children of one span run one after another on one thread, so their
    durations do not overlap and can simply be summed.
    """
    own = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[2] is not None:
            own[s[2]] -= s[4] - s[3]
    return own


def has_ancestor(spans: list[list], index: int, name: str) -> bool:
    parent = spans[index][2]
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][2]
    return False
