"""Span tracing around the program's public functions, for the traced run.

A wrapper is installed at every module attribute that holds a traced
function, because the package binds names with ``from ... import``: wrapping
``distributions.gamma_convolution_cdf`` alone would miss the calls made
through ``harness.gamma_convolution_cdf``.  Each call records one span (name,
start, end, parent span, request) in flat arrays kept in memory; the arrays
are written out and reduced to per-layer metrics when the run ends.
"""
from __future__ import annotations

import array
import functools
import time
from pathlib import Path

import numpy as np

from stochord import arrangement, cli, distributions, harness, majorization, rc_order

MODULES = (arrangement, cli, distributions, harness, majorization, rc_order)

# (module, attribute) of every traced function; the layer is the module.
TRACED = (
    (distributions, "gamma_convolution_cdf"),
    (distributions, "gamma_latent"),
    (distributions, "deconvolve"),
    (distributions, "nb_convolution"),
    (distributions, "convolve"),
    (distributions, "survival_dominance_check"),
    (distributions, "shape_mixture_pmf"),
    (distributions, "coupled_pair_mixture_pmf"),
    (distributions, "coupled_gamma_pair_cdf"),
    (rc_order, "decide_wrc"),
    (rc_order, "verify_rc_move"),
    (rc_order, "check_necessary"),
    (rc_order, "construct_chain_opposite"),
    (rc_order, "verify_rc_chain"),
    (arrangement, "canonical_form"),
    (arrangement, "check_arrangement_leq"),
    (arrangement, "check_pair_equal_a"),
    (majorization, "check_majorization"),
    (majorization, "t_transform_chain"),
    (harness, "verify_theorem_instance"),
    (harness, "numeric_st_check"),
    (harness, "numeric_conv_check"),
    (harness, "generate_instance"),
    (cli, "main"),
)


def _span_value(name: str, args, result) -> int:
    """Exact work count carried by a span: lattice or output lengths."""
    if name == "gamma_latent":
        return result[0].probs.size
    if name == "gamma_convolution_cdf":
        return np.asarray(args[1]).size  # grid points
    if name == "deconvolve":
        return result[0].coeffs.size
    if name == "nb_convolution":
        return result.probs.size
    return 0


class Tracer:
    """Records spans while installed and ``request`` is set; ``request`` tags
    each span with the index of the benchmark case that caused it, and -1
    pauses recording."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.req = array.array("i")
        self.value = array.array("q")
        self.error = array.array("b")
        self.request = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.request < 0:
                return fn(*args, **kwargs)
            label = name
            if name == "decide_wrc":
                label = f"decide_wrc.n{args[0].n}"
            idx = len(tracer.start)
            tracer.name.append(tracer._id(label))
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.req.append(tracer.request)
            tracer.value.append(0)
            tracer.error.append(0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            tracer.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end[idx] = time.perf_counter()
                tracer.error[idx] = 1
                raise
            finally:
                tracer._stack.pop()
            tracer.end[idx] = time.perf_counter()
            tracer.value[idx] = _span_value(name, args, result)
            return result

        return traced

    def install(self) -> None:
        for home, attr in TRACED:
            original = getattr(home, attr)
            wrapper = self._wrap("cli.main" if attr == "main" else attr, original)
            for module in MODULES:
                for key, value in vars(module).items():
                    if value is original:
                        self._undo.append((module, key, value))
                        setattr(module, key, wrapper)
        original = harness.Report.to_json_line
        self._undo.append((harness.Report, "to_json_line", original))
        harness.Report.to_json_line = self._wrap("Report.to_json_line", original)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "req": np.frombuffer(self.req, dtype=np.int32),
            "value": np.frombuffer(self.value, dtype=np.int64),
            "error": np.frombuffer(self.error, dtype=np.int8),
        }

    def write(self, path: Path, window: int) -> None:
        """Write the spans of requests ``0 .. window-1``."""
        arrays = self.arrays()
        keep = arrays["req"] < window
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **{k: v[keep] for k, v in arrays.items()})


def layer_metrics(tracer: Tracer, window: int, window_wall_s: float) -> dict[str, float]:
    """Per-layer figures over the spans of requests ``0 .. window-1``.

    Counts are exact for a fixed seed.  Times are shares (percent) of the
    wall time the window's calls took: ``pct`` from whole spans, ``self_pct``
    with the time of child spans taken out.
    """
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    child = np.zeros_like(dur)
    nested = a["parent"] >= 0
    np.add.at(child, a["parent"][nested], dur[nested])
    keep = a["req"] < window
    ids = a["name"][keep]
    size = len(tracer.names)

    def per_name(weights=None) -> np.ndarray:
        return np.bincount(ids, weights=weights, minlength=size)

    n_calls = per_name()
    incl = per_name(dur[keep])
    excl = per_name((dur - child)[keep])
    values = per_name(a["value"][keep].astype(float))
    errors = per_name(a["error"][keep].astype(float))

    def pick(totals, name):
        if name.endswith("."):
            return sum(totals[i] for i, nm in enumerate(tracer.names) if nm.startswith(name))
        i = tracer._ids.get(name)
        return 0 if i is None else totals[i]

    def calls(name):
        return int(pick(n_calls, name))

    def pct(name, self_time=False):
        return 100.0 * float(pick(excl if self_time else incl, name)) / window_wall_s

    # gammainc evaluations: latent lattice length times grid size of the CDF call
    latent = keep & (a["name"] == tracer._ids.get("gamma_latent", -1))
    parents = a["parent"][latent]
    cdf_id = tracer._ids.get("gamma_convolution_cdf", -1)
    under_cdf = (parents >= 0) & (a["name"][np.maximum(parents, 0)] == cdf_id)
    gammainc_evals = int(
        (a["value"][latent][under_cdf] * a["value"][parents[under_cdf]]).sum()
    )
    chain_calls = calls("construct_chain_opposite")
    chain_errors = int(pick(errors, "construct_chain_opposite"))

    m = {
        "gamma_convolution_cdf.calls": calls("gamma_convolution_cdf"),
        "gamma_convolution_cdf.pct": pct("gamma_convolution_cdf"),
        "gamma_latent.lattice_len": int(pick(values, "gamma_latent")),
        "gammainc_evals": gammainc_evals,
        "deconvolve.calls": calls("deconvolve"),
        "deconvolve.pct": pct("deconvolve"),
        "deconvolve.coeffs": int(pick(values, "deconvolve")),
        "nb_convolution.calls": calls("nb_convolution"),
        "nb_convolution.pct": pct("nb_convolution"),
        "nb_convolution.lattice_len": int(pick(values, "nb_convolution")),
        "convolve.pct": pct("convolve"),
        "survival_dominance_check.pct": pct("survival_dominance_check"),
        "shape_mixture_pmf.pct": pct("shape_mixture_pmf"),
        "coupled_pair_mixture_pmf.pct": pct("coupled_pair_mixture_pmf"),
        "coupled_gamma_pair_cdf.pct": pct("coupled_gamma_pair_cdf"),
        "decide_wrc.calls": calls("decide_wrc."),
        "decide_wrc.pct": pct("decide_wrc."),
    }
    for n in range(2, 7):
        m[f"decide_wrc.n{n}.calls"] = calls(f"decide_wrc.n{n}")
        m[f"decide_wrc.n{n}.pct"] = pct(f"decide_wrc.n{n}")
    m.update({
        "verify_rc_move.calls": calls("verify_rc_move"),
        "check_necessary.calls": calls("check_necessary"),
        "construct_chain_opposite.calls": chain_calls,
        "construct_chain_opposite.errors": chain_errors,
        "construct_chain_opposite.success_ratio": (
            (chain_calls - chain_errors) / chain_calls if chain_calls else 0.0
        ),
        "verify_rc_chain.pct": pct("verify_rc_chain"),
        "canonical_form.calls": calls("canonical_form"),
        "canonical_form.self_pct": pct("canonical_form", self_time=True),
        "check_arrangement_leq.calls": calls("check_arrangement_leq"),
        "check_arrangement_leq.pct": pct("check_arrangement_leq"),
        "check_pair_equal_a.calls": calls("check_pair_equal_a"),
        "check_majorization.calls": calls("check_majorization"),
        "check_majorization.self_pct": pct("check_majorization", self_time=True),
        "t_transform_chain.calls": calls("t_transform_chain"),
        "t_transform_chain.pct": pct("t_transform_chain"),
        "verify_theorem_instance.self_pct": pct("verify_theorem_instance", self_time=True),
        "numeric_st_check.pct": pct("numeric_st_check"),
        "numeric_conv_check.pct": pct("numeric_conv_check"),
        "Report.to_json_line.pct": pct("Report.to_json_line"),
        "generate_instance.pct": pct("generate_instance"),
        "cli.main.self_pct": pct("cli.main", self_time=True),
        "trace.spans": int(keep.sum()),
    })
    return m
