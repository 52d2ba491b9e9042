"""Spans around calls into retxdist's modules, installed from outside.

The tracer patches public functions and methods of the package under
test with timing wrappers and restores the originals on uninstall; no
file of the package changes. Each span records a name, its start and end
(perf_counter_ns), its parent span and one integer amount (values for a
law call, samples for a tally, panels for an oracle call, evaluations for
an integration, bytes for an emission; -1 marks a call that raised).
Spans stay in memory in flat arrays and are written once, at the end.

Self time is a span's duration minus the durations of its direct
children. Calls that re-enter a layer already on the stack (a law method
calling another, an asym function calling another) are not recorded
again, so counts are calls into the layer from outside it.
"""

from __future__ import annotations

import functools
import json
import os
from array import array
from time import perf_counter_ns

import numpy as np

from retxdist import asym, experiment, gammafn, oracle
from retxdist import cli
from retxdist.dists import DerivedLaw, Exponential, Gamma, Weibull

# Families reported per layer; a family never seen reads 0.
QUANTILE_FAMILIES = ("exponential", "weibull", "gamma", "derived")
CCDF_FAMILIES = ("exponential", "weibull")

_ASYM_FNS = ("uniform_approx", "log_uniform_approx", "power_law_limit",
             "log_power_law_limit", "exact_integer_ccdf", "log_exact_integer_ccdf",
             "exp_tail_asymptote", "log_exp_tail_asymptote", "exp_tail_general",
             "log_exp_tail_general", "log_body", "log_upper_bound",
             "power_law_region_check", "transition_point")
_GAMMAFN_FNS = ("gamma", "log_gamma", "upper_incomplete_gamma_eval",
                "upper_incomplete_gamma", "log_upper_incomplete_gamma",
                "regularized_upper_gamma", "regularized_lower_gamma",
                "log_regularized_upper_gamma", "incomplete_gamma_asymptotic")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.amount = array("q")
        self._stack: list[int] = []
        self._active: dict[str, list[int]] = {}     # layer -> [open span count]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.amount.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int, amount: int) -> None:
        self.end[idx] = perf_counter_ns()
        self.amount[idx] = amount
        self._stack.pop()

    def wrap(self, fn, name, amount=lambda args, out: 0, layer=None):
        """Timing wrapper; `amount(args, result)` gives the span's amount.

        With `layer`, a call made while a span of the same layer is open
        passes straight through.
        """
        active = self._active.setdefault(layer, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if active[0] and layer is not None:
                return fn(*args, **kwargs)
            active[0] += 1
            idx = self._open(name(args) if callable(name) else name)
            result = -1
            try:
                out = fn(*args, **kwargs)
                result = amount(args, out)
                return out
            finally:
                self._close(idx, result)
                active[0] -= 1
        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        w = self.wrap
        self._patch(cli, "main", w(cli.main, "cli.main"))
        self._patch(experiment, "run_experiment",
                    w(experiment.run_experiment, "experiment.run_experiment"))
        self._patch(experiment, "validate_coupling",
                    w(experiment.validate_coupling, "experiment.coupling"))
        self._patch(experiment, "emit_curves", w(
            experiment.emit_curves, "experiment.emit",
            lambda a, out: sum(os.path.getsize(p) for p in out)))
        self._patch(experiment, "run_tally", w(
            experiment.run_tally,
            lambda a: "mc.run_tally." + a[0].doc.base.family,
            lambda a, out: out.total))
        traced_exact = w(oracle.ccdf_exact, "oracle.ccdf_exact",
                         lambda a, out: out.subdivisions)
        self._patch(oracle, "ccdf_exact", traced_exact)
        self._patch(experiment, "ccdf_exact", traced_exact)
        self._patch(oracle, "integrate_adaptive", self._traced_integrator(
            oracle.integrate_adaptive))
        for cls in (Exponential, Weibull, Gamma, DerivedLaw):
            self._patch(cls, "quantile_ccdf", w(
                cls.__dict__["quantile_ccdf"], "dists.quantile." + cls.family,
                _size, layer="dists"))
        for cls in (Exponential, Weibull):
            for attr in ("ccdf", "log_ccdf"):
                self._patch(cls, attr, w(cls.__dict__[attr], "dists.ccdf." + cls.family,
                                         _size, layer="dists"))
        for module, names in ((asym, _ASYM_FNS), (gammafn, _GAMMAFN_FNS)):
            layer = module.__name__.rsplit(".", 1)[1]
            for fname in names:
                self._patch(module, fname, w(getattr(module, fname), f"{layer}.{fname}",
                                             layer=layer))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _traced_integrator(self, integrate):
        traced_integrand = functools.partial(self.wrap, name="quadrature.integrand")

        def wrapper(f, *args, **kwargs):
            return integrate(traced_integrand(f), *args, **kwargs)
        return self.wrap(wrapper, "quadrature.integrate",
                         lambda a, out: out.evaluations)

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        """Spans as columnar JSON: names, then one list per field."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "name": self.name.tolist(),
                       "start_ns": self.start.tolist(), "end_ns": self.end.tolist(),
                       "parent": self.parent.tolist(),
                       "amount": self.amount.tolist()}, fh)

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics over the recorded spans; see README."""
        nid = np.frombuffer(self.name, np.int32)
        dur = np.frombuffer(self.end, np.int64) - np.frombuffer(self.start, np.int64)
        amount = np.frombuffer(self.amount, np.int64)
        parent = np.frombuffer(self.parent, np.int32)
        has_parent = parent >= 0

        def sel(prefix: str) -> np.ndarray:
            ids = [i for i, n in enumerate(self.names) if n.startswith(prefix)]
            return np.isin(nid, ids)

        def child_ns(children: np.ndarray) -> np.ndarray:
            """Per span, the summed duration of its direct children in `children`."""
            out = np.zeros(len(dur), dtype=np.int64)
            m = children & has_parent
            np.add.at(out, parent[m], dur[m])
            return out

        def ratio(num: float, den: float) -> float:
            return float(num) / float(den) if den else 0.0

        self_ns = dur - child_ns(np.ones(len(dur), dtype=bool))
        per_round = 1.0 / rounds
        out = {}
        cli_m, exp_m = sel("cli.main"), sel("experiment.run_experiment")
        coup, emit = sel("experiment.coupling"), sel("experiment.emit")
        out["cli.self_s"] = self_ns[cli_m].sum() * 1e-9 * per_round
        out["experiment.coupling_s"] = dur[coup].sum() * 1e-9 * per_round
        out["experiment.emit_s"] = dur[emit].sum() * 1e-9 * per_round
        out["experiment.emit_bytes"] = float(amount[emit & (amount > 0)].sum()) * per_round
        out["experiment.self_s"] = self_ns[exp_m].sum() * 1e-9 * per_round

        tally = sel("mc.run_tally.")
        dists_child = child_ns(sel("dists."))
        samples = amount[tally & (amount > 0)].sum()
        out["mc.samples"] = float(samples) * per_round
        for fam in QUANTILE_FAMILIES:
            m = sel("mc.run_tally." + fam) & (amount > 0)
            out[f"mc.ns_per_sample.{fam}"] = ratio(dur[m].sum(), amount[m].sum())
        out["mc.self_ns_per_sample"] = ratio(
            (dur[tally] - dists_child[tally]).sum(), samples)
        for fam in QUANTILE_FAMILIES:
            m = sel("dists.quantile." + fam) & (amount > 0)
            out[f"dists.quantile_ns.{fam}"] = ratio(dur[m].sum(), amount[m].sum())
        for fam in CCDF_FAMILIES:
            m = sel("dists.ccdf." + fam) & (amount > 0)
            out[f"dists.ccdf_ns.{fam}"] = ratio(dur[m].sum(), amount[m].sum())

        orc = sel("oracle.ccdf_exact")
        ok = orc & (amount >= 0)
        ms = dur[ok] * 1e-6
        out["oracle.calls"] = float(orc.sum()) * per_round
        out["oracle.ms_p50"] = float(np.percentile(ms, 50)) if ms.size else 0.0
        out["oracle.ms_p90"] = float(np.percentile(ms, 90)) if ms.size else 0.0
        out["oracle.panels_per_call"] = ratio(amount[ok].sum(), ok.sum())

        quad, integrand = sel("quadrature.integrate"), sel("quadrature.integrand")
        calls = quad.sum()
        quad_ok = quad & (amount >= 0)
        out["quadrature.evals_per_call"] = ratio(amount[quad_ok].sum(), quad_ok.sum())
        out["quadrature.integrand_ms_per_call"] = ratio(dur[integrand].sum() * 1e-6, calls)
        out["quadrature.self_ms_per_call"] = ratio(self_ns[quad].sum() * 1e-6, calls)

        for layer in ("asym", "gammafn"):
            m = sel(layer + ".")
            out[f"{layer}.calls"] = float(m.sum()) * per_round
            out[f"{layer}.us_per_call"] = ratio(dur[m].sum() * 1e-3, m.sum())
        return {k: float(v) for k, v in out.items()}


def _size(args, out) -> int:
    return int(np.size(out))
