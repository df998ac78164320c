"""What the traced run wraps in thzisac, its counters, and the per-layer metrics.

Every span is recorded around a public function (or PrecoderSet.tx_matrices)
from outside the package; nothing under src/ is edited. Counters are read
from the arguments and results of those public calls only.
"""

from __future__ import annotations

import inspect
import math

from perfbench.tracing import totals_by_name

# span name -> (module, function names); one span name may cover several
SPANS = {
    "experiments.runner": ("experiments", ("run_tradeoff", "run_mc_rmse", "run_isi_demo",
                                           "run_ici_demo")),
    "experiments.io": ("experiments", ("write_csv", "write_summary")),
    "geometry.steering": ("geometry", ("steering_upa", "steering_many")),
    "waveform.generate_symbols": ("waveform", ("generate_symbols",)),
    "channel.sample_comm_channel": ("channel", ("sample_comm_channel",)),
    "channel.awgn": ("channel", ("awgn",)),
    "channel.resolve_coeffs": ("channel", ("resolve_coeffs",)),
    "precoding.optimal_fully_digital": ("precoding", ("optimal_fully_digital",)),
    "precoding.vec_hybrid_precoding": ("precoding", ("vec_hybrid_precoding",)),
    "precoding.weighted_objective": ("precoding", ("weighted_objective",)),
    "precoding.vec_digital_update": ("precoding", ("vec_digital_update",)),
    "precoding.vec_analog_update": ("precoding", ("vec_analog_update",)),
    "precoding.finalize_digital": ("precoding", ("finalize_digital",)),
    "precoding.sca_hybrid_precoding": ("precoding", ("sca_hybrid_precoding",)),
    "precoding.spectral_efficiency": ("precoding", ("spectral_efficiency",)),
    "precoding.transmit_beampattern": ("precoding", ("transmit_beampattern",)),
    "sensing_rx.simulate_rx": ("sensing_rx", ("simulate_rx",)),
    "sensing_rx.receive_combiner": ("sensing_rx", ("receive_combiner",)),
    "sensing_rx.music_spectrum": ("sensing_rx", ("music_spectrum",)),
    "sensing_rx.reconstruct_reference": ("sensing_rx", ("reconstruct_reference",)),
    "sensing_rx.sdft_coarse": ("sensing_rx", ("sdft_coarse",)),
    "sensing_rx.gss_refine": ("sensing_rx", ("gss_refine",)),
    "sensing_rx.golden_section_max": ("sensing_rx", ("golden_section_max",)),
    "sensing_rx.estimate_slot": ("sensing_rx", ("estimate_slot",)),
    "isi_ici.isi_ici_rx": ("isi_ici", ("isi_ici_rx",)),
    "isi_ici.tackled_estimate": ("isi_ici", ("tackled_estimate",)),
    "isi_ici.tackled_range_profile": ("isi_ici", ("tackled_range_profile",)),
    "isi_ici.apply_channel_operator": ("isi_ici", ("apply_channel_operator",)),
    "isi_ici.successive_cancellation": ("isi_ici", ("successive_cancellation",)),
    # the search's own time is its objective's, so isi_ici's calls of the
    # shared golden-section routine (tackled refinement) count as isi_ici
    "isi_ici.golden_section_max": ("isi_ici", ("golden_section_max",)),
    "isi_ici.unaware": ("isi_ici", ("unaware_successive_cancellation",
                                    "unaware_range_profile", "unaware_estimate_peaks")),
}
TX_MATRICES_SPAN = "precoding.tx_matrices"


def _bind(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound


def coarse_nodes(frame, tau_max=None, nu_max=None) -> int:
    """Node count of tackled_estimate's documented half-bin grid.

    Delay runs over [0, min(tau_max, T_slot)] in steps of T/(2M), Doppler
    over [-nu_max, nu_max] in steps of 1/(2 N T_o); defaults as documented.
    """
    d_tau = frame.t_symbol / (2 * frame.m_subcarriers)
    d_nu = 1.0 / (2 * frame.n_symbols * frame.t_total)
    tau_hi = frame.t_slot if tau_max is None else min(tau_max, frame.t_slot)
    nu_hi = 1.0 / (2 * frame.t_total) if nu_max is None else nu_max
    n_tau = math.ceil((tau_hi + d_tau / 2) / d_tau)
    n_nu = 2 * math.floor(nu_hi / d_nu + 1e-9) + 1
    return n_tau * n_nu


def _count_grid(tracer, fn, args, kwargs, result):
    b = _bind(fn, args, kwargs).arguments
    tracer.counters["isi_ici.coarse_nodes"] += coarse_nodes(b["frame"], b["tau_max"],
                                                            b["nu_max"])


def _count_vec(tracer, fn, args, kwargs, result):
    tracer.counters["precoding.vec_iterations"] += len(result.objective_trace) // 2
    tracer.counters["precoding.vec_converged"] += bool(result.converged)


def _count_profile_evals(tracer, fn, args, kwargs):
    bound = _bind(fn, args, kwargs)
    profile = bound.arguments["profile"]

    def counted(*a, **k):
        tracer.counters["sensing_rx.profile_evals"] += 1
        return profile(*a, **k)

    bound.arguments["profile"] = counted
    return bound.args, bound.kwargs


_BEFORE = {"gss_refine": _count_profile_evals}
_AFTER = {"tackled_estimate": _count_grid, "tackled_range_profile": _count_grid,
          "vec_hybrid_precoding": _count_vec}


def targets(thz) -> list:
    """(owner, attr, span, before, after) for Tracer.installed; thz maps module names."""
    out = []
    for span, (module, names) in SPANS.items():
        for name in names:
            out.append((thz[module], name, span, _BEFORE.get(name), _AFTER.get(name)))
    out.append((thz["precoding"].PrecoderSet, "tx_matrices", TX_MATRICES_SPAN, None, None))
    return out


# per-layer metric -> span names whose self seconds it sums
SELF_METRICS = {
    "experiments.self.s": ["experiments.runner"],
    **{f"{span}.s": [span] for span in SPANS if span != "experiments.runner"},
    f"{TX_MATRICES_SPAN}.s": [TX_MATRICES_SPAN],
    "isi_ici.coarse_scan.s": ["isi_ici.tackled_estimate", "isi_ici.tackled_range_profile"],
}
CALL_METRICS = ["precoding.vec_hybrid_precoding", "precoding.weighted_objective",
                "precoding.spectral_efficiency", "isi_ici.tackled_estimate",
                "isi_ici.apply_channel_operator"]


def unit_of(metric: str) -> str:
    if metric.endswith(".s"):
        return "s"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_ns_per_node"):
        return "ns"
    if metric.endswith(("_ratio", "_util")):
        return "1"
    return "count"


def layer_metrics(spans, counters, calls: int, warnings_tally: dict,
                  observed: dict) -> dict:
    """Per-layer metrics per runner call from one traced session.

    ``observed`` carries the output-derived tallies (detections, tackled hits)
    and the traced and untraced call rates; ratios with nothing to divide by
    read 0.
    """
    def ratio(num, den):
        return num / den if den else 0.0

    totals = totals_by_name(spans)

    def self_s(names):
        return sum(totals.get(n, (0.0, 0.0, 0))[0] for n in names)

    m = {name: self_s(names) / calls for name, names in SELF_METRICS.items()}
    for span in CALL_METRICS:
        m[f"{span}.calls"] = totals.get(span, (0.0, 0.0, 0))[2] / calls
    wall = totals.get("experiments.runner", (0.0, 0.0, 0))[1] / calls
    iters = counters.get("precoding.vec_iterations", 0.0) / calls
    vec_calls = m["precoding.vec_hybrid_precoding.calls"]
    nodes = counters.get("isi_ici.coarse_nodes", 0.0) / calls
    m.update({
        "experiments.cpu_util": ratio(observed["cpu_s"], observed["wall_s"]),
        "precoding.vec_iterations": iters,
        "precoding.vec_converged_ratio": ratio(
            counters.get("precoding.vec_converged", 0.0) / calls, vec_calls),
        "precoding.vec_iter_ms": 1e3 * ratio(
            totals.get("precoding.vec_hybrid_precoding", (0.0, 0.0, 0))[1] / calls, iters),
        "sensing_rx.profile_evals": counters.get("sensing_rx.profile_evals", 0.0) / calls,
        "sensing_rx.detect_ratio": ratio(observed["detected"], observed["detect_total"]),
        "isi_ici.coarse_nodes": nodes,
        "isi_ici.coarse_ns_per_node": 1e9 * ratio(m["isi_ici.coarse_scan.s"], nodes),
        "isi_ici.tackled_hit_ratio": ratio(observed["tackled_hits"],
                                           observed["tackled_total"]),
        "warnings.ModelMismatchWarning": warnings_tally.get("ModelMismatchWarning", 0) / calls,
        "fail_ratio": ratio(observed["failed"], observed["attempted"]),
        "trace.coverage_ratio": ratio(wall - m["experiments.self.s"], wall),
        "trace.overhead_ratio": 1.0 - ratio(observed["traced_trials_per_s"],
                                            observed["untraced_trials_per_s"]),
    })
    return m
