"""Simulation and estimation toolkit for monolithic-cavity photon-pair
sources: mode structure, biphoton statistics, coincidence counting,
beam-displacer state synthesis, and entanglement characterization.

The public names are imported from their submodule on first use (PEP 562),
so ``import cavityspdc`` loads none of them; ``config``, ``network`` and
``biphoton`` load no numpy either.
"""

import importlib

__version__ = "0.1.0"

#: Every public name and the submodule that defines it.
_SUBMODULE = {
    **dict.fromkeys(("BiphotonParams", "gamma_prime_mhz", "spectral_overlap", "t_fwhm_ns"),
                    "biphoton"),
    **dict.fromkeys(("ModeComb", "airy_transmission", "build_mode_comb", "cluster_comb",
                     "cluster_spacing", "dwdm_cluster_count", "single_mode_margin"), "cavity"),
    **dict.fromkeys(("CavitySpec", "DetectionChain", "ExperimentConfig", "SourceRate",
                     "car_model", "car_optimal_rate", "default_config", "effective_index",
                     "load_config", "pair_rate", "save_config"), "config"),
    **dict.fromkeys(("FitResult", "fit_car_curve", "fit_exp_g2", "fit_lorentzian"), "fitting"),
    **dict.fromkeys(("BellSettings", "PHI_SETTINGS", "ProjectorSetting", "TomographyRecord",
                     "bootstrap_errors", "chsh_S", "chsh_max", "fidelity",
                     "interference_curve", "state_fidelity", "tomo_linear", "tomo_mle",
                     "tomo_simulate_counts"), "measurement"),
    **dict.fromkeys(("BD", "HWP", "QWP", "CrystalSource", "NonInterferingNetworkError",
                     "displacer_network"), "network"),
    **dict.fromkeys(("Histogram", "TimeTagStream", "analyze_record", "car_from_stream",
                     "coincidence_histogram", "count_coincidences", "read_ttag",
                     "simulate_timetags", "write_ttag"), "photostats"),
    **dict.fromkeys(("TwoPhotonState", "concurrence", "degraded_state", "entangled_ket",
                     "propagate_network"), "polarization"),
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
