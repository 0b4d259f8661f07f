"""Energy-efficiency accounting (queries/Joule, Tables III and IV).

The paper's procedure (Section IV): measure dynamic power with a meter
(load minus idle), multiply by run time for energy, report queries per
Joule, and linearly scale the AP's 50 nm lithography to the baselines'
28 nm.  The calibrated :data:`~repro.perf.models.PlatformSpec` powers
already reflect the published (post-scaling) numbers; this module keeps
the arithmetic and the explicit scaling helper.
"""

from __future__ import annotations

__all__ = [
    "energy_joules",
    "queries_per_joule",
    "lithography_scale_factor",
]


def energy_joules(dynamic_power_w: float, runtime_s: float) -> float:
    """Energy = dynamic power × run time (the paper's estimator)."""
    if dynamic_power_w < 0 or runtime_s < 0:
        raise ValueError("power and runtime must be non-negative")
    return dynamic_power_w * runtime_s


def queries_per_joule(n_queries: int, dynamic_power_w: float, runtime_s: float) -> float:
    """The paper's energy-efficiency metric (higher is better)."""
    e = energy_joules(dynamic_power_w, runtime_s)
    if e == 0:
        return float("inf")
    return n_queries / e


def lithography_scale_factor(from_nm: float, to_nm: float) -> float:
    """Linear lithography normalization (Section IV-B / Table VIII).

    The paper scales the 50 nm AP to 28 nm competitors with linear
    factors; Table VIII's "Technology Scaling 3.19x" is the combined
    density/speed gain of that shrink (≈ (50/28)^2 = 3.19).
    """
    if from_nm <= 0 or to_nm <= 0:
        raise ValueError("process nodes must be positive")
    return (from_nm / to_nm) ** 2

