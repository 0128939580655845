"""Feedback coding schemes for fading channels.

Closed-form achievable rates and Monte Carlo validation for three
estimate-and-forward feedback schemes: a quasi-static fading channel with
imperfect transmitter CSI and quantized feedback, its two-path (ISI)
extension, and a DFT block scheme for multi-path channels with noiseless
feedback.
"""

from .multi_path import (
    BlockPlan,
    MultiPathChannel,
    optimize_subchannel_count,
    optimize_subchannel_counts,
    plan_block,
)
from .numerics import (
    InfeasibleError,
    channel_spectrum,
    dft,
    idft,
    q_tail,
    q_tail_inv,
    water_fill,
)
from .quasi_static import (
    QuasiStaticParams,
    TransmitterCsi,
    capacity_fd,
    derive_params1,
    rate_fd_baseline,
)
from .simulation import (
    MonteCarloReport,
    MultiPathScenario,
    QuasiStaticScenario,
    TwoPathScenario,
    monte_carlo,
    run_trials,
)
from .two_path import (
    TransmitterCsi2,
    TwoPathParams,
    derive_params2,
    rate_tp_benchmark,
    solve_rho_star,
)

__all__ = [
    "BlockPlan",
    "InfeasibleError",
    "MonteCarloReport",
    "MultiPathChannel",
    "MultiPathScenario",
    "QuasiStaticParams",
    "QuasiStaticScenario",
    "TransmitterCsi",
    "TransmitterCsi2",
    "TwoPathParams",
    "TwoPathScenario",
    "capacity_fd",
    "channel_spectrum",
    "derive_params1",
    "derive_params2",
    "dft",
    "idft",
    "monte_carlo",
    "optimize_subchannel_count",
    "optimize_subchannel_counts",
    "plan_block",
    "q_tail",
    "q_tail_inv",
    "rate_fd_baseline",
    "rate_tp_benchmark",
    "run_trials",
    "solve_rho_star",
    "water_fill",
]

__version__ = "0.1.0"
