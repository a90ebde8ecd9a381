"""Digital simulation of dissipative two-level quantum memristors."""

from .analysis import (EntanglementEvent, LoopMetrics, concurrence,
                       entanglement_events, loop_metrics, split_loops)
from .config import RunConfig, apply_overrides, config_from_text, load_config
from .dynamics import (DecayProfile, InitialState, TimeGrid, TrajectoryState,
                       analytic_oracle, decay_rate, kappa, kappa_schedule,
                       lindblad_oracle, run_coupled, run_single,
                       theta_schedule)
from .errors import (ConfigError, DimensionError, IntegrationError,
                     NumericsError, StateError)
from .measurement import (ObservableTrace, QubitSeries, ShotConfig,
                          build_trace, current_series, sampled_expectation,
                          voltage)
from .ops import (InteractionSpec, KrausPair, apply_channel,
                  apply_interaction, collision_step, damping_kraus,
                  frame_to_schroedinger, interaction_unitary)
from .presets import PRESET_NAMES, preset
from .qasm import export_circuit
from .runner import RunResult, delta_scan, execute, run

__version__ = "0.1.0"
