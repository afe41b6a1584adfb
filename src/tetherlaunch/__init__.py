"""Simulation library for the ground-station assisted take-off of tethered
aircraft: spring-sizing model, hierarchical winch/slide controller, and
closed-loop take-off maneuvers with power accounting."""

from .controller import (
    ControlParams,
    SlideGains,
    WinchGains,
    WinchOuterParams,
    Zone,
    combine_refs,
    default_control_params,
    outer_law,
    slide_law,
    slide_torque,
    winch_fbck,
    winch_ffwd,
    winch_law,
    winch_torque,
)
from .integrator import IntegrationError, rk4_step
from .model import (
    AircraftParams,
    AmbientParams,
    DesignState,
    InitConditions,
    SlidePlantParams,
    SpringParams,
    SystemParams,
    TetherParams,
    WinchParams,
    airborne_plant,
    clamp_spring_travel,
    default_init_conditions,
    default_system_params,
    design_derivatives,
    initial_state,
    line_model,
    spring_friction,
    tether_stiffness,
)
from .config import AppConfig, ConfigError, default_app_config, load_config
from .csvio import write_design_trace, write_sweep_csv, write_takeoff_trace
from .spring_design import (
    FeasibilityResult,
    SweepGrid,
    SweepPoint,
    Trace,
    assess_trace,
    count_compression_cycles,
    evaluate_spring,
    simulate,
    simulate_design,
    sweep,
)
from .takeoff import (
    TakeoffConfig,
    TakeoffError,
    TakeoffResult,
    TakeoffTrace,
    default_takeoff_config,
    run_takeoff,
)

__version__ = "0.1.0"
