"""Simulation library for the ground-station assisted take-off of tethered
aircraft: spring-sizing model, hierarchical winch/slide controller, and
closed-loop take-off maneuvers with power accounting.

The package exports the three functions of the README's library example;
every other name is imported from its module."""

from .config import default_app_config
from .spring_design import evaluate_spring
from .takeoff import run_takeoff

__version__ = "0.1.0"
