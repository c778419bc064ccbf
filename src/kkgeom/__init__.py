"""Numerical adapted-frame geometry on a product bundle with a line fiber.

Layers, bottom up: exact forward-mode jets (``calculus``), the field
expression language (``exprlang``), anchored frame data (``algebroid``),
the nonlinear fiber connection (``nlconnection``), linear connection
coefficients and their covariant-derivative kernels (``dconnection``),
compatible metric connections (``metric``), torsion/curvature/Ricci and
the identity suites (``curvature``), parallel-lift ODEs (``lift``), and
the scenario/CLI surface (``scenario``, ``suites``, ``cli``).
"""

from .algebroid import AlgebroidData
from .calculus import EPoint, EvaluationDomainError, Jet
from .curvature import (
    CurvatureComponents,
    EnergyMomentum,
    RicciTensor,
    TorsionComponents,
    curvature_components,
    energy_momentum,
    ricci,
    scalar_curvature,
    torsion_components,
)
from .dconnection import DConnectionCoeffs, berwald
from .exprlang import ParseError, compile_expr, parse
from .lift import (
    BaseCurve,
    LiftMorphism,
    LiftState,
    Trajectory,
    acceleration_lift,
    integrate_horizontal_parallel,
    integrate_parallel_lift,
    integrate_vertical_parallel,
    lift_condition_residual,
)
from .metric import (
    MetricStructure,
    SingularMetricError,
    inverse_h,
    metric_dconnection,
    riemannian_flags,
)
from .nlconnection import CoordinateChange, NonlinearConnection, nlc_curvature
from .sampling import Box, sample_points
from .scenario import Scenario, ScenarioError, load_scenario

__version__ = "0.1.0"
