"""Numerical adapted-frame geometry on a product bundle with a line fiber.

Layers, bottom up: exact forward-mode jets (``calculus``), the field
expression language (``exprlang``), anchored frame data (``algebroid``),
the nonlinear fiber connection (``nlconnection``), linear connection
coefficients and block-tensor covariant calculus (``dconnection``),
compatible metric connections (``metric``), torsion/curvature/Ricci and
the identity suites (``curvature``), parallel-lift ODEs (``lift``), and
the scenario/CLI surface (``scenario``, ``suites``, ``cli``).
"""

from .algebroid import AlgebroidData
from .calculus import EPoint, EvaluationDomainError, Jet, SmoothField, \
    fd_partial, partial
from .curvature import (
    CurvatureComponents,
    EnergyMomentum,
    RicciTensor,
    TorsionComponents,
    curvature_components,
    curvature_from_definition,
    energy_momentum,
    ricci,
    scalar_curvature,
    torsion_components,
    torsion_from_definition,
)
from .dconnection import (
    DConnectionCoeffs,
    DTensorField,
    DVectorField,
    berwald,
    h_cov_deriv,
    tensor_product,
    v_cov_deriv,
)
from .exprlang import ParseError, eval_field, parse, pretty
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
    canonical_metric_dconnection,
    inverse_h,
    metric_dconnection,
    riemannian_flags,
)
from .nlconnection import (
    CoordinateChange,
    NonlinearConnection,
    h_derivative,
    nlc_curvature,
)
from .sampling import Box, sample_points
from .scenario import Scenario, ScenarioError, load_scenario

__version__ = "0.1.0"
