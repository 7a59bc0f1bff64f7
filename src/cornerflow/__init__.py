"""2D irrotational flow around bodies with corners.

Exact and panel-method incompressible potentials with circulation,
corner-singularity analysis, Blasius/Kutta-Joukowsky forces, and a
subsonic compressible stream-function solver with refinement studies.
"""

from .analysis import (CornerReport, LaurentFit, farfield_fit, fit_corner,
                       sign_attainment, sign_component_census)
from .compressible import (CompressibleSolution, ConformalGrid,
                           RefinementStudy, build_grid, refinement_study,
                           solve_subsonic)
from .forces import ForceResult, blasius_force, kutta_joukowsky_lift
from .gas import BernoulliState, GasModel
from .geometry import (Body, Circle, CircleContour, Corner, FlatPlate,
                       JoukowskyPlateMap, Polygon, classify_corners, probe_ring)
from .incompressible import (CensusResult, CornerCensusEntry, FarField,
                             MappedFlow, PanelFlow, PanelSolution, corner_census,
                             exact_flow, kutta_solve, panel_solve)

__version__ = "0.1.0"

__all__ = [
    "BernoulliState", "Body", "CensusResult", "Circle", "CircleContour",
    "CompressibleSolution", "ConformalGrid", "Corner", "CornerCensusEntry",
    "CornerReport", "FarField", "FlatPlate", "ForceResult", "GasModel",
    "JoukowskyPlateMap", "LaurentFit", "MappedFlow",
    "PanelFlow", "PanelSolution", "Polygon", "RefinementStudy",
    "blasius_force", "build_grid",
    "classify_corners", "corner_census", "exact_flow", "farfield_fit",
    "fit_corner", "kutta_joukowsky_lift", "kutta_solve",
    "panel_solve", "probe_ring", "refinement_study", "sign_attainment",
    "sign_component_census", "solve_subsonic",
]
