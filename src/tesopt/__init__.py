"""tesopt: multi-channel stimulation current-pattern optimization.

Builds a synthetic layered ball head model, assembles a complete-
electrode-model FEM lead field, and searches regularization/nuisance
weight lattices for current patterns that maximize focused density or
the focused-to-nuisance ratio under dose constraints.
"""

from .config import RunConfig
from .fem import CemSystem, LeadField, assemble, lead_field, resistivity_matrix, \
    split_problem
from .lp import LinearProgram, LpSolution
from .meshgen import ElectrodeLayout, FieldPointSet, HeadMesh, TargetSpec, \
    generate_ball_mesh, place_electrodes, place_target, sample_field_points
from .metrics import MetricSet, angle_difference, current_ratio, deviation_estimate, \
    focused_density
from .optimizers import CurrentPattern, StimulusProblem, build_l1l1_lp, db_to_linear, \
    equalize_dose, solve_l1l1, solve_l1l2, solve_tls
from .search import CandidateGrid, LatticeSpec, SearchOutcome, \
    evaluate_lattice, restrict_montage, select_case_a, select_case_b, two_run_search

__version__ = "0.1.0"
