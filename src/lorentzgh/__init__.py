"""Finite Lorentzian pre-length spaces and Gromov-Hausdorff style convergence tools."""

from .core import (CausalityReport, CoveredFiniteSpace, FiniteLorentzSpace,
                   build_space, causality_class, classify_special_points, covered,
                   isometry_search, quotient_tau_indistinguishable,
                   timelike_diameter)
from .extended import INF_GAP, NEG_INF
from .nets import (DiamondNet, NetGrowthTable, doubling_constant, greedy_net,
                   net_growth_profile, verify_net)
from .corr import (CertificateMember, ConvergenceReport, Correspondence, compose,
                   distortion, lgh_certificate, make_correspondence, min_distortion,
                   slot_matching)
from .geometry import (FiniteMetricFiber, GridNet, ProductGenerator, SamplePlan,
                       SampledSpace, build_fiber, circle_fiber, cone_dominates,
                       embed_net, grid_net_product, product_ell, product_family,
                       product_tau, sample_spacetime, segment_fiber, slab_net,
                       uncovered_samples)
from .curvature import (ComparisonConfig, FourPointConfig, ModelPoint,
                        comparison_config, curvature_bound_scan, diameter_bound,
                        four_point_check, model_ell, model_point, model_tau)
from .measured import (AtomicMeasure, MeasuredNet, atomic_measure, dirac,
                       induce_net_measure, measured_limit_builder, pushforward,
                       uniform_measure, weak_gap)
from .limits import (BlowupSpec, CoveredSequence, TangentReport, blow_up,
                     diagonal_limit, forward_complete_check, select_blowup_spec,
                     tangent_experiment)
from .causet import (CausalSet, build_causet, chain_ell, faithful_embed_check,
                     hauptvermutung_trial, sprinkle)

__version__ = "0.1.0"
