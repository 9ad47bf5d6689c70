"""Link obstruction gate and PSL(2,R) representation-variety explorer.

The library computes exact link invariants (Alexander polynomials by three
routes, determinants, double-branched-cover homology), runs
an obstruction gate on labeled links, models conservation flows on
labeled graphs, and explores PSL(2,R) representation varieties of
finitely presented groups numerically.
"""

from .errors import BlowupgateError, InputError, InvalidParameter
from .exact import (AbelianGroup, IntMatrix, LaurentPoly, NonSquare,
                    ZeroEvaluationPoint, cokernel, laurent_det, laurent_gcd,
                    smith_normal_form)
from .gate import (Flow, FlowGraph, HomologyElement, LabelLengthMismatch,
                   NonIntegerWeights, RealizableK, SizeMismatch, Verdict,
                   flow_add, gate, homology_class, is_flow, realizable_k)
from .invariants import (LinkInvariants, NotWirtinger, alexander_burau,
                         alexander_fox, alexander_seifert, braid_invariants,
                         branched_cover_h1, branched_cover_h1_fox,
                         determinant_at_minus_one, link_invariants)
from .links import (BraidWord, Crossing, EmptySelection, InvalidLetter,
                    LinkDiagram, MalformedPD, Presentation, from_braid,
                    parse_pd, seifert_matrix, sublink, wirtinger)
from .psl2r import (PSL2, CircleLift, GenusZero, ResidualTooLarge,
                    RoundingAmbiguous, act_rp1, classify, euler_number,
                    fuchsian_genus2, milnor_wood_admissible,
                    translation_number)
from .repvar import (BrieskornClass, BrieskornData, CertificateFailed,
                     NotCoprime, RepAssignment, UnassignedGenerator,
                     brieskorn_enumerate, brieskorn_presentation,
                     connected_sum_family,
                     free_product, is_abelian, is_irreducible, is_metabelian,
                     residual, solve, surface_presentation,
                     surface_times_circle_presentation, trace_coordinates)

__version__ = "0.1.0"
