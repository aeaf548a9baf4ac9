"""Exact finite models of Thompson-monoid representations, tensor dilations
of Markov chains, and the commuting-square structures connecting them."""

from .monoid import (
    DerivationNotFound,
    DerivationTrace,
    NormalForm,
    Word,
    extended_relation_check,
    normal_form_fplus,
    rewriting_closure,
    shift_mn,
    words_equal_fplus,
    words_equal_splus,
)
from .finprob import (
    AlgebraElement,
    FinSpace,
    MarkovKernel,
    Partition,
    commuting_square_check,
    local_filtration_markov_check,
)
from .dilation import (
    ChainSpec,
    CouplingMap,
    NoiseSpace,
    ProcessModel,
    build_first_order_dilation,
    build_markov_dilation,
    dilation_property_check,
    path_law,
    random_irreducible_chain,
    stationary_distribution,
)
from .rep import (
    AtomBudgetError,
    GradedSpace,
    PointRep,
    build_fplus_rep,
    build_splus_rep,
    delta_first_coordinate,
    delta_second_coordinate,
    filtration_from_rep,
    intertwining_check,
    triangular_tower_check,
)
from .checks import (
    ProcessView,
    VerificationReport,
    definetti_suite,
    hierarchy_check,
    markov_sequence_check,
    maximal_ps_check,
    partial_spreadability_check,
)

__version__ = "0.1.0"
