"""Subgroups of free groups: Stallings graphs, power-free bases, and
split/relative quasimorphisms with exact defects."""

from .words import (
    Word,
    WordSyntaxError,
    contains_power_subword,
    cyclically_reduce,
    format_word,
    free_reduce,
    parse_word,
    syllables,
    word_from_json,
    word_from_syllables,
    word_to_json,
)
from .graphs import (
    CoreGraph,
    FoldedGraph,
    SubgroupPresentation,
    conjugate_power,
    core,
    export_dot,
    export_json,
    fold,
    generators_from_graph,
    graph_from_json,
    graph_to_json,
    loop_union,
    membership,
)
from .basis import (
    Automorphism,
    BasisCertificate,
    ElementaryMove,
    FiniteIndexError,
    IterationStep,
    UnboundedRunError,
    VerificationReport,
    WordBlowupError,
    apply_move,
    choose_index,
    compute_k,
    compute_power_bound,
    find_power_free_basis,
    to_transformed_coordinates,
    transformed_syllables,
    verify_certificate,
)
from .qm import (
    AlternatingFunction,
    DefectReport,
    RelativeQuasimorphism,
    SplitQuasimorphism,
    VanishingReport,
    check_vanishing,
    coboundary1,
    coboundary2,
    counting_qm,
    defect_z,
    embed_support,
    eval_split,
    make_relative_qm,
    nontriviality_witness,
    sample_defect,
    split_defect,
)
from .sampling import (
    InstanceSpec,
    random_alternating,
    random_presentation,
    random_reduced_word,
    random_split_qm,
    random_subgroup_element,
)

__version__ = "0.1.0"
