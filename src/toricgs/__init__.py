"""Surface-code instances, their graph-state equivalents, and locality.

The package turns a qubits-on-edges stabilizer setup (an embedded multigraph
with star and plaquette generators) into an equivalent graph state along any
spanning tree, enumerates local-complementation classes of labeled graphs,
decides pairwise equivalence algebraically, and certifies whether a setup
admits an equivalent graph state whose edges only connect vicinal qubits.
"""

from .gf2 import BitMatrix, nullspace, rank
from .graphs import (
    GraphError,
    Multigraph,
    SimpleGraph,
    SpanningTree,
    enumerate_spanning_trees,
    first_spanning_tree,
    graph_from_dict,
    graph_to_dict,
    local_complement,
    phi,
    to_dot,
)
from .lc import CertificateError, LcOrbit, OrbitBudgetError, canonical_key, certify_nonlocal, lc_orbit
from .lc_system import LcWitness, WitnessBudgetError, lc_equivalent, verify_witness
from .pauli import (
    PauliString,
    StateVector,
    Tableau,
    conjugate_by_pauli,
    conjugate_hadamard,
    graph_stabilizer,
    graph_state_vector,
    is_graph_stabilizer,
    is_stabilized,
)
from .polyforms import enumerate_polyforms, polyform_embedding, polyform_enumerate
from .reduction import (
    Certificate,
    CertStore,
    LeafGraph,
    classify,
    derive_chain,
    epsilon_swap,
    is_stricter,
    leaf_delete_commute_check,
    load_chain_spec,
    reduction_chain,
    verify_reduction_step,
)
from .surface import (
    DegeneracyError,
    Embedding,
    EmbeddingError,
    LoopOperatorPair,
    adjacency_relation,
    contract_embedding,
    dump_setup,
    homology_rank,
    load_setup,
    locality_pair,
    loop_operators,
    one_point_double_plaquette,
    phi_graph,
    single_plaquette,
    square_torus,
    surface_stabilizer,
    transform_to_graph_state,
    validate_embedding,
)

__version__ = "0.1.0"
