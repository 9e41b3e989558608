"""Ice-flower systems: leaf operations on colored graphs, star
decompositions, graph lattices, and topcode number strings."""

from .graph import (
    Graph,
    are_isomorphic,
    canonical_form,
    canonical_relabel,
    connected_components,
    degree_sequence,
    find_hamilton_cycle,
    find_proper_vertex_coloring,
    is_connected,
    is_delta_saturated,
    is_graphical,
    is_planar,
    is_tree,
    leaves,
    realize_sequence,
)
from .families import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    free_trees,
    graph_classes,
    connected_classes,
    path_graph,
    prufer_to_tree,
    star_graph,
)
from .coloring import (
    ChiFdtResult,
    FdtReport,
    TotalColoring,
    bfdt,
    chi_fdt,
    edge_weight,
    find_fdt_coloring,
    is_proper_total,
)
from .leafops import (
    LeafEdge,
    colored_compatible,
    colored_leaf_coincide,
    colored_leaf_split,
    disjoint_union,
    leaf_coincide,
    leaf_coincide_across,
    leaf_edges,
    leaf_split,
)
from .system import (
    ColoredIceFlowerSystem,
    IceFlowerSystem,
    Star,
    build_uniform_fdt_system,
    is_strongly_colored,
    make_star,
    saturate,
    star_coincide,
)
from .lattice import (
    ClosureResult,
    CoincideScript,
    HairedCycle,
    NoClosure,
    build_haired_cycle,
    close_to_hamiltonian,
    colored_lattice_member,
    decompose_to_stars,
    euler_expression,
    hamiltonian_lattice_member,
    hamiltonian_witness,
    planar_lattice_member,
    recompose,
    recompose_colored,
    spanning_lattice_count,
    spanning_lattice_enumerate,
    uncolored_lattice_member,
)
from .topcode import (
    TopcodeMatrix,
    cuttings,
    realize_topcode,
    solve_dnsp,
    string_from_topcode,
    topcode_from_graph,
    topological_vector,
    vector_lattice_member,
)

__version__ = "0.1.0"
