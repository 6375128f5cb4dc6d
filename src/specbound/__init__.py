"""specbound: spectral bounds, colorings, matchings, and limit checks for
bounded-degree graphs under the uniform vertex measure."""

from .graphs import (CapExceeded, DirectedGraph, Graph, InternalError,
                     Transport, bits, canonical_digest, components, degree_stats,
                     dump_directed_edge_list, dump_edge_list, induced_subgraph,
                     is_connected, load_directed_edge_list, load_edge_list,
                     mask_of, neighborhood, popcount, verify_mass_transport)
from .generators import (GraphFamily, complete, complete_bipartite,
                         constant_family, cycle, cycle_family, function_graph,
                         paley_tournament, path, petersen, random_regular,
                         subdivide)
from .spectral import (Spectrum, SpectralBounds, adjacency_spectrum,
                       antidiagonal_spectrum, block_extremes, bounds, extremes,
                       laplacian_spectrum, mean_zero_extremes, multiset_close,
                       spectral_gap, spectral_report)
from .coloring import (Coloring, Peeling, PeelingStuck, backwards_list_color,
                       brute_force_chromatic, brute_force_independence,
                       function_graph_color, greedy_list_coloring,
                       min_degree_peel_color, peel_by_threshold, wilf_color)
from .bipartite import (BipartiteVerdict, RotationColoring,
                        bfs_bipartition_oracle, is_symmetric_spectrum,
                        rotation_two_coloring, spectral_bipartite_test)
from .matching import (TutteReport, TwoSetReport, brouwer_haemers_test,
                       independent_expansion, odd_component_measure,
                       perfect_matching_oracle, tutte_scan, two_set_inequality)
from .limits import (GapPersistenceReport, SpectrumAccumulation,
                     accumulate_spectra, delta, gap_persistence, max_gap)
from .enumeration import enumerate_graphs

__version__ = "0.1.0"
