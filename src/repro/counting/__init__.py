"""The counting phase (paper Sec. II-B, IV, V).

The workhorse is the SCT (succinct clique tree) pivot recursion from
Pivoter, implemented over local bitset subgraphs with three index
structures (dense / sparse / remap, paper Fig. 4) whose rows are
big-int bitsets, scanned by :func:`repro.kernels.pivot_select` and
intersected inline.  An enumeration baseline
(Arb-Count / kClist style) and brute-force oracles round out the
comparison set.  All counts are
exact Python integers — LiveJournal 13-clique counts overflow 64-bit
by nine decimal orders.
"""

from repro.counting.binomial import binomial, binomial_row
from repro.counting.counters import Counters
from repro.counting.sct import (
    count_kcliques,
    count_all_sizes,
    CountResult,
    SCTEngine,
)
from repro.counting.arbcount import count_kcliques_enumeration
from repro.counting.pervertex import per_vertex_counts
from repro.counting.reference import (
    brute_force_count,
    brute_force_all_sizes,
    networkx_count,
)
from repro.counting.structures import (
    STRUCTURES,
    DenseStructure,
    SparseStructure,
    RemapStructure,
)
from repro.counting.maximal import (
    maximal_cliques,
    count_maximal_cliques,
    maximum_clique,
)
from repro.counting.peredge import per_edge_counts
from repro.counting.profiles import per_vertex_profiles
from repro.counting.forest import (
    SCTForest,
    build_forest,
    get_forest,
    load_forest,
)
from repro.counting.dynamic import (
    EditReport,
    apply_edits,
    dirty_roots,
    read_edit_file,
)
from repro.counting.listing import list_kcliques
from repro.counting.sampling import (
    ApproxCount,
    sample_count_vertex,
    sample_count_color,
)

__all__ = [
    "binomial",
    "binomial_row",
    "Counters",
    "count_kcliques",
    "count_all_sizes",
    "CountResult",
    "SCTEngine",
    "count_kcliques_enumeration",
    "per_vertex_counts",
    "brute_force_count",
    "brute_force_all_sizes",
    "networkx_count",
    "STRUCTURES",
    "DenseStructure",
    "SparseStructure",
    "RemapStructure",
    "maximal_cliques",
    "count_maximal_cliques",
    "maximum_clique",
    "per_edge_counts",
    "per_vertex_profiles",
    "SCTForest",
    "build_forest",
    "get_forest",
    "load_forest",
    "EditReport",
    "apply_edits",
    "dirty_roots",
    "read_edit_file",
    "list_kcliques",
    "ApproxCount",
    "sample_count_vertex",
    "sample_count_color",
]
