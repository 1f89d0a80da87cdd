"""Edge-colored complete and complete-bipartite graphs: extremal coloring
generators, rainbow-pattern detection, monochromatic/two-colored
connectivity measurements, and a claim-verification harness."""

from .core import (
    CertificationError,
    ColoredBipartite,
    ColoredComplete,
    ColoringFormatError,
    SimpleGraph,
    dump_coloring,
    induced_subgraph,
    load_coloring,
    read_coloring,
    restrict,
    write_coloring,
)
from .patterns import (
    A_SET,
    B_SET,
    G_SET,
    H2_SET,
    H_SET,
    Pattern,
    catalog_members,
    is_isomorphic,
    is_subgraph,
    parse_pattern,
)
from .rainbow import (
    Embedding,
    enumerate_rainbow,
    find_rainbow,
    find_rainbow_triangle,
    validate_embedding,
)
from .connectivity import (
    ConnectivityReport,
    best_monochromatic,
    best_two_colored,
    gyarfas_floor,
    is_k_connected,
    largest_k_connected,
    mader_extract,
    verify_order_cap,
    vertex_connectivity,
)
from .constructions import (
    Generated,
    corollary_sequence,
    eg_realizable,
    gen_F1,
    gen_F2,
    gen_F3,
    gen_R1,
    gen_R2,
    gen_counterexample_4t,
    gen_intro_example,
    realize_degree_sequence,
)
from .gallai import (
    GallaiPartition,
    NotGallaiError,
    gallai_partition,
    is_gallai,
    sample_gallai,
    validate_gallai_partition,
    verify_two_color_2connected,
    verify_two_color_3connected,
)
from .bipartite import (
    BipartiteStructure,
    classify_k13_free,
    gen_type_b,
    validate_type_b,
    verify_background_spanning_kconn,
)
from .paths import (
    CycleWitness,
    PathWitness,
    check_mono_path_quota,
    kano_li_floor,
    longest_mono_cycle,
    longest_mono_path,
    validate_cycle,
    validate_path,
)
from .claims import Claim, RunReport, build_registry, run_claims
from .crosscheck import micro_crosscheck

__version__ = "0.1.0"
