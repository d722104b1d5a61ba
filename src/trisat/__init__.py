"""Saturated subgraphs of complete tripartite hosts.

A subgraph G of the complete tripartite host K_{n1,n2,n3} is saturated for
a pattern K_{l,m,p} when G contains no copy of the pattern but adding any
host nonedge creates one.  This package generates the known low-edge-count
saturated constructions, verifies saturation mechanically, evaluates the
closed-form bounds, and computes exact saturation numbers on small hosts
by exhaustive branch-and-bound.
"""

from .constructions import (ConstructionError, construction1, construction2,
                            construction3, construction4, construction5,
                            construction_c4, hub_sets, residual_triple_edges,
                            smallest_guaranteed_n)
from .containment import ContainmentError, contains, contains_after, contains_naive
from .formulas import (BoundRecord, FormulaError, f_bw, f_c4, f_con1_upper,
                       f_con3_upper, f_con4_upper, f_con5_upper, f_ehm, f_fjpw,
                       f_gks_lower, f_lll2_lower, f_ms_upper, f_sat_lll,
                       f_sat_lll1)
from .graphs import (DegreeProfile, GraphBuilder, GraphError, TripartiteGraph,
                     VertexRef, degree_profile, host_nonedges, iso_equivalent,
                     new_host)
from .patterns import (Embedding, EmbeddingError, PatternError, PatternSpec,
                       validate_embedding)
from .search import (SearchError, SearchResult, enumerate_optima, sat_exact,
                     sat_exhaustive, sat_greedy)
from .serialization import FormatError, deserialize, serialize
from .verifier import (DegreeCheck, ResidualReport, SaturationReport,
                       VerifierError, degree_threshold_check, is_saturated,
                       residual_structure_check)

__version__ = "0.1.0"
