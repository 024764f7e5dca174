"""sylowlab: exact computations with Sylow subgroups, fixed points and coverings."""

from .errors import (
    CapExceeded,
    ClassNotCoverable,
    DegreeMismatch,
    ExprSyntaxError,
    InvalidConfig,
    InvalidPermutation,
    NoPElement,
    NotAMember,
    NotASubgroup,
    NotMaximal,
    NotNormal,
    NotPSolvable,
    NotTransitive,
    OutOfDomain,
    PreconditionFailed,
    SylowlabError,
    SylowNotContained,
    UnsupportedDegree,
    UnsupportedField,
)
from .group import (
    PermGroup,
    conjugacy_class,
    is_normal,
    is_subgroup,
    normal_closure,
    normalizer,
    p_residual,
    point_stabilizer,
    quotient_group,
)
from .actions import (
    CosetAction,
    canonical_p_element,
    coset_action,
    fpr_element,
    fpr_subgroup,
    min_fpr_p_element,
    natural_action,
    nu_fpr_identity_check,
    subset_fpr_formula,
    sylow_orbit_bound_check,
)
from .catalog import (
    CATALOG,
    CatalogEntry,
    catalog_entry,
    catalog_upto,
    construct,
    construct_text,
    degree_of,
    parse_group_expr,
    predicted_order,
)
from .cliques import max_clique
from .covering import (
    class_cover,
    sigma_lower_bound_check,
    sigma_p,
    sigma_p_cover,
)
from .gf import SmallField, field
from .graphs import (
    BitGraph,
    max_noncommuting_set,
    n_pi,
    noncommuting_graph,
    pi_elements,
    pr_pi,
    pr_times_clique_check,
    sigma_le_clique_check,
    turan_bound_check,
)
from .lattice import SubgroupLattice, is_p_solvable, subgroup_lattice
from .perm import Permutation
from .reports import SCHEMA_VERSION, CheckReport
from .setcover import min_cover
from .sylow import (
    nu_monotonicity_check,
    nu_p,
    nu_quotient_identity_check,
    p_solvable_divisibility_check,
    sylow_ratio_bound_check,
    sylow_ratio_gap_scan,
    sylow_subgroup,
    sylow_subgroups,
)

__version__ = "0.1.0"
