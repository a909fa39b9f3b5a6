"""Exact statistics and identity verifiers for projective reflection groups."""

from .cyclotomic import CycInt, ConductorMismatchError, cyclotomic_poly, zeta_pow
from .groups import (
    BudgetExceededError,
    ColoredPermutation,
    DivisibilityError,
    GroupDescriptor,
    GroupMismatchError,
    MembershipError,
    ParseError,
    ProjectiveElement,
    RangeError,
    canonicalize,
    enumerate_elements,
    format_window,
    identity,
    inverse,
    lifts,
    make_group,
    multiply,
    parse_group,
    parse_window,
    residue,
)
from .series import (
    ConstantTermError,
    NonMonomialBaseError,
    RegionError,
    TruncatedSeries,
    equal_on,
    geom_divide,
    geom_inverse,
    q_bracket,
)
from .stats import (
    COLOR,
    PRIME,
    BnDescentSplit,
    OrderScopeError,
    ScopeError,
    StatRecord,
    bn_descent_split,
    col_residues,
    compare,
    des_set,
    distribution,
    fmaj_prime,
    inversions,
    order_key,
    signed_distribution,
    stat_record,
)
from .bijections import (
    Bipartite2Partition,
    bipartite_from_tuple,
    nvec_decode,
    nvec_encode,
    order_involution,
    partitions_in_box,
)
from .rsk import (
    ShapeMismatchError,
    rs_correspondence,
    rs_inverse,
    rs_transpose_map,
    tableau_descents,
    transpose,
)
from .identities import (
    CharacterConditionError,
    CompositionError,
    VerificationReport,
    verify_carlitz_des,
    verify_carlitz_fdes,
    verify_character_fmaj,
    verify_fdes_trivariate,
    verify_hilbert,
    verify_lift_identity,
    verify_signed_multinomial,
    verify_signed_wreath,
    verify_six_stats,
)

__version__ = "0.1.0"
