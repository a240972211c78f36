"""Exact computation in generalized free products of finite groups.

Word normal forms, conjugacy decision, compatible-quotient construction,
graph-of-groups presentations, and search for finite p-group homomorphisms
witnessing conjugacy p-separability.
"""

from . import errors
from .amalgam import (
    AmalgamSpec,
    ConjugacyVerdict,
    NormalForm,
    Word,
    cyclically_reduce,
    is_conjugate_central,
    is_conjugate_general,
    make_amalgam,
    normal_form,
    reduce,
    word,
)
from .fingroup import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    conjugacy_classes,
    cyclic,
    dihedral,
    direct_product,
    enumerate_homs,
    enumerate_normal_subgroups,
    from_table,
    quaternion,
    quotient,
    subgroup_closure,
)
from .quotients import (
    CompatiblePair,
    enumerate_compatible_pairs,
    p_residual,
    project_word,
    quotient_amalgam,
)
from .graphgroups import (
    Edge,
    GroupGraph,
    Presentation,
    amalgam_as_group_graph,
    amalgam_presentation,
    fundamental_presentation,
    maximal_tree,
)
from .separability import (
    SearchBudget,
    Witness,
    is_cfp_separable_bounded,
    p_group_catalog,
    search_witness,
    word_image,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
