"""Cache simulators: single-level organisations and the virtual-real hierarchy.

Everything in this package is driven by block-level accesses and is
independent of where the addresses come from (synthetic traces or the
processor model).  The placement function is always injected from
:mod:`repro.core`, which is what lets a single cache model cover the paper's
conventional, skewed-XOR and I-Poly organisations.
"""

from .block import CacheBlock
from .column_assoc import ColumnAssociativeCache, ColumnAssociativeResult
from .fully_assoc import FullyAssociativeCache
from .replacement import (
    DEFAULT_RANDOM_SEED,
    REPLACEMENT_POLICIES,
    FIFOReplacement,
    LRUReplacement,
    RandomReplacement,
    ReplacementPolicy,
    TreePLRUReplacement,
    clone_replacement,
    make_replacement_policy,
    replacement_policy_name,
    resolve_replacement,
)
from .set_assoc import AccessResult, SetAssociativeCache, WritePolicy
from .stats import CacheStats, MissClassifier, MissKind
from .victim import VictimCache, VictimCacheResult
from .virtual_real import VirtualRealAccessResult, VirtualRealHierarchy

__all__ = [
    "CacheBlock",
    "AccessResult",
    "SetAssociativeCache",
    "WritePolicy",
    "FullyAssociativeCache",
    "VictimCache",
    "VictimCacheResult",
    "ColumnAssociativeCache",
    "ColumnAssociativeResult",
    "VirtualRealHierarchy",
    "VirtualRealAccessResult",
    "ReplacementPolicy",
    "LRUReplacement",
    "FIFOReplacement",
    "RandomReplacement",
    "TreePLRUReplacement",
    "REPLACEMENT_POLICIES",
    "DEFAULT_RANDOM_SEED",
    "make_replacement_policy",
    "replacement_policy_name",
    "clone_replacement",
    "resolve_replacement",
    "CacheStats",
    "MissClassifier",
    "MissKind",
]
