"""n! vol of the Newton polytope, the reference that the degree-law and
decomposition tests read: the sum of |det| over the pulling triangulation
coned at the origin (facets through the origin contribute nothing).  The
engine reads the same sum off its decomposition (``JobConfig.volume``).
"""

from dworksum.polytope import SimplicialDecomposition


def normalized_volume(nd) -> int:
    return sum(s.det for s in SimplicialDecomposition(nd).simplices)
