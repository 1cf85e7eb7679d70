"""Core semantic primitives shared by the verifier and the encoder.

The central judgement is *forbidden-subpath matching*: a traffic path
violates ``!(pattern)`` when some contiguous slice of it matches the
pattern and that slice traverses the managed network (see
:class:`repro.spec.ast.Specification` for why the managed scope
exists).  Both the concrete verifier and the symbolic encoder call
:func:`violates_forbidden`, which keeps the two semantics aligned by
construction.
"""

from __future__ import annotations

import functools
from typing import FrozenSet, List, Optional, Sequence, Tuple

from ..topology.graph import Topology
from ..topology.paths import Path, PathPattern
from ..topology.prefixes import Prefix
from .ast import PathPreference, Reachability, SpecError

__all__ = [
    "matching_slices",
    "violates_forbidden",
    "destination_prefixes",
    "expand_preference",
    "RankedPaths",
]


def matching_slices(pattern: PathPattern, path: Path) -> Tuple[Tuple[int, int], ...]:
    """All ``(start, end)`` index pairs whose slice matches ``pattern``.

    Slices are contiguous subsequences ``path.hops[start:end]`` with at
    least one hop.  Full-path matches are included (``start=0``,
    ``end=len(path)``).
    """
    hops = path.hops
    found: List[Tuple[int, int]] = []
    for start in range(len(hops)):
        for end in range(start + 1, len(hops) + 1):
            if pattern.matches(Path(hops[start:end])):
                found.append((start, end))
    return tuple(found)


def violates_forbidden(
    traffic_path: Path,
    pattern: PathPattern,
    managed: FrozenSet[str] = frozenset(),
) -> bool:
    """Whether ``traffic_path`` contains a forbidden (scoped) subpath.

    With an empty ``managed`` set every matching slice counts; with a
    non-empty set a slice only counts when it traverses at least one
    managed router -- the operator cannot influence traffic that never
    enters the managed network.
    """
    return _violates(traffic_path.hops, pattern, frozenset(managed))


#: Distinct ``(hops, pattern, managed)`` verdicts kept per process.
#: The encoders and verifiers ask about the same ~2k paths of an input
#: over and over (once per symbolized component).
FORBIDDEN_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=FORBIDDEN_CACHE_SIZE)
def _violates(
    hops: Tuple[str, ...], pattern: PathPattern, managed: FrozenSet[str]
) -> bool:
    path = Path(hops)
    for start, end in matching_slices(pattern, path):
        if not managed or any(hop in managed for hop in hops[start:end]):
            return True
    return False


def destination_prefixes(topology: Topology, destination: str) -> Tuple[Prefix, ...]:
    """Prefixes originated by ``destination`` (the requirement's subject)."""
    router = topology.router(destination)
    if not router.originated:
        raise SpecError(
            f"requirement destination {destination} originates no prefixes"
        )
    return router.originated


class RankedPaths:
    """A preference requirement expanded over a concrete topology.

    ``paths[i]`` holds the concrete traffic paths matching the i-th
    ranked pattern; ``unlisted`` holds every other simple traffic path
    from the source to the destination.
    """

    def __init__(
        self,
        preference: PathPreference,
        topology: Topology,
        max_length: Optional[int] = None,
    ) -> None:
        self.preference = preference
        self.topology = topology
        self.paths: Tuple[Tuple[Path, ...], ...] = tuple(
            pattern.matching_paths(topology, max_length) for pattern in preference.ranked
        )
        for pattern, candidates in zip(preference.ranked, self.paths):
            if not candidates:
                raise SpecError(
                    f"preference pattern ({pattern}) matches no path in the topology"
                )
        listed = {path.hops for group in self.paths for path in group}
        everything = PathPattern.of(
            preference.source, *_wildcard_middle(), preference.destination
        ).matching_paths(topology, max_length)
        self.unlisted: Tuple[Path, ...] = tuple(
            path for path in everything if path.hops not in listed
        )

    def rank_of(self, path: Path) -> Optional[int]:
        """The (best) rank whose pattern the path matches, or None."""
        for rank, group in enumerate(self.paths):
            if path.hops in {candidate.hops for candidate in group}:
                return rank
        return None

    def distinguishing_edges(
        self,
        upto_rank: int,
        preserve: Tuple[Path, ...] = (),
    ) -> Tuple[Tuple[str, str], ...]:
        """Edges whose removal disables ranks ``< upto_rank`` while
        keeping every rank ``>= upto_rank`` candidate and every path in
        ``preserve`` intact.

        Used by the verifier's failure analysis: failing these edges
        makes rank ``upto_rank`` (or, past the last rank, a preserved
        unlisted path) the best *available* option.  Among admissible
        edges of each path, the one appearing on the fewest other
        source-to-destination paths is chosen to minimise collateral
        disconnection.
        """
        protected = set()
        for group in self.paths[upto_rank:]:
            for path in group:
                protected.update(frozenset(edge) for edge in path.edges)
        for path in preserve:
            protected.update(frozenset(edge) for edge in path.edges)
        # Count how many source->destination candidates use each edge.
        usage: dict = {}
        all_paths = [path for group in self.paths for path in group]
        all_paths.extend(self.unlisted)
        for path in all_paths:
            for edge in path.edges:
                key = frozenset(edge)
                usage[key] = usage.get(key, 0) + 1
        removable: List[Tuple[str, str]] = []
        for group in self.paths[:upto_rank]:
            for path in group:
                candidates = [
                    edge for edge in path.edges if frozenset(edge) not in protected
                ]
                if not candidates:
                    raise SpecError(
                        f"cannot fail path {path}: every edge is shared with a "
                        "path that must stay alive"
                    )
                candidates.sort(key=lambda edge: (usage[frozenset(edge)], edge))
                removable.append(candidates[0])
        unique = []
        seen = set()
        for edge in removable:
            key = frozenset(edge)
            if key not in seen:
                seen.add(key)
                unique.append(edge)
        return tuple(unique)


def expand_preference(
    preference: PathPreference,
    topology: Topology,
    max_length: Optional[int] = None,
) -> RankedPaths:
    """Expand a preference requirement over the topology."""
    return RankedPaths(preference, topology, max_length)


def _wildcard_middle():
    from ..topology.paths import WILDCARD

    return (WILDCARD,)
