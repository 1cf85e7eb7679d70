"""Tests for the shared semantic primitives."""

import pytest

from repro.spec import (
    PathPreference,
    SpecError,
    expand_preference,
    matching_slices,
    violates_forbidden,
)
from repro.topology import Path, PathPattern, Prefix, WILDCARD


class TestMatchingSlices:
    def test_full_match(self):
        pattern = PathPattern.of("A", WILDCARD, "C")
        path = Path(("A", "B", "C"))
        assert (0, 3) in matching_slices(pattern, path)

    def test_inner_slice(self):
        pattern = PathPattern.exact("B", "C")
        path = Path(("A", "B", "C", "D"))
        assert matching_slices(pattern, path) == ((1, 3),)

    def test_no_match(self):
        pattern = PathPattern.exact("X", "Y")
        assert matching_slices(pattern, Path(("A", "B"))) == ()

    def test_multiple_slices(self):
        pattern = PathPattern.of("A", WILDCARD)
        path = Path(("A", "B", "C"))
        starts = {start for start, _ in matching_slices(pattern, path)}
        assert starts == {0}
        # Wildcard-suffix pattern matches every prefix slice at A.
        assert len(matching_slices(pattern, path)) == 3


class TestViolatesForbidden:
    def test_unscoped(self):
        pattern = PathPattern.of("P1", WILDCARD, "P2")
        assert violates_forbidden(Path(("P1", "D1", "P2")), pattern)
        assert not violates_forbidden(Path(("P1", "D1")), pattern)

    def test_managed_scope_excludes_external_slices(self):
        pattern = PathPattern.of("P1", WILDCARD, "P2")
        managed = frozenset({"R1", "R2", "R3"})
        # Transit via D1 never touches the managed network.
        assert not violates_forbidden(Path(("P1", "D1", "P2")), pattern, managed)
        # Transit via R1 -> R2 does.
        assert violates_forbidden(Path(("P1", "R1", "R2", "P2")), pattern, managed)

    def test_subpath_of_longer_traffic_path(self):
        pattern = PathPattern.of("P1", WILDCARD, "P2")
        managed = frozenset({"R1", "R2", "R3"})
        long_path = Path(("X", "P1", "R1", "R2", "P2", "Y"))
        assert violates_forbidden(long_path, pattern, managed)

    def test_managed_endpoint_counts(self):
        pattern = PathPattern.exact("R1", "P1")
        managed = frozenset({"R1"})
        assert violates_forbidden(Path(("R1", "P1")), pattern, managed)

    def test_verdicts_are_memoized_within_a_bound(self):
        from repro.spec import semantics

        pattern = PathPattern.of("P1", WILDCARD, "P2")
        path = Path(("P1", "R1", "P2"))
        before = semantics._violates.cache_info()
        # A plain set is accepted and keys the same entry as a frozenset.
        assert violates_forbidden(path, pattern, {"R1"})
        assert violates_forbidden(path, pattern, frozenset({"R1"}))
        assert not violates_forbidden(path, pattern, {"R9"})
        after = semantics._violates.cache_info()
        assert after.hits - before.hits >= 1
        assert after.maxsize == semantics.FORBIDDEN_CACHE_SIZE


class TestExpandPreference:
    def make_preference(self):
        return PathPreference(
            (
                PathPattern.of("C", "R3", "R1", "P1", WILDCARD, "D1"),
                PathPattern.of("C", "R3", "R2", "P2", WILDCARD, "D1"),
            )
        )

    def test_expansion(self, hotnets_topology):
        ranked = expand_preference(self.make_preference(), hotnets_topology)
        assert len(ranked.paths) == 2
        first = {str(path) for path in ranked.paths[0]}
        assert "C -> R3 -> R1 -> P1 -> D1" in first

    def test_unlisted_paths_detected(self, hotnets_topology):
        ranked = expand_preference(self.make_preference(), hotnets_topology)
        unlisted = {str(path) for path in ranked.unlisted}
        # e.g. the path through R3 -> R1 -> R2 -> P2 is not listed.
        assert any("R1 -> R2 -> P2" in path for path in unlisted)

    def test_rank_of(self, hotnets_topology):
        ranked = expand_preference(self.make_preference(), hotnets_topology)
        assert ranked.rank_of(Path(("C", "R3", "R1", "P1", "D1"))) == 0
        assert ranked.rank_of(Path(("C", "R3", "R2", "P2", "D1"))) == 1
        assert ranked.rank_of(Path(("C", "R3"))) is None

    def test_unmatchable_pattern_rejected(self, hotnets_topology):
        preference = PathPreference(
            (
                PathPattern.exact("C", "P1"),  # no direct link
                PathPattern.of("C", WILDCARD, "P1"),
            )
        )
        with pytest.raises(SpecError):
            expand_preference(preference, hotnets_topology)

    def test_distinguishing_edges(self, hotnets_topology):
        ranked = expand_preference(self.make_preference(), hotnets_topology)
        edges = ranked.distinguishing_edges(1)
        # Failing these edges must disable every rank-0 path while
        # keeping at least one rank-1 path alive.
        assert edges
        rank1_edges = {frozenset(e) for p in ranked.paths[1] for e in p.edges}
        assert all(frozenset(edge) not in rank1_edges for edge in edges)

    def test_destination_prefixes(self, hotnets_topology):
        from repro.spec import destination_prefixes

        prefixes = destination_prefixes(hotnets_topology, "D1")
        assert prefixes == (Prefix("200.0.1.0/24"),)
        with pytest.raises(SpecError):
            destination_prefixes(hotnets_topology, "R1")
