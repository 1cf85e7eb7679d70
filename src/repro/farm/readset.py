"""Recording the rest-of-network slice an explanation actually reads.

A job's content-addressed key covers its *own* inputs; its dependency
on every other router's policy is dynamic -- the pipeline reads other
configurations only by pushing routes through their route-maps.  Those
transfers happen at exactly two seams:

* the **symbolic** seam -- :meth:`Encoder._state_of` applies a
  neighbor's export/import map to a :class:`SymbolicRoute` via
  :func:`apply_routemap_symbolic`;
* the **concrete** seam -- :func:`repro.bgp.simulation.simulate`
  applies export/import maps to concrete :class:`Announcement`\\ s.

:class:`TransferRecorder` taps both seams (the engine threads it
through), capturing ``(owner, direction, neighbor, input) -> output``
fingerprints for every transfer owned by *another* router -- including
identity transfers through absent maps and denials, so adding or
removing a map is visible.  The resulting read-set payload is stored
next to the cached answer; :mod:`repro.farm.invalidate` replays it
against an edited configuration to decide whether the answer is stale.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

from ..bgp.announcement import Announcement, Community
from ..bgp.config import NetworkConfig
from ..bgp.render import render_routemap
from ..smt.serialize import term_from_payload, term_to_payload
from ..synthesis.symexec import AttributeUniverse, SymbolicRoute
from ..topology.prefixes import Prefix
from .keys import digest

__all__ = [
    "READSET_SCHEMA",
    "TransferRecorder",
    "symbolic_route_to_payload",
    "symbolic_route_from_payload",
    "universe_payload",
]

READSET_SCHEMA = "repro-farm-readset/1"

SYMBOLIC = "symbolic"
CONCRETE = "concrete"


def symbolic_route_to_payload(route: SymbolicRoute) -> Dict[str, object]:
    """A self-contained JSON encoding of a symbolic attribute state."""
    return {
        "prefix": str(route.prefix),
        "local_pref": term_to_payload(route.local_pref),
        "med": term_to_payload(route.med),
        "next_hop": term_to_payload(route.next_hop),
        "communities": [
            [str(community), term_to_payload(route.communities[community])]
            for community in sorted(route.communities, key=str)
        ],
    }


def symbolic_route_from_payload(payload: Dict[str, object]) -> SymbolicRoute:
    return SymbolicRoute(
        prefix=Prefix(str(payload["prefix"])),
        local_pref=term_from_payload(payload["local_pref"]),
        med=term_from_payload(payload["med"]),
        next_hop=term_from_payload(payload["next_hop"]),
        communities={
            Community.parse(str(text)): term_from_payload(term)
            for text, term in payload["communities"]  # type: ignore[union-attr]
        },
    )


def universe_payload(universe: AttributeUniverse) -> Dict[str, object]:
    """The attribute vocabulary a symbolic replay must agree on."""
    return {
        "communities": [str(c) for c in universe.communities],
        "next_hops": list(universe.next_hop_sort.values),
    }


def symbolic_output_fingerprint(
    permit, state: SymbolicRoute
) -> str:
    return digest(
        {"permit": term_to_payload(permit), "state": symbolic_route_to_payload(state)}
    )


def concrete_output_fingerprint(result: Optional[Announcement]) -> Optional[str]:
    if result is None:
        return None  # an explicit denial is itself an observation
    return digest(result.to_dict())


#: Entries per cross-job serialization memo.  Sibling jobs of a family
#: (and every replay of a captured seed encode) push the same routes
#: through the same seams, so their payloads and digests are built once
#: per process rather than once per job.  A full memo is emptied and
#: refilled, which keeps a long-lived fleet worker's footprint bounded:
#: an entry is about 3 KB of Python objects, and all per-line jobs of
#: the four case studies together record about 300 distinct inputs.
MEMO_LIMIT = 4096

#: input identity -> (input payload, input digest).  Payloads are
#: shared between the read-sets of every job that records the input;
#: callers treat them as read-only.
_INPUT_MEMO: Dict[object, Tuple[Dict[str, object], str]] = {}
#: output identity -> output fingerprint.
_OUTPUT_MEMO: Dict[object, Optional[str]] = {}
#: Serializes memo inserts: serving threads build read-sets concurrently.
_MEMO_LOCK = threading.Lock()

_V = TypeVar("_V")


def _memoized(memo: Dict[object, _V], key: object, build: Callable[[], _V]) -> _V:
    value = memo.get(key)
    if value is None:
        value = build()
        with _MEMO_LOCK:
            if len(memo) >= MEMO_LIMIT:
                memo.clear()
            memo[key] = value
    return value


def _route_identity(route: SymbolicRoute) -> tuple:
    """A hashable key equal exactly when two routes serialize alike.

    Terms are hash-consed, so structurally equal attribute terms are
    the same object and hash/compare by identity.
    """
    return (
        route.prefix,
        route.local_pref,
        route.med,
        route.next_hop,
        frozenset(route.communities.items()),
    )


def _digested(payload: Dict[str, object]) -> Tuple[Dict[str, object], str]:
    return payload, digest(payload)


class TransferRecorder:
    """Observes every route-map transfer of one explanation question.

    Transfers owned by ``device`` itself are skipped: the device's own
    configuration is part of the static key (and its maps carry the
    question's holes).  Entries are deduplicated on
    ``(seam, owner, direction, neighbor, input)`` with the input keyed
    by hash-consed identity; the pipeline pushes the same routes
    through the same maps many times (per candidate assignment, per
    simulation round), and one record per distinct input suffices for
    replay.  The first recorded output wins.

    Recording keeps the raw route objects only: entry payloads, input
    digests and output fingerprints are built by :meth:`payload`, once
    per distinct input, through a bounded per-process memo shared by
    every recorder.
    """

    def __init__(self, device: str) -> None:
        self.device = device
        #: (seam, owner, direction, neighbor, *input identity) ->
        #: (input, output...) as recorded, first write wins.
        self._seen: Dict[tuple, tuple] = {}

    # -- the two seams -------------------------------------------------

    def symbolic(
        self,
        owner: str,
        direction: str,
        neighbor: str,
        state_in: SymbolicRoute,
        permit,
        state_out: SymbolicRoute,
    ) -> None:
        """One symbolic transfer through ``owner``'s map (may be absent)."""
        if owner == self.device:
            return
        self._seen.setdefault(
            (SYMBOLIC, owner, direction, neighbor) + _route_identity(state_in),
            (state_in, permit, state_out),
        )

    def concrete(
        self,
        owner: str,
        direction: str,
        neighbor: str,
        announcement: Announcement,
        result: Optional[Announcement],
    ) -> None:
        """One concrete transfer through ``owner``'s map (may be absent)."""
        if owner == self.device:
            return
        self._seen.setdefault(
            (CONCRETE, owner, direction, neighbor, announcement),
            (announcement, result),
        )

    def _entry(self, key: tuple, recorded: tuple) -> Tuple[str, Dict[str, object]]:
        """The input digest and entry dict of one recorded transfer."""
        seam, owner, direction, neighbor = key[:4]
        if seam == SYMBOLIC:
            state_in, permit, state_out = recorded
            input_payload, input_digest = _memoized(
                _INPUT_MEMO, key[4:],
                lambda: _digested(symbolic_route_to_payload(state_in)),
            )
            output = _memoized(
                _OUTPUT_MEMO, (permit, _route_identity(state_out)),
                lambda: symbolic_output_fingerprint(permit, state_out),
            )
        else:
            announcement, result = recorded
            input_payload, input_digest = _memoized(
                _INPUT_MEMO, announcement,
                lambda: _digested(announcement.to_dict()),
            )
            output = (
                None
                if result is None
                else _memoized(
                    _OUTPUT_MEMO, result,
                    lambda: concrete_output_fingerprint(result),
                )
            )
        return input_digest, {
            "seam": seam,
            "owner": owner,
            "direction": direction,
            "neighbor": neighbor,
            "input": input_payload,
            "output": output,
        }

    # -- export --------------------------------------------------------

    def seams(self) -> List[Tuple[str, str, str]]:
        """Every (owner, direction, neighbor) triple touched."""
        return sorted({key[1:4] for key in self._seen})

    def payload(
        self, config: NetworkConfig, universe: AttributeUniverse
    ) -> Dict[str, object]:
        """The full read-set document to store next to the answer.

        ``config`` must be the configuration the recording ran against:
        each touched seam's route-map is snapshotted as rendered text,
        giving validation a fast textually-unchanged path before it
        falls back to semantic replay.
        """
        maps = []
        for owner, direction, neighbor in self.seams():
            routemap = config.get_map(owner, direction, neighbor)
            maps.append(
                [
                    owner,
                    direction,
                    neighbor,
                    render_routemap(routemap) if routemap is not None else None,
                ]
            )
        entries: Dict[Tuple[str, str, str, str, str], Dict[str, object]] = {}
        for key, recorded in self._seen.items():
            input_digest, entry = self._entry(key, recorded)
            # Distinct identities always serialize differently; should
            # two ever share bytes, the earlier recording wins.
            entries.setdefault(key[:4] + (input_digest,), entry)
        return {
            "schema": READSET_SCHEMA,
            "device": self.device,
            "universe": universe_payload(universe),
            "maps": maps,
            "entries": [entries[key] for key in sorted(entries)],
        }

    def __len__(self) -> int:
        return len(self._seen)
