"""Serializable fault plans.

A :class:`FaultPlan` is the whole configuration of one fault-injection
pass: which fault kinds fire, at what intensity, and under which seed.
Plans are deliberately tiny JSON-safe value objects — a campaign case
spec carries its plan as a canonical JSON string, so a finding written
to the corpus replays the exact same faults deterministically (the
engine derives every random decision from ``plan.seed`` plus a stable
digest of the failure cut, never from global state).

Fault kinds (see :mod:`repro.inject.engine` for semantics):

* ``torn``     — an atomic persist lands partially, split at sub-block
  granularity (the device's real write unit is smaller than the model's
  atomic persist granularity).
* ``dropped``  — a persist the ordering model says is durable is
  silently discarded (e.g. lost from a volatile device queue).
* ``corrupt``  — bit flips inside landed blocks, biased toward the
  most-written blocks to model NVRAM wear (:mod:`repro.harness.wear`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import FuzzError, ReproError
from repro.schema import decode, encode, option

#: Fault kinds a plan can enable, in canonical order.
FAULT_KINDS: Tuple[str, ...] = ("torn", "dropped", "corrupt")

#: Legal scopes for dropped persists.  ``maximal`` drops only persists
#: with no dependents inside the cut — the device lost the tail of its
#: queue, which every persistency model permits a recovery observer to
#: see as a smaller cut *except* that the drop is silent.  ``any`` drops
#: arbitrary cut members, modeling a fully adversarial device that
#: violates even the ordering the model promised.
DROP_SCOPES: Tuple[str, ...] = ("maximal", "any")

#: Default per-kind intensities used by :meth:`FaultPlan.for_kind`.
_KIND_DEFAULTS: Dict[str, Dict[str, object]] = {
    "torn": {"torn": 0.35},
    "dropped": {"dropped": 0.35},
    "corrupt": {"corrupt": 2},
}


@dataclass(frozen=True)
class FaultPlan:
    """One seeded fault-injection configuration (JSON-safe, hashable).

    Attributes:
        seed: base seed for every injection decision.
        torn: probability a cut-included persist is torn.
        dropped: probability an eligible persist is silently dropped.
        corrupt: number of bit flips applied to landed blocks.
        tear_granularity: sub-block write unit (bytes, power of two);
            a torn persist lands as an aligned prefix of these granules.
        drop_scope: one of :data:`DROP_SCOPES`.
        wear_bias: bias bit flips toward the most-written blocks.
        max_faults: cap on torn+dropped events per image (keeps
            counterexamples interpretable).
    """

    seed: int = option(0, type=int)
    torn: float = option(0.0, type=float)
    dropped: float = option(0.0, type=float)
    corrupt: int = option(0, type=int)
    tear_granularity: int = option(1, type=int)
    drop_scope: str = option("maximal")
    wear_bias: bool = option(True, type=bool)
    max_faults: int = option(4, type=int)

    def validate(self) -> None:
        """Raise :class:`~repro.errors.FuzzError` on unusable parameters."""
        if not 0.0 <= self.torn <= 1.0 or not 0.0 <= self.dropped <= 1.0:
            raise FuzzError(
                f"fault probabilities must lie in [0, 1], got "
                f"torn={self.torn} dropped={self.dropped}"
            )
        if self.corrupt < 0:
            raise FuzzError(f"corrupt must be >= 0, got {self.corrupt}")
        if (
            self.tear_granularity <= 0
            or self.tear_granularity & (self.tear_granularity - 1)
        ):
            raise FuzzError(
                f"tear granularity must be a power of two, got "
                f"{self.tear_granularity}"
            )
        if self.drop_scope not in DROP_SCOPES:
            raise FuzzError(
                f"drop scope {self.drop_scope!r} not in {DROP_SCOPES}"
            )
        if self.max_faults <= 0:
            raise FuzzError(
                f"max_faults must be positive, got {self.max_faults}"
            )
        if not self.kinds:
            raise FuzzError("fault plan enables no fault kind")

    @property
    def kinds(self) -> Tuple[str, ...]:
        """The fault kinds this plan enables, in canonical order."""
        enabled = []
        if self.torn > 0:
            enabled.append("torn")
        if self.dropped > 0:
            enabled.append("dropped")
        if self.corrupt > 0:
            enabled.append("corrupt")
        return tuple(enabled)

    @classmethod
    def for_kind(cls, kind: str, seed: int = 0) -> "FaultPlan":
        """A canonical single-kind plan at the default intensity."""
        if kind not in _KIND_DEFAULTS:
            raise FuzzError(
                f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
            )
        return cls(seed=seed, **_KIND_DEFAULTS[kind])

    def describe(self) -> Dict[str, object]:
        """JSON dict representation (the wire format)."""
        return encode(self)

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "FaultPlan":
        """Rebuild a plan from :meth:`describe` output; absent keys take
        their defaults, and an integral probability reads as a float.

        Raises:
            FuzzError: on a malformed payload or invalid parameters.
        """
        try:
            return decode(cls, payload)
        except FuzzError:
            raise
        except ReproError as exc:
            raise FuzzError(f"malformed fault plan: {exc}") from exc

    def to_json(self) -> str:
        """Canonical JSON string (stable: sorted keys, no whitespace).

        This is what a :class:`~repro.fuzz.campaign.CaseSpec` carries —
        a string stays hashable and content-digest stable.
        """
        return json.dumps(self.describe(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Inverse of :meth:`to_json`.

        Raises:
            FuzzError: when the string is not a valid plan encoding.
        """
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise FuzzError(f"unparsable fault plan {text!r}: {exc}") from exc
        if not isinstance(payload, dict):
            raise FuzzError(f"fault plan must be a JSON object, got {text!r}")
        return cls.from_payload(payload)
