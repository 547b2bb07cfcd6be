"""Explainability: decompose *why* an observer trusts a target.

Reputation systems live or die by user trust in the *mechanism*; an opaque
score invites suspicion.  :func:`explain_reputation` decomposes an
observer->target reputation into the paper's ingredients:

* the per-dimension contributions to the one-step edge (Eq. 7 terms):
  how much comes from similar file evaluations (FM), from valid download
  volume (DM), from explicit ranks/friendship (UM);
* the supporting evidence behind each dimension: which co-evaluated files,
  how many valid bytes, what direct relationship;
* for multi-step reputation, the strongest indirect paths
  observer -> intermediary -> target with their weights.

The result renders to a human-readable report via
:meth:`ReputationExplanation.render`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from .file_trust import file_trust
from .reputation_system import MultiDimensionalReputationSystem
from .volume_trust import valid_download_volume

__all__ = ["DimensionContribution", "TrustPath", "ReputationExplanation",
           "explain_reputation"]


@dataclass(frozen=True)
class DimensionContribution:
    """One Eq. 7 term of the direct edge, with its evidence."""

    dimension: str
    weight: float
    #: The dimension's normalised one-step value toward the target.
    value: float
    #: weight * value — the contribution to TM[observer][target].
    contribution: float
    evidence: str


@dataclass(frozen=True)
class TrustPath:
    """An indirect path observer -> via -> target with its mass."""

    via: str
    first_hop: float
    second_hop: float

    @property
    def mass(self) -> float:
        return self.first_hop * self.second_hop


@dataclass
class ReputationExplanation:
    """Full decomposition of one observer->target reputation."""

    observer: str
    target: str
    reputation: float
    direct_edge: float
    contributions: List[DimensionContribution] = field(default_factory=list)
    indirect_paths: List[TrustPath] = field(default_factory=list)
    blacklisted: bool = False

    def render(self) -> str:
        """Human-readable multi-line report."""
        lines = [
            f"Why does {self.observer} trust {self.target}?",
            f"  reputation RM = {self.reputation:.4f} "
            f"(direct one-step edge {self.direct_edge:.4f})",
        ]
        if self.blacklisted:
            lines.append(f"  !! {self.target} is on "
                         f"{self.observer}'s blacklist: user trust is zero")
        for contribution in self.contributions:
            lines.append(
                f"  [{contribution.dimension:6s}] weight {contribution.weight:.2f}"
                f" x value {contribution.value:.4f}"
                f" = {contribution.contribution:.4f}  ({contribution.evidence})")
        if self.indirect_paths:
            lines.append("  strongest indirect paths:")
            for path in self.indirect_paths:
                lines.append(
                    f"    via {path.via}: {path.first_hop:.4f} x "
                    f"{path.second_hop:.4f} = {path.mass:.4f}")
        no_direct = all(contribution.contribution == 0.0
                        for contribution in self.contributions)
        if no_direct and not self.indirect_paths:
            lines.append("  no direct or indirect trust evidence at all")
        return "\n".join(lines)


def explain_reputation(system: MultiDimensionalReputationSystem,
                       observer: str, target: str,
                       max_paths: int = 3) -> ReputationExplanation:
    """Decompose ``system``'s reputation of ``target`` as seen by ``observer``."""
    config = system.config
    reputation = system.user_reputation(observer, target)
    one_step = system.one_step_matrix()
    direct = one_step.get(observer, target)
    # The refresh above brought the accumulators' raw rows up to date, and
    # this read normalises them into FM, DM and UM; the pipeline's
    # incremental == full-rebuild bar makes them the stores' exact values.
    dimensions = system.pipeline.dimension_matrices()

    contributions: List[DimensionContribution] = []

    # File dimension: FT plus the co-evaluated evidence.
    if config.alpha > 0:
        value = dimensions["file"].get(observer, target)
        shared = system.evaluations.shared_files(observer, target)
        raw = file_trust(system.evaluations, observer, target, config)
        evidence = (f"{len(shared)} co-evaluated files, "
                    f"similarity {raw:.3f}" if raw is not None
                    else "no co-evaluated files")
        contributions.append(DimensionContribution(
            "file", config.alpha, value, config.alpha * value, evidence))

    # Volume dimension.
    if config.beta > 0:
        value = dimensions["volume"].get(observer, target)
        volume = valid_download_volume(system.ledger, system.evaluations,
                                       observer, target)
        downloads = len(system.ledger.downloads(observer, target))
        evidence = (f"{downloads} downloads, "
                    f"{volume / 1e6:.1f} MB valid volume")
        contributions.append(DimensionContribution(
            "volume", config.beta, value, config.beta * value, evidence))

    # User dimension.
    if config.gamma > 0:
        value = dimensions["user"].get(observer, target)
        if system.user_trust.is_blacklisted(observer, target):
            evidence = "blacklisted"
        elif system.user_trust.is_friend(observer, target):
            evidence = "friend"
        else:
            rating = system.user_trust.trust(observer, target)
            evidence = (f"rated {rating:.2f}" if rating is not None
                        else "no direct relationship")
        contributions.append(DimensionContribution(
            "user", config.gamma, value, config.gamma * value, evidence))

    # Indirect paths (only meaningful beyond one step, but informative
    # regardless: who would carry the trust if propagated).
    paths: List[TrustPath] = []
    observer_row = one_step.row(observer)
    for via, first_hop in observer_row.items():
        if via in (observer, target):
            continue
        second_hop = one_step.get(via, target)
        if second_hop > 0:
            paths.append(TrustPath(via=via, first_hop=first_hop,
                                   second_hop=second_hop))
    paths.sort(key=lambda path: -path.mass)

    return ReputationExplanation(
        observer=observer,
        target=target,
        reputation=reputation,
        direct_edge=direct,
        contributions=contributions,
        indirect_paths=paths[:max_paths],
        blacklisted=system.user_trust.is_blacklisted(observer, target),
    )
