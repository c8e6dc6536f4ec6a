"""Decide whether a periodic pattern is a (t,r) broadcast.

By periodicity, checking every vertex of one fundamental domain decides
validity over the whole infinite grid. The signal over the domain comes
from one residue scatter (signal.signal_field).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from gridcast.core import (
    BroadcastSpec,
    PeriodicPattern,
    Vertex,
    canonicalize,
    density,
    standard,
)
from gridcast.signal import signal_field


@dataclass(frozen=True)
class VerificationReport:
    valid: bool
    t: int
    r: int
    density: Fraction
    min_total_signal: int
    witness: Vertex  # lexicographically least (by y, then x) minimizer
    domain_size: int

    def to_dict(self) -> dict:
        return {
            "valid": self.valid,
            "t": self.t,
            "r": self.r,
            "density": {"num": self.density.numerator, "den": self.density.denominator},
            "min_total_signal": self.min_total_signal,
            "witness": list(self.witness),
            "domain_size": self.domain_size,
        }


def verify(p: PeriodicPattern, spec: BroadcastSpec) -> VerificationReport:
    """Full scan of the fundamental domain; valid iff every vertex gets >= r."""
    canon = canonicalize(p)
    field = signal_field(canon, spec.t, spec.r)
    low = min(field)
    # field is in (y, x) order, so its first minimum is the lex-least witness
    index = field.index(low)
    a = canon.basis_u[0]
    return VerificationReport(
        valid=low >= spec.r,
        t=spec.t,
        r=spec.r,
        density=density(canon),
        min_total_signal=low,
        witness=(index % a, index // a),
        domain_size=len(field),
    )


def is_broadcast(p: PeriodicPattern, spec: BroadcastSpec) -> bool:
    """Like verify().valid, without building a report."""
    return min(signal_field(canonicalize(p), spec.t, spec.r)) >= spec.r


def min_signal(p: PeriodicPattern, t: int) -> int:
    """Minimum UNCAPPED total signal over the fundamental domain.

    Equals the largest r for which p is a (t,r) broadcast, or 0 if none:
    a capped sum reaches r exactly when the uncapped sum does.
    """
    if t < 1:
        raise ValueError(f"signal strength t must be >= 1, got {t}")
    return min(signal_field(canonicalize(p), t))


def min_t(p: PeriodicPattern, r: int, t_max: int) -> int | None:
    """Smallest t <= t_max making p a (t,r) broadcast; None if there is none.

    Signal is monotone in t, so doubling t brackets the answer and a binary
    search finds it. A probe at t costs O(t^2) on top of the domain, so
    probing upward from t = 1 keeps the cost near that of the answer.
    """
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    canon = canonicalize(p)
    lo, hi = 1, 1  # every t < lo fails
    while not is_broadcast(canon, BroadcastSpec(hi, r)):
        if hi == t_max:
            return None
        lo, hi = hi + 1, min(2 * hi, t_max)
    while lo < hi:  # hi always valid
        mid = (lo + hi) // 2
        if is_broadcast(canon, BroadcastSpec(mid, r)):
            hi = mid
        else:
            lo = mid + 1
    return hi


@dataclass(frozen=True)
class UpgradeCheck:
    """Result of re-verifying the optimal (t0,1) pattern as a (t0+1,3) broadcast."""

    t0: int
    pattern: PeriodicPattern
    report: VerificationReport
    in_theorem_range: bool  # the upgrade theorem is stated for t0 > 2


def upgrade_check(t0: int) -> UpgradeCheck:
    """Verify standard(2*t0^2 - 2*t0 + 1, 2*t0 - 1) against (t0 + 1, 3)."""
    if t0 < 1:
        raise ValueError(f"t0 must be >= 1, got {t0}")
    d = 2 * t0 * t0 - 2 * t0 + 1
    p = standard(d, 2 * t0 - 1)
    report = verify(p, BroadcastSpec(t0 + 1, 3))
    return UpgradeCheck(t0=t0, pattern=p, report=report, in_theorem_range=t0 > 2)
