"""Recovery-time measurement.

The Fig. 3 experiment's observable is *how long traffic stops* after a
failure: :func:`recovery_from_arrivals` measures the gap a continuous
stream (video chunks, CBR probes) shows around the failure time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence


@dataclass(frozen=True)
class Recovery:
    """One failure's measured outage."""

    fail_time: float
    resumed_at: float
    outage: float
    packets_lost: int


def recovery_from_arrivals(arrivals: Sequence[float], fail_time: float,
                           send_interval: float) -> Optional[Recovery]:
    """Measure the outage a continuous stream suffered at *fail_time*.

    The outage is the time from the failure until the next arrival;
    packets lost is estimated from the arrival gap and send rate.
    Returns None when no arrival follows the failure (no recovery).
    """
    before = [t for t in arrivals if t <= fail_time]
    after = [t for t in arrivals if t > fail_time]
    if not after:
        return None
    resumed = after[0]
    last_good = before[-1] if before else fail_time
    gap = resumed - last_good
    lost = max(int(round(gap / send_interval)) - 1, 0)
    return Recovery(fail_time=fail_time, resumed_at=resumed,
                    outage=resumed - fail_time, packets_lost=lost)


def recoveries_for_failures(arrivals: Sequence[float],
                            fail_times: Sequence[float],
                            send_interval: float) -> List[Optional[Recovery]]:
    """One :class:`Recovery` (or None) per failure time, in order.

    Each failure's recovery window is clipped at the next failure so
    overlapping outages are attributed to the right event.
    """
    out: List[Optional[Recovery]] = []
    ordered = sorted(fail_times)
    for index, fail_time in enumerate(ordered):
        horizon = ordered[index + 1] if index + 1 < len(ordered) else None
        window = [t for t in arrivals if horizon is None or t < horizon]
        out.append(recovery_from_arrivals(window, fail_time, send_interval))
    return out
