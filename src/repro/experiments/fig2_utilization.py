"""Figure 2: research-group GPU utilization, manual vs GPUnion.

"After a six-week period, the average GPU utilization of all servers
increased from 34% to 67%.  This improvement was primarily attributed
to enhanced visibility of resource availability and the automated
allocation of opportunistic workloads during idle periods" (§4).

Both phases replay the *same* demand trace over the *same* 22-GPU
fleet; only the coordination mechanism differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..units import DAY, WEEK
from .campus import (
    PAPER_LABS,
    PAPER_SERVERS,
    build_gpunion_campus,
    build_manual_campus,
    campus_demand,
    replay_demand,
)

#: Demand generated beyond the horizon keeps the fleet busy at the end
#: of the measurement window (jobs arriving late still run past it).
_WARMUP = 0.0


@dataclass
class Fig2Result:
    """Both phases' utilization, overall and per lab."""

    weeks: float
    manual_overall: float
    gpunion_overall: float
    manual_by_lab: Dict[str, float]
    gpunion_by_lab: Dict[str, float]
    manual_sessions_served: int
    gpunion_sessions_served: int
    manual_jobs_denied: int
    gpunion_jobs_completed: int

    @property
    def improvement_points(self) -> float:
        """Utilization gain in percentage points."""
        return (self.gpunion_overall - self.manual_overall) * 100.0

    def rows(self) -> List[List[str]]:
        """Figure 2 as table rows (header first)."""
        labs = sorted(set(self.manual_by_lab) | set(self.gpunion_by_lab))
        rows = [["Research group", "Manual (before)", "GPUnion (after)"]]
        for lab in labs:
            rows.append([
                lab,
                f"{self.manual_by_lab.get(lab, 0.0) * 100:.1f}%",
                f"{self.gpunion_by_lab.get(lab, 0.0) * 100:.1f}%",
            ])
        rows.append([
            "ALL SERVERS",
            f"{self.manual_overall * 100:.1f}%",
            f"{self.gpunion_overall * 100:.1f}%",
        ])
        return rows


#: Replay the demand trace into the platform at arrival times.
_submit_to_gpunion = replay_demand


def run_fig2(seed: int = 42, weeks: float = 6.0) -> Fig2Result:
    """Run both phases and collect Figure 2's series."""
    horizon = weeks * WEEK

    # Phase 1: manual coordination (the "before" bar).
    manual = build_manual_campus(seed=seed)
    manual_trace = campus_demand(seed, horizon)
    manual.play_trace(manual_trace)
    manual.env.run(until=horizon)

    # Phase 2: GPUnion over the same fleet and the same demand.
    platform = build_gpunion_campus(seed=seed)
    gpunion_trace = campus_demand(seed, horizon)
    _submit_to_gpunion(platform, gpunion_trace)
    platform.run(until=horizon)

    completed = sum(
        1 for job in platform.coordinator.jobs.values() if job.is_done
    )
    return Fig2Result(
        weeks=weeks,
        manual_overall=manual.fleet_utilization(0, horizon),
        gpunion_overall=platform.fleet_utilization(0, horizon),
        manual_by_lab=manual.lab_utilization(0, horizon),
        gpunion_by_lab=platform.lab_utilization(0, horizon),
        manual_sessions_served=len(manual.served_sessions()),
        gpunion_sessions_served=len(platform.coordinator.served_sessions()),
        manual_jobs_denied=len(manual.denied_jobs()),
        gpunion_jobs_completed=completed,
    )
