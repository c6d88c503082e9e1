"""Correctness gates run after the measured phase (never timed).

Each gate takes plain outcome data and returns the problems it found;
an empty list means the gate passed.  Keeping them free of system
objects lets the tests hand them a tampered outcome and watch them
fire.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping

Cells = Mapping[str, Mapping[str, object]]

#: Problems listed per gate before the rest are summarised.
_SHOW = 5


def _capped(problems: List[str]) -> List[str]:
    if len(problems) > _SHOW:
        return problems[:_SHOW] + [f"... and {len(problems) - _SHOW} more"]
    return problems


def seats_sold_equal_made(initial: Cells, final: Cells, made: int) -> List[str]:
    """Seats that left the primary copy equal the reservations agents made."""
    sold = sum(initial[n]["seats_available"] - final[n]["seats_available"]
               for n in initial)
    if sold != made:
        return [f"seats sold {sold} != reservations made {made}"]
    return []


def seats_within_capacity(state: Cells) -> List[str]:
    """Every flight's seat count stays within ``[0, capacity]``."""
    return _capped([
        f"{n}: seats {c['seats_available']} outside [0, {c['capacity']}]"
        for n, c in sorted(state.items())
        if not 0 <= c["seats_available"] <= c["capacity"]
    ])


def views_equal_primary(views: Mapping[str, Cells], primary: Cells) -> List[str]:
    """Every view's local copy equals the primary copy on its slice."""
    problems = []
    for view_id, cells in sorted(views.items()):
        for n, cell in sorted(cells.items()):
            if dict(cell) != dict(primary[n]):
                problems.append(f"{view_id}/{n}: view {dict(cell)} != primary {dict(primary[n])}")
    return _capped(problems)


def states_equal(live: Cells, rebuilt: Cells) -> List[str]:
    """A system rebuilt from the WAL reproduces the live database exactly."""
    problems = [f"flight {n} missing from rebuilt database"
                for n in sorted(set(live) - set(rebuilt))]
    problems += [f"flight {n} only in rebuilt database"
                 for n in sorted(set(rebuilt) - set(live))]
    problems += [f"{n}: live {dict(live[n])} != rebuilt {dict(rebuilt[n])}"
                 for n in sorted(set(live) & set(rebuilt))
                 if dict(live[n]) != dict(rebuilt[n])]
    return _capped(problems)


def invariants_hold(check: Callable[[], None]) -> List[str]:
    """The directory's own protocol-invariant check passes."""
    try:
        check()
    except Exception as exc:  # noqa: BLE001 - the gate reports any failure
        return [f"check_invariants: {exc}"]
    return []


def run_gates(results: Dict[str, List[str]]) -> Dict[str, object]:
    """Summarise named gate results into the report's ``gates`` block."""
    return {
        "passed": all(not problems for problems in results.values()),
        "results": {name: (problems or "ok") for name, problems in results.items()},
    }
