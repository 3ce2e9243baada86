"""Dense reference for the matcher's greedy core.

This is the original candidate enumeration of
:func:`repro.core.matching._greedy_index_pairs`: it materializes the
full ``(control, treatment, confounder)`` difference array in blocks of
control rows and keeps the pairs that pass the caliper on every
confounder. It is quadratic in the pool sizes, so the library no longer
uses it; the oracle tests hold the band-join core to its exact output.
"""

from __future__ import annotations

import math

import numpy as np

#: Cell budget of one dense block (chunk x treatment x confounder).
DENSE_CELL_BUDGET = 4_000_000


def dense_greedy_index_pairs(
    log_c: np.ndarray,
    log_t: np.ndarray,
    caliper: float,
    max_pairs: int | None,
) -> tuple[list[tuple[int, int, float]], int]:
    """Accepted ``(control, treatment, distance)`` triples and the
    caliper-compatible candidate count, by dense enumeration."""
    limit = math.log(1.0 + caliper)
    n_control, n_confounders = log_c.shape
    n_treatment = log_t.shape[0]

    chunk = max(
        1, DENSE_CELL_BUDGET // (max(1, n_treatment) * max(1, n_confounders))
    )
    ci_parts: list[np.ndarray] = []
    ti_parts: list[np.ndarray] = []
    dist_parts: list[np.ndarray] = []
    for start in range(0, n_control, chunk):
        block = log_c[start : start + chunk]
        # |log a - log b| per (control, treatment, confounder).
        diff = np.abs(block[:, None, :] - log_t[None, :, :])
        compatible = np.all(diff <= limit + 1e-12, axis=2)
        rows, cols = np.nonzero(compatible)
        if rows.size:
            ci_parts.append(rows + start)
            ti_parts.append(cols)
            dist_parts.append(diff.sum(axis=2)[rows, cols])
    if not ci_parts:
        return [], 0
    ci = np.concatenate(ci_parts)
    ti = np.concatenate(ti_parts)
    pair_distance = np.concatenate(dist_parts)
    order = np.lexsort((ti, ci, pair_distance))

    used_control = np.zeros(n_control, dtype=bool)
    used_treatment = np.zeros(n_treatment, dtype=bool)
    accepted: list[tuple[int, int, float]] = []
    budget = ci.size if max_pairs is None else max_pairs
    for idx in order:
        if len(accepted) >= budget:
            break
        c, t = int(ci[idx]), int(ti[idx])
        if used_control[c] or used_treatment[t]:
            continue
        used_control[c] = True
        used_treatment[t] = True
        accepted.append((c, t, float(pair_distance[idx])))
    return accepted, int(ci.size)
