"""Seeded workload configs for the periflow benchmark.

Each workload is one `periflow run` config.  The seed draws the free inputs
(forcing and target mean on the periodic workloads, the band time on the
band workload); the program only ever sees the generated INI text.  Why
each workload was chosen is recorded in README.md next to this file.
"""

from __future__ import annotations

import math
import random

# workload name -> (surface family, scenario, n_nodes); n_nodes is None for
# the band workload, which has no 1-d grid
WORKLOADS = {
    "monodromy-breathing-n256": ("breathing", "periodic-monodromy", 256),
    "fixed-bean-n1024": ("bean", "periodic-fixed", 1024),
    "band-bean-h256": ("bean", "band-check", None),
}


def has_ledger(workload: str) -> bool:
    """Periodic scenarios write mass_ledger.csv, whose defects are gated."""
    return WORKLOADS[workload][2] is not None


def config_text(workload: str, seed: int) -> str:
    """INI config for `workload`; the same seed gives the same text."""
    family, scenario, n_nodes = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    head = f"[surface]\nfamily = {family}\nperiod = 1.0\n\n[problem]\nscenario = {scenario}\n"
    if n_nodes is None:
        return (
            head
            + f"band_time = {rng.random()!r}\n\n"
            + "[discretization]\nband_h = 0.00390625\nband_delta = 0.2\n"
        )
    # a*cos(k*theta+phi)*sin(2*pi*t/T) with k >= 1: on `breathing` it
    # integrates to zero over a period, so strict periodicity is checked too
    k = rng.randint(1, 4)
    a = rng.uniform(0.5, 2.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    target_mean = rng.uniform(0.5, 2.0)
    return (
        head
        + "zero_order = divergence\n"
        + f"forcing = {a!r}*cos({k}*theta+{phi!r})*sin(2*pi*t/T)\n"
        + f"target_mean = {target_mean!r}\ntol = 1e-10\n\n"
        + f"[discretization]\nn_nodes = {n_nodes}\nn_steps = 512\nscheme = crank_nicolson\n"
    )
