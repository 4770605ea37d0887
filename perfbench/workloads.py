"""The benchmark's workloads: sweep configurations built from a seed.

Each workload is one ``ExperimentConfig``; the seed is the sweep's base seed,
from which ``build_instances`` derives every noise realization.  Geometry,
phantom and solver settings are fixed, so the seed changes only the noise
directions (the noise norm is always ``noise_rel * ||y||``).
"""

from __future__ import annotations

from dataclasses import dataclass

SOLVERS = ("ista", "fista", "gd", "lm", "newton")


@dataclass(frozen=True)
class Workload:
    name: str
    geometry: tuple  # (m, n_angles, n_beams)
    noise_levels: tuple
    repetitions: int
    # Run the sweep twice with timing=off and require byte-identical outputs.
    identity_check: bool = False
    # Sweeps per timed run, at least; metrics are medians over them.
    rounds: int = 1
    # The speed.py kernel that times are scaled by: the one that tracked the
    # workload's own slowdowns best.
    speed_kernel: str = "products"

    def config(self, seed: int, out):
        from sparsenewton import ExperimentConfig, TomoGeometry

        return ExperimentConfig(
            geometry=TomoGeometry(*self.geometry),
            solvers=list(SOLVERS),
            noise_levels=list(self.noise_levels),
            repetitions=self.repetitions,
            seed=seed,
            out=str(out),
            timing="wall",
        )


WORKLOADS = {
    w.name: w
    for w in (
        # Every method runs many steps and A/A^T products take ~90-95% of a
        # sweep; set-up is ~2-3%.  Newton's work moves with the noise direction
        # (5 to 7 steps, 2367 to 4097 products per cell, 16% standard
        # deviation), so a run sums five realizations in one sweep: more
        # distinct inputs steady it more than repeating the same ones.
        Workload("lownoise-m64", (64, 120, 90), (0.01,), 5,
                 speed_kernel="loop+products"),
        # 120 cells on a matrix that fits in L2: ~16,000 products of ~0.1 ms
        # take ~60-75% of a sweep, the 241 output files ~5-8%, and the per-call
        # Python work around the products weighs more than anywhere else.
        Workload("desk-sweep", (32, 60, 45), (0.05, 0.1, 0.2), 8,
                 identity_check=True, rounds=3),
    )
}
