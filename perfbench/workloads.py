"""Seeded inputs and the CLI command lists of the four workloads.

The seed selects the curve family and the counting interval and nothing
else: primes, parameter sets, thread counts and sizes are fixed per
workload, so the work in one pass is the same for every seed.  Seed 0 is the
family of the ROADMAP baseline, f = Z, g = Z on [pi/3, 2pi/3].
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from stlab.family import build_family, check_nondeg_global, check_nondeg_mod_p, good_reduction
from stlab.param_sets import primes_upto

DEFAULT_SEED = 0

# p = 101 answers the set-up probe `trace -p 101 -t 1`
_PROBE_PRIME = 101

# Full-size passes, as specified for the benchmark, and a reduced smoke size
# that the benchmark's own test runs in seconds.
SIZES = {
    "full": {
        "vertical_primes": (1009, 10007, 20011), "charsum_prime": 10007, "charsum_n": 5,
        "mixed_x": 2000, "mixed_set": "1..50",
        "sparse_x": 10_000, "sparse_lam": 2, "sparse_T": 60,
        "sums_prime": 1009, "sums_L": 1_000_000,
        "orders_x": 300_000, "orders_lam": 2, "orders_y": 50,
    },
    "smoke": {
        "vertical_primes": (101, 1009), "charsum_prime": 1009, "charsum_n": 3,
        "mixed_x": 300, "mixed_set": "1..8",
        "sparse_x": 1000, "sparse_lam": 2, "sparse_T": 12,
        "sums_prime": 101, "sums_L": 20_000,
        "orders_x": 10_000, "orders_lam": 2, "orders_y": 20,
    },
}

WORKLOADS = ("vertical", "mixed-cache", "mixed-sparse", "sums")


@dataclass(frozen=True)
class Inputs:
    """The seeded part of every command: family and interval."""

    seed: int
    f: tuple[int, ...]
    g: tuple[int, ...]
    alpha: float
    beta: float

    @property
    def family(self):
        return build_family(self.f, self.g)

    def family_args(self) -> list[str]:
        return [f"--f={','.join(map(str, self.f))}", f"--g={','.join(map(str, self.g))}"]

    def interval_args(self) -> list[str]:
        return [f"--alpha={self.alpha!r}", f"--beta={self.beta!r}"]


def _fixed_primes() -> set[int]:
    out = {_PROBE_PRIME}
    for size in SIZES.values():
        out.update(size["vertical_primes"])
        out.update((size["charsum_prime"], size["sums_prime"]))
    return out


def _acceptable(f, g) -> bool:
    """Nondegenerate over Q and modulo every fixed prime, with a discriminant
    that vanishes identically modulo no prime >= 5 (so no mixed prime loses
    all its parameters), and good reduction at the set-up probe."""
    if not f or not g or f[-1] == 0 or g[-1] == 0:
        return False
    fam = build_family(f, g)
    if not check_nondeg_global(fam).ok:
        return False
    content = 0
    for c in fam.delta_coeffs:
        content = math.gcd(content, c)
    for q in (2, 3):
        while content % q == 0:
            content //= q
    if content != 1:
        return False
    if not all(check_nondeg_mod_p(fam, p).ok for p in _fixed_primes()):
        return False
    return good_reduction(fam, 1, _PROBE_PRIME)


def inputs_for(seed: int) -> Inputs:
    if seed == DEFAULT_SEED:
        return Inputs(seed, (0, 1), (0, 1), math.pi / 3, 2 * math.pi / 3)
    rng = random.Random(f"stlab-bench:{seed}")
    while True:
        f = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 3)))
        g = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 3)))
        if _acceptable(f, g):
            break
    alpha = rng.uniform(0.0, math.pi / 2)
    beta = rng.uniform(alpha + math.pi / 4, math.pi)
    return Inputs(seed, f, g, alpha, beta)


# The mixed experiments run with one thread.  With two, wall time depends on
# whether the host lets both vCPUs of a shared 2-vCPU machine run at once: the
# median mixed-sparse pass moved from 2.5 s in one ten-run set to 3.7 s in
# another, with a 50% spread inside it, while CPU time per pass moved ~10%.
THREADS = 1


def pass_commands(workload: str, inp: Inputs, size: dict, cache_path: str):
    """The (label, argv) list of one pass, in order."""
    fam, iv = inp.family_args(), inp.interval_args()
    if workload == "vertical":
        cmds = [(f"angles p={p}", ["angles", *fam, "-p", str(p), "--kind", "full"])
                for p in size["vertical_primes"]]
        p = size["charsum_prime"]
        cmds.append((f"charsum p={p}", ["verify", "charsum", *fam, "-p", str(p),
                                        "--n-max", str(size["charsum_n"]),
                                        "--mode", "exhaustive"]))
        return cmds
    if workload == "mixed-cache":
        argv = ["experiment", "mixed-product", *fam, *iv, "-x", str(size["mixed_x"]),
                "--set-u", size["mixed_set"], "--set-v", size["mixed_set"],
                "--threads", str(THREADS), "--cache", cache_path]
        return [("cold", argv), ("warm", argv)]
    if workload == "mixed-sparse":
        return [("mixed-geometric", ["experiment", "mixed-geometric", *fam, *iv,
                                     "-x", str(size["sparse_x"]),
                                     "--lam", str(size["sparse_lam"]),
                                     "-T", str(size["sparse_T"]),
                                     "--threads", str(THREADS)])]
    if workload == "sums":
        p, L = str(size["sums_prime"]), str(size["sums_L"])
        cmds = [(f"sums {kind}", ["sums", kind, *fam, "-p", p, "-L", L])
                for kind in ("vaughan", "mobius", "prime-sym")]
        cmds.append(("sums orders", ["sums", "orders", "-x", str(size["orders_x"]),
                                     "--lam", str(size["orders_lam"]),
                                     "--window-y", str(size["orders_y"])]))
        return cmds
    raise ValueError(f"unknown workload {workload!r}")


def sample_pairs(workload: str, inp: Inputs, size: dict, k: int) -> list[tuple[int, int]]:
    """k seeded (p, t) pairs from the workload's own primes and parameters.

    mixed-cache draws its pairs from the rows the program wrote instead; see
    the checks in run.py.
    """
    rng = random.Random(f"stlab-pairs:{workload}:{inp.seed}")
    if workload == "vertical":
        return [(p, rng.randrange(p)) for p in
                (rng.choice(size["vertical_primes"]) for _ in range(k))]
    if workload == "mixed-sparse":
        primes = [p for p in primes_upto(size["sparse_x"]).elements
                  if p >= 5 and size["sparse_lam"] % p]
        return [(rng.choice(primes), size["sparse_lam"] ** rng.randint(1, size["sparse_T"]))
                for _ in range(k)]
    if workload == "sums":
        return [(size["sums_prime"], rng.randint(1, size["sums_L"])) for _ in range(k)]
    raise ValueError(f"no parameter pairs for {workload!r}")
