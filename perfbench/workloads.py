"""The benchmark's workloads.

Each workload builds its inputs from the seed, then hands the runner one
pass of answers at a time (the first pass is built during set-up, later
ones between passes, outside the timed section).  A pass is a fixed list of items; every item is
one answer, produced and certified before the next is requested.  Pass p of
a run with seed s draws its inputs from ``s * 1000 + p``, so repeated passes
see fresh inputs rather than ones a cache has already seen.

Only public functions of ``rainbowfree.{claims,crosscheck,paths,
constructions,core}`` are called, and always through the module attribute,
so that a traced run sees every call.  Nothing here imports ``rainbowfree``
at module level: the runner times that import as part of set-up.
"""

from __future__ import annotations

import random

RAINBOW_PREFIXES = ("R1", "R2", "F1", "F2", "F3")

# crosscheck-k6: answers per pass, and sampled 3-colorings of K6 checked
# per answer.  micro_crosscheck parses its patterns on every call (about
# 0.4 ms, a third of one host's check); a batch per call keeps that set-up
# near the share a long crosscheck run pays, and covers the rotation of the
# largest-k-connected mask over all three colors.
CROSSCHECK_ANSWERS = 100
CROSSCHECK_HOSTS_PER_ANSWER = 10

# mono-paths: (n, m) of the seeded random colorings of K_n in one pass.  Color
# classes of a random coloring span nearly all n vertices, so these fall on
# both sides of paths.EXACT_LIMIT = 14 and stay far below the 64-vertex
# limit of the packed search state.
MONO_SIZES = [(10, 2), (12, 2), (12, 3), (14, 2), (14, 3), (16, 3), (17, 3)]


def pass_seed(seed: int, p: int) -> int:
    return seed * 1000 + p


class VerifyHalf:
    """One half of the claim registry, one claim per answer."""

    def __init__(self, rainbow_half: bool):
        self.rainbow_half = rainbow_half

    def build(self, seed: int):
        from rainbowfree import claims

        registry = claims.build_registry()
        ids = [
            c.id for c in registry if c.id.startswith(RAINBOW_PREFIXES) == self.rainbow_half
        ]
        return {"registry": registry, "ids": ids, "seed": seed}

    def items(self, inputs, p: int):
        s = pass_seed(inputs["seed"], p)
        return [(cid, s) for cid in inputs["ids"]]

    def answer(self, inputs, item):
        from rainbowfree import claims

        cid, s = item
        (report,) = claims.run_claims(cid, s, registry=inputs["registry"])
        record = report.to_json()
        del record["millis"]
        return record, report.status == "pass", True


class CrosscheckK6:
    """Sampled 3-colorings of K6, checked against the oracles in batches."""

    def build(self, seed: int):
        return {"seed": seed}

    def items(self, inputs, p: int):
        rng = random.Random(pass_seed(inputs["seed"], p))
        return [rng.getrandbits(48) for _ in range(CROSSCHECK_ANSWERS)]

    def answer(self, inputs, item):
        from rainbowfree import crosscheck

        report = crosscheck.micro_crosscheck(6, 3, item, budget=CROSSCHECK_HOSTS_PER_ANSWER)
        record = report.to_json()
        del record["millis"]
        return record, report.ok and report.colorings == CROSSCHECK_HOSTS_PER_ANSWER, True


class MonoPaths:
    """Longest monochromatic path and cycle on every used color."""

    def build(self, seed: int):
        from rainbowfree import constructions

        fixed = [
            ("R1(18,6)", constructions.gen_R1(18, 6).host),
            ("F3(12,12,6)", constructions.gen_F3(12, 12, 6).host),
        ]
        return {"seed": seed, "fixed": fixed}

    def items(self, inputs, p: int):
        from rainbowfree import core

        rng = random.Random(pass_seed(inputs["seed"], p))
        hosts = []
        for n, m in MONO_SIZES:
            colors = [rng.randint(1, m) for _ in range(n * (n - 1) // 2)]
            hosts.append((f"K{n}m{m}", core.ColoredComplete(n, m, colors)))
        out = []
        for label, host in hosts + inputs["fixed"]:
            for color in sorted(host.used_colors()):
                out.append((label, host, color, "path"))
                out.append((label, host, color, "cycle"))
        return out

    def answer(self, inputs, item):
        from rainbowfree import paths

        label, host, color, kind = item
        if kind == "path":
            witness = paths.longest_mono_path(host, color)
            validate = paths.validate_path
        else:
            witness = paths.longest_mono_cycle(host, color)
            validate = paths.validate_cycle
        try:
            validate(host, witness)
            ok = witness.color == color
        except ValueError:
            ok = False
        record = {"host": label, "query": kind, **witness.to_json()}
        return record, ok, witness.exact


# seconds of --seconds given to one pass.  run.py makes int(--seconds /
# PASS_S) passes, at least one, so the pass count depends on --seconds alone
# and a seed always selects the same inputs, however fast the host or the
# commit.  On the reference host (2 vCPUs, Python 3.11.7) one pass of the
# commit that introduced the benchmark takes 10-17 s (verify-rainbow),
# 12-20 s (verify-structure), 0.9-1.5 s (crosscheck-k6) and 2.2-3.4 s
# (mono-paths), fast mode to slow mode.  verify-structure and mono-paths get
# more passes than that fits into --seconds, because their answers' costs
# vary from seed to seed and pass to pass, and one pass (five for
# mono-paths) left their figures spread by about 0.1 between seeds.
PASS_S = {
    "verify-rainbow": 16.0,
    "verify-structure": 10.0,
    "crosscheck-k6": 1.5,
    "mono-paths": 2.8,
}

WORKLOADS = {
    "verify-rainbow": VerifyHalf(rainbow_half=True),
    "verify-structure": VerifyHalf(rainbow_half=False),
    "crosscheck-k6": CrosscheckK6(),
    "mono-paths": MonoPaths(),
}
