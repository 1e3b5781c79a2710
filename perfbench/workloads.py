"""The four named workloads: seeded inputs, set-up and the load they drive.

Every input is generated here from the run's seed with :mod:`random`; the
program only ever sees the resulting HTTP request bodies.  A workload is a
set of *calls* (HTTP requests), each carrying one or more solve *items*.

``hot-mix``
    Open loop.  The ``ci-short-v2`` tenant mix (interactive, batch, scan and
    deadline classes; n 30-120 on the Table 1 menu; Zipf-hot keys; 80-250 ms
    deadlines) against a memory cache prefilled during set-up.  The batch
    class posts several items per call to ``/v2/solve/batch``.
``large-n``
    Closed loop, one client, warm cache, plan bodies off.  Homogeneous and
    heterogeneous (``opq-extended``) requests at n = 10^4 .. 10^5 on the
    Jelly and SMIC |B| = 20 menus.
``cold-menus``
    Closed loop, one client, a fresh cache per run.  Every request is a new
    (menu, threshold) pair on Jelly and SMIC at |B| in {20, 25}, plus small
    heterogeneous requests spanning several Algorithm 4 groups.
``fleet-churn``
    Open loop against ``--cache tiered:memory:<small>+sharded://<one repro
    cached>``.  The key population is several times the near tier, and a
    trickle of never-seen keys builds and writes through.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

_HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(_HERE, "menus.json")) as _handle:
    #: Frozen copies of the Table 1 menu and the Jelly/SMIC menus at
    #: |B| = 20 and 25, as ``[cardinality, confidence, cost]`` triples.
    MENUS: Dict[str, List[List[float]]] = json.load(_handle)


@dataclass
class Item:
    """One solve item: the problem it poses and how the answer is judged."""

    rid: str
    spec: dict                    #: menu/n/threshold(s)/solver: the problem
    n: int
    deadline_ms: Optional[float] = None

    @property
    def key(self) -> str:
        return json.dumps(self.spec, sort_keys=True)


@dataclass
class Call:
    """One HTTP request."""

    cls: str
    path: str
    body: bytes
    items: List[Item]


def solve_payload(item: Item, tenant: str) -> dict:
    spec = item.spec
    payload = {
        "kind": "solve_request",
        "version": 2,
        "request_id": item.rid,
        "tenant": tenant,
        "bins": MENUS[spec["menu"]],
    }
    if "thresholds" in spec:
        payload["thresholds"] = spec["thresholds"]
    else:
        payload["n"] = spec["n"]
        payload["threshold"] = spec["threshold"]
    if spec.get("solver"):
        payload["solver"] = spec["solver"]
    if item.deadline_ms is not None:
        payload["deadline_ms"] = item.deadline_ms
    return payload


def single_call(cls: str, item: Item, tenant: str = "bench", plan: bool = True) -> Call:
    path = "/v2/solve" if plan else "/v2/solve?plan=0"
    body = json.dumps(solve_payload(item, tenant)).encode()
    return Call(cls, path, body, [item])


def batch_call(cls: str, items: List[Item], tenant: str) -> Call:
    body = json.dumps({
        "tenant": tenant,
        "requests": [solve_payload(item, tenant) for item in items],
    }).encode()
    return Call(cls, "/v2/solve/batch", body, items)


# -- threshold draws ----------------------------------------------------------


def _clip(value: float) -> float:
    return round(min(0.995, max(0.5, value)), 6)


def draw_threshold(rng: random.Random, kind: str, mu: float, sigma: float) -> float:
    if kind == "normal":
        return _clip(rng.gauss(mu, sigma))
    if kind == "uniform":
        return _clip(rng.uniform(mu - 2 * sigma, mu + 2 * sigma))
    if kind == "heavy_tailed":
        deviation = rng.paretovariate(2.5) - 1.0
        return _clip(mu + (0.995 - mu) * deviation / (1.0 + deviation))
    raise ValueError(kind)


def zipf_weights(count: int, exponent: float) -> List[float]:
    return [1.0 / (rank ** exponent) for rank in range(1, count + 1)]


def poisson_times(rng: random.Random, rate: float, seconds: float) -> List[float]:
    times = []
    t = 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= seconds:
            return times
        times.append(t)


# -- open-loop tenant mixes ------------------------------------------------------


@dataclass
class TenantClass:
    name: str
    rate: float                   #: calls per second at rate scale 1
    n_range: Tuple[int, int]
    thresholds: str
    mu: float
    sigma: float
    keys: int
    zipf: float
    tenants: int = 1
    deadline_ms: Optional[Tuple[float, float]] = None
    items_per_call: int = 1


@dataclass
class OpenLoopMix:
    """A tenant mix: its key populations and the schedules drawn from them."""

    name: str
    menu: str
    classes: Sequence[TenantClass]
    #: Latency limit on the tail percentile for the ladder (4x the unloaded
    #: p50 measured at the parent commit, fixed once).
    limit_ms: float
    #: Calls per second of the fixed-rate phase, as a share of the base rate.
    fixed_scale: float = 1.0
    #: Share of items that ask for a never-seen key.
    fresh_share: float = 0.0
    keys: Dict[str, List[Tuple[int, float]]] = field(default_factory=dict)

    def populate(self, rng: random.Random) -> None:
        """Each class's key population: ``keys`` distinct (n, threshold) pairs.

        The sizes are spread evenly over ``n_range`` by popularity rank, so
        every seed asks for the same amount of work; the seed draws the
        thresholds.
        """
        for cls in self.classes:
            lo, hi = cls.n_range
            sizes = [lo + (hi - lo) * (2 * rank + 1) // (2 * cls.keys)
                     for rank in range(cls.keys)]
            thresholds: List[float] = []
            while len(thresholds) < cls.keys:
                threshold = draw_threshold(rng, cls.thresholds, cls.mu, cls.sigma)
                if threshold not in thresholds:
                    thresholds.append(threshold)
            self.keys[cls.name] = list(zip(sizes, thresholds))

    @property
    def base_rate(self) -> float:
        return sum(cls.rate for cls in self.classes)

    def prefill_calls(self) -> List[Call]:
        """One unbudgeted call per key, so every key is cached before timing."""
        calls = []
        for cls in self.classes:
            for index, (n, threshold) in enumerate(self.keys[cls.name]):
                spec = {"menu": self.menu, "n": n, "threshold": threshold}
                item = Item(f"prefill-{cls.name}-{index}", spec, n)
                calls.append(single_call("prefill", item))
        return calls

    def schedule(
        self, rng: random.Random, scale: float, seconds: float, prefix: str,
        paced: bool = False,
    ) -> List[Tuple[float, Call]]:
        """Seeded arrivals of every class at ``scale`` times its base rate.

        Arrivals are Poisson per class; ``paced`` spaces the combined stream
        evenly instead and interleaves the classes in proportion to their
        rates, so the work offered depends on the rate, not on how one draw
        happened to fall.
        """
        if paced:
            total = self.base_rate * scale
            slots = [(index + 0.5) / total for index in range(int(total * seconds))]
            arrivals = list(zip(slots, self._interleave(len(slots))))
        else:
            arrivals = [
                (at, cls) for cls in self.classes
                for at in poisson_times(rng, cls.rate * scale, seconds)
            ]
            arrivals.sort(key=lambda pair: pair[0])
        return [
            (at, self._call(rng, cls, f"{prefix}{cls.name}-{seq}"))
            for seq, (at, cls) in enumerate(arrivals)
        ]

    def _interleave(self, count: int) -> List[TenantClass]:
        """Smooth weighted round robin over the classes by rate."""
        credit = [0.0] * len(self.classes)
        order = []
        for _ in range(count):
            for index, cls in enumerate(self.classes):
                credit[index] += cls.rate
            best = max(range(len(credit)), key=credit.__getitem__)
            credit[best] -= self.base_rate
            order.append(self.classes[best])
        return order

    def _call(self, rng: random.Random, cls: TenantClass, rid: str) -> Call:
        tenant = f"{cls.name}-{rng.randrange(cls.tenants)}"
        weights = zipf_weights(cls.keys, cls.zipf)
        items = []
        for part in range(cls.items_per_call):
            if self.fresh_share and rng.random() < self.fresh_share:
                n, threshold = rng.randint(*cls.n_range), _clip(rng.uniform(0.8, 0.99))
            else:
                n, threshold = rng.choices(self.keys[cls.name], weights)[0]
            spec = {"menu": self.menu, "n": n, "threshold": threshold}
            deadline = None
            if cls.deadline_ms is not None:
                deadline = round(rng.uniform(*cls.deadline_ms), 3)
                spec["solver"] = "anytime"
            item_rid = f"{rid}.{part}" if cls.items_per_call > 1 else rid
            items.append(Item(item_rid, spec, n, deadline))
        if cls.items_per_call > 1:
            return batch_call(cls.name, items, tenant)
        return single_call(cls.name, items[0], tenant)


def hot_mix() -> OpenLoopMix:
    """The ``ci-short-v2`` tenant mix on the Table 1 menu.

    Deadlines start at 80 ms rather than ci-short-v2's 15 ms: on a small
    virtual machine a 15 ms budget expires on scheduler stalls alone, and
    every expiry is a failed call.
    """
    return OpenLoopMix(
        name="hot-mix",
        menu="table1",
        classes=(
            TenantClass("interactive", 40.0, (30, 60), "normal", 0.90, 0.02,
                        keys=6, zipf=1.2, tenants=4),
            TenantClass("batch", 15.0, (60, 120), "heavy_tailed", 0.90, 0.0,
                        keys=4, zipf=1.0, tenants=2, items_per_call=4),
            TenantClass("scan", 10.0, (40, 90), "uniform", 0.90, 0.03,
                        keys=12, zipf=0.4, tenants=2),
            TenantClass("deadline", 12.0, (30, 70), "normal", 0.90, 0.02,
                        keys=6, zipf=1.0, tenants=2, deadline_ms=(80.0, 250.0)),
        ),
        limit_ms=HOT_MIX_LIMIT_MS,
        fixed_scale=0.6,
    )


def fleet_churn() -> OpenLoopMix:
    """A wide key population behind a small near tier, plus fresh keys."""
    return OpenLoopMix(
        name="fleet-churn",
        menu="table1",
        classes=(
            TenantClass("churn", 40.0, (30, 120), "uniform", 0.90, 0.04,
                        keys=FLEET_KEYS, zipf=0.3, tenants=4),
        ),
        limit_ms=FLEET_CHURN_LIMIT_MS,
        fresh_share=0.05,
    )


#: Tail-latency limits of the open-loop ladders: 4x the unloaded p50 (one
#: connection, one call at a time) measured at the parent commit.
HOT_MIX_LIMIT_MS = 58.0
FLEET_CHURN_LIMIT_MS = 63.0

#: fleet-churn: near-tier entries and the key population (6x the tier).
FLEET_NEAR_ENTRIES = 8
FLEET_KEYS = 48


# -- closed-loop workloads -----------------------------------------------------------


#: large-n: the Fig. 6/8 scalability grid.  Each cycle sends every
#: (n, kind) cell once.
LARGE_N_GRID = (10_000, 30_000, 100_000)
#: Run seconds per cycle: a run of S seconds measures round(S /
#: LARGE_N_CYCLE_S) cycles (four at 18 s, about 20 s at the parent commit).
LARGE_N_CYCLE_S = 5.0
LARGE_N_MENUS = ("jelly-20", "smic-20")
LARGE_N_THRESHOLDS = (0.88, 0.90, 0.92, 0.95)
#: Heterogeneous threshold ranges (lo, hi); lo and hi always occur, so the
#: Algorithm 4 groups, and so the cached queues, depend on the range alone.
LARGE_N_RANGES = ((0.85, 0.95), (0.88, 0.97))


def large_n_cells(rng: random.Random) -> List[Call]:
    """A homogeneous call per grid size and a heterogeneous one at the
    smallest and largest size; the homogeneous n = 3·10^4 call seven times.

    The middle call by latency (homogeneous at n = 3·10^4) sits far from its
    neighbours, so the median of whole cycles is that call's latency rather
    than whichever of two close call types happened to rank in the middle.
    One such call takes anywhere from 1x to 2x the fastest, so it is sent
    seven times per cycle: over four cycles both the median and the tail
    (p75 of 44 calls) are order statistics of 28 samples of it.
    Menus, thresholds and ranges are fixed per cell, so every seed asks for
    the same work; the seed draws the heterogeneous threshold lists (and the
    order of each cycle).  Every cycle repeats these problems, so the
    reference solves each one once.
    """
    calls = []
    for index, n in enumerate(LARGE_N_GRID):
        menu = LARGE_N_MENUS[index % 2]
        threshold = LARGE_N_THRESHOLDS[index % len(LARGE_N_THRESHOLDS)]
        spec = {"menu": menu, "n": n, "threshold": threshold}
        repeats = 7 if n == LARGE_N_GRID[1] else 1
        for copy in range(repeats):
            calls.append(single_call(f"homogeneous-{n}", Item(f"h{n}-{copy}", spec, n),
                                     plan=False))
        if n == LARGE_N_GRID[1]:
            continue
        lo, hi = LARGE_N_RANGES[index % len(LARGE_N_RANGES)]
        thresholds = [lo, hi] + [round(rng.uniform(lo, hi), 4) for _ in range(n - 2)]
        spec = {"menu": LARGE_N_MENUS[(index + 1) % 2], "thresholds": thresholds,
                "solver": "opq-extended"}
        calls.append(single_call(f"heterogeneous-{n}", Item(f"x{n}", spec, n), plan=False))
    return calls


def large_n_prefill() -> List[Call]:
    """Small requests that build every queue large-n will ask for."""
    calls = []
    for menu in LARGE_N_MENUS:
        for threshold in LARGE_N_THRESHOLDS:
            spec = {"menu": menu, "n": 10, "threshold": threshold}
            calls.append(single_call("prefill", Item("prefill", spec, 10), plan=False))
        for lo, hi in LARGE_N_RANGES:
            spec = {"menu": menu, "thresholds": [lo, hi], "solver": "opq-extended"}
            calls.append(single_call("prefill", Item("prefill", spec, 2), plan=False))
    return calls


#: cold-menus: menus, the threshold grid and the request size.
COLD_MENUS = ("jelly-20", "smic-20", "jelly-25", "smic-25")
COLD_GRID = (0.85, 0.995, 29)             #: lo, hi, cells
COLD_N = 100
#: Run seconds per pass: a run of S seconds measures round(S / COLD_PASS_S)
#: passes (five at 18 s, about 18 s of calls at the parent commit).
COLD_PASS_S = 3.75
#: One heterogeneous request (spanning several Algorithm 4 groups) per this
#: many homogeneous ones.
COLD_HETERO_EVERY = 4


def cold_menus_pass(rng: random.Random, sweep: int) -> List[Call]:
    """Every (menu, grid cell) pair once, plus heterogeneous calls.

    The cells split 0.85-0.995 evenly.  (A grid even in ``log(1 - t)``
    gave Algorithm 2 a larger share, but put the p90 on the knee between
    cheap and costly builds, where it moved 20% from run to run.)  Pass ``k`` puts
    each threshold at the same offset inside its cell, a golden-ratio step
    per pass, so successive passes ask for new (menu, threshold) pairs.  The
    homogeneous thresholds are the same for every seed, because build cost
    is steep enough near 0.995 that a seeded offset alone moved a run's
    throughput by several percent; the seed draws the heterogeneous calls.  Calls go in a fixed order,
    cells ascending with the menus interleaved, because the plan-curve warm
    start depends on which nearby thresholds were built before.
    """
    lo, hi, cells = COLD_GRID
    offset = (0.5 + 0.618034 * sweep) % 1.0
    calls: List[Call] = []
    for index in range(cells):
        threshold = round(lo + (hi - lo) * (index + offset) / cells, 6)
        for menu in COLD_MENUS:
            spec = {"menu": menu, "n": COLD_N, "threshold": threshold}
            rid = f"cm{sweep}-{menu}-{index}"
            calls.append(single_call("homogeneous", Item(rid, spec, COLD_N)))
            if len(calls) % (COLD_HETERO_EVERY + 1) == COLD_HETERO_EVERY:
                calls.append(_cold_hetero(rng, f"cm{sweep}-x{len(calls)}"))
    return calls


def _cold_hetero(rng: random.Random, rid: str) -> Call:
    """A small heterogeneous call whose thresholds span several groups."""
    menu = rng.choice(COLD_MENUS)
    lo_t = round(rng.uniform(0.5, 0.7), 6)
    hi_t = round(rng.uniform(0.9, 0.97), 6)
    thresholds = [lo_t, hi_t] + [
        round(rng.uniform(lo_t, hi_t), 4) for _ in range(COLD_N - 2)
    ]
    spec = {"menu": menu, "thresholds": thresholds, "solver": "opq-extended"}
    return single_call("heterogeneous", Item(rid, spec, COLD_N))

