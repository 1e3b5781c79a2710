"""Plans and fingerprints stay byte-identical across warm-path refactors.

``PINNED`` holds, per cell, a digest of the served plan's
:func:`~repro.io.serialization.plan_to_dict` and the problem's
fingerprint, computed before tasks became column-backed, Algorithm 3 cut
blocks by offset and the menu fingerprint was memoised.  Any change to a
plan's bytes or to a cache key fails here, cell by cell.

The property tests hold the three fingerprints to an inline copy of their
token formula, over inputs the grid does not reach: custom ids with
payloads, subsets, calibration epochs and zero thresholds of either sign.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.registry import create_solver
from repro.core.bins import TaskBin, TaskBinSet
from repro.core.problem import SladeProblem
from repro.core.task import AtomicTask, CrowdsourcingTask
from repro.datasets.jelly import jelly_bin_set
from repro.datasets.smic import smic_bin_set
from repro.engine.cache import PlanCache
from repro.io.serialization import plan_to_dict

MENUS = {
    "jelly-20": lambda: jelly_bin_set(20),
    "smic-20": lambda: smic_bin_set(20),
    "jelly-8": lambda: jelly_bin_set(8),
    "jelly-2..8": lambda: TaskBinSet(
        b for b in jelly_bin_set(8) if b.cardinality >= 2
    ),
}
THRESHOLDS = (0.8, 0.9, 0.95, 0.99)
#: Single tasks, sizes around multiples of the head LCMs (8, 14, 18 and
#: 20 here), primes, and the perfbench large-n sizes with a remainder.
NS = (1, 2, 7, 59, 60, 61, 119, 997, 10_000, 30_001)
#: Cells that reach Algorithm 3's two fallbacks, which the grid's menus do
#: not: one more application of the previous block (SMIC at t = 0.95), and
#: a menu without a 1-bin, whose last task fits no block.
BRANCH_CELLS = (
    "smic-20/0.95/35",
    "smic-20/0.95/53",
    "jelly-2..8/0.9/1",
    "jelly-2..8/0.9/61",
    "jelly-2..8/0.99/7",
)
HETEROGENEOUS = {
    "jelly-20/x100": ("jelly-20", [0.85, 0.95, 0.9, 0.87, 0.93] * 20),
    "smic-20/x997": ("smic-20", [0.8 + 0.0019 * (i % 100) for i in range(997)]),
    "jelly-8/x124": ("jelly-8", [0.99, 0.8, 0.95] * 41 + [0.9]),
}

#: cell -> (plan_to_dict digest, problem fingerprint).
PINNED = {
    "jelly-2..8/0.9/1": ("ea6b5bc3a18061bc", "f04264b09fa51f5d"),
    "jelly-2..8/0.9/61": ("c4277fa8f5fda9f8", "b767f80ab9f769b7"),
    "jelly-2..8/0.99/7": ("ce23d237397f35a5", "d0b8ea3dd959dafa"),
    "jelly-20/0.8/1": ("53c55751867aa069", "be33b7c860e58ab9"),
    "jelly-20/0.8/10000": ("1244f807a6a904a8", "242b918a62c569f9"),
    "jelly-20/0.8/119": ("dca620374d4a041e", "5db0fe8a0fba90d8"),
    "jelly-20/0.8/2": ("1656304c3798624f", "f9ebdd0d0aa5d9ad"),
    "jelly-20/0.8/30001": ("637305b02f8fe1dc", "1c7c73015ba64b61"),
    "jelly-20/0.8/59": ("9d5f53dfe49ac377", "84426205adc37814"),
    "jelly-20/0.8/60": ("6353e50f262c2220", "b76f5d44f7c84b81"),
    "jelly-20/0.8/61": ("288cadb4bf3ea835", "e1495a7616edde31"),
    "jelly-20/0.8/7": ("12c7f8d0c882ddb5", "e8f89aaab2579d37"),
    "jelly-20/0.8/997": ("8b1295fdbd70dce9", "d15adb53ab45f601"),
    "jelly-20/0.9/1": ("53c55751867aa069", "e2e8a372ad586360"),
    "jelly-20/0.9/10000": ("9e69026956d901a7", "837fb2fd5d685ffc"),
    "jelly-20/0.9/119": ("ca8731c83b98bb4a", "0e8695e275b0dcbb"),
    "jelly-20/0.9/2": ("1656304c3798624f", "2f373c20dec6ad78"),
    "jelly-20/0.9/30001": ("f0090c1a63176b71", "ef91ddafc23c7127"),
    "jelly-20/0.9/59": ("30baa08facd7a971", "379134e69af47891"),
    "jelly-20/0.9/60": ("845dabdd2782974d", "7782ca4e65b84ece"),
    "jelly-20/0.9/61": ("d83ebe324ac5624c", "8fe7edb3e4107235"),
    "jelly-20/0.9/7": ("12c7f8d0c882ddb5", "d4388cca422eaab1"),
    "jelly-20/0.9/997": ("6a00a5f4deb13ea5", "6554783e5f1e26ff"),
    "jelly-20/0.95/1": ("53c55751867aa069", "bffac7945fd481ab"),
    "jelly-20/0.95/10000": ("9e69026956d901a7", "c8b2839eb73b9573"),
    "jelly-20/0.95/119": ("2b204b63dbe5d6c0", "5cee0a650bd15ced"),
    "jelly-20/0.95/2": ("1656304c3798624f", "00c5b9817f0128da"),
    "jelly-20/0.95/30001": ("f0090c1a63176b71", "94c17998cf1444b6"),
    "jelly-20/0.95/59": ("76d2f9c4be7bce2b", "3a13441b2c293db2"),
    "jelly-20/0.95/60": ("845dabdd2782974d", "7d976ab60c61770e"),
    "jelly-20/0.95/61": ("d83ebe324ac5624c", "b0facaf3f20c19c8"),
    "jelly-20/0.95/7": ("473bb5df0f51fbb7", "5603b95bf8bf4743"),
    "jelly-20/0.95/997": ("2ac56debc9ed8533", "e30b5849e82231d7"),
    "jelly-20/0.99/1": ("0434bb29cf890162", "8e6028a807fc34c0"),
    "jelly-20/0.99/10000": ("451d1bea616d57a3", "104a88a4cd03c309"),
    "jelly-20/0.99/119": ("998cca0e5445dd8f", "2182dfbdd06b03aa"),
    "jelly-20/0.99/2": ("69a31047a509cbda", "c6d3bedb8428f87a"),
    "jelly-20/0.99/30001": ("5cf0ea1feb2bf126", "2db43be798dc8856"),
    "jelly-20/0.99/59": ("e81823fd6c8a9e2b", "8862fb4015880ed3"),
    "jelly-20/0.99/60": ("1ae3880115c158a1", "87f70a45344c60e5"),
    "jelly-20/0.99/61": ("48f51e05ad884b3b", "567702022549334b"),
    "jelly-20/0.99/7": ("ce23d237397f35a5", "754df551fd543fe8"),
    "jelly-20/0.99/997": ("c29e29d8ce717142", "44d1e7aab5157690"),
    "jelly-20/x100": ("200c234dad960741", "9c4340b920824114"),
    "jelly-8/0.8/1": ("53c55751867aa069", "04d41e61ac18d35b"),
    "jelly-8/0.8/10000": ("1f7062274f9f2cbb", "a2fa3fd7c6459f63"),
    "jelly-8/0.8/119": ("fbbc97961b86bec8", "9f8bf40a03ee9098"),
    "jelly-8/0.8/2": ("1656304c3798624f", "19932841a8f0dcc8"),
    "jelly-8/0.8/30001": ("847474dc179c9708", "6b245e5e48aae835"),
    "jelly-8/0.8/59": ("b5edcbb75525180b", "97fc2d691fcbc9e1"),
    "jelly-8/0.8/60": ("dffdc19db7202a4a", "5c31f89e0425183f"),
    "jelly-8/0.8/61": ("61ea6fd4ac145e7e", "bab3ae2093527352"),
    "jelly-8/0.8/7": ("12c7f8d0c882ddb5", "e0df68a7b1864265"),
    "jelly-8/0.8/997": ("db013ed31a8071b8", "823d344efea7eca6"),
    "jelly-8/0.9/1": ("53c55751867aa069", "77632aa3ac5f1000"),
    "jelly-8/0.9/10000": ("1f7062274f9f2cbb", "1294d6e3291166c4"),
    "jelly-8/0.9/119": ("fbbc97961b86bec8", "787410d4093da887"),
    "jelly-8/0.9/2": ("1656304c3798624f", "3dd421d83bfa19e1"),
    "jelly-8/0.9/30001": ("847474dc179c9708", "bf54d8e6ac0f0ca0"),
    "jelly-8/0.9/59": ("b5edcbb75525180b", "77bed732fa66965a"),
    "jelly-8/0.9/60": ("dffdc19db7202a4a", "70d3db6240f48b0d"),
    "jelly-8/0.9/61": ("61ea6fd4ac145e7e", "2edf49eb6e974d68"),
    "jelly-8/0.9/7": ("12c7f8d0c882ddb5", "4f606efdfe6f57a6"),
    "jelly-8/0.9/997": ("db013ed31a8071b8", "0b051057f4b50d05"),
    "jelly-8/0.95/1": ("53c55751867aa069", "0b919239a2963b05"),
    "jelly-8/0.95/10000": ("657a4802368a0b6b", "ae3a5bee4195d5c6"),
    "jelly-8/0.95/119": ("16f4ab1f78aa4196", "a6f995b2223c9bb4"),
    "jelly-8/0.95/2": ("1656304c3798624f", "f9c54c6d52be1461"),
    "jelly-8/0.95/30001": ("3dffe1cf360ceba3", "900ba049ea132556"),
    "jelly-8/0.95/59": ("6401ad1fbf76b3dc", "5393abc6074c5505"),
    "jelly-8/0.95/60": ("02a4ca285502354d", "e490f0efb589bd21"),
    "jelly-8/0.95/61": ("7fdd9358ee957054", "4b7ef5a990e90288"),
    "jelly-8/0.95/7": ("473bb5df0f51fbb7", "fed41401f6451c14"),
    "jelly-8/0.95/997": ("05a1196d24331c9e", "a04810ddd8892e9d"),
    "jelly-8/0.99/1": ("0434bb29cf890162", "fb627e149fa8f587"),
    "jelly-8/0.99/10000": ("657a4802368a0b6b", "850500ec87f840a2"),
    "jelly-8/0.99/119": ("4faca48b693aee78", "a9af33adf532a957"),
    "jelly-8/0.99/2": ("69a31047a509cbda", "ba19264591eec4a0"),
    "jelly-8/0.99/30001": ("f5c27bd423c2347b", "88070e333b0090e6"),
    "jelly-8/0.99/59": ("fa1dd498326e334d", "bb853642feac4578"),
    "jelly-8/0.99/60": ("e45c359d8f6d0791", "aaa350cb9a9cbd8b"),
    "jelly-8/0.99/61": ("75c7ee9b6bd76030", "8668ac901aa057ee"),
    "jelly-8/0.99/7": ("ce23d237397f35a5", "e774457dd9a74369"),
    "jelly-8/0.99/997": ("8c6716a3252615e1", "ab23ba317eda4c73"),
    "jelly-8/x124": ("83a557e8b8303008", "d34f8c3c8d9439fb"),
    "smic-20/0.8/1": ("2b37152cd24f269e", "9058ebb0d2e1e9c8"),
    "smic-20/0.8/10000": ("228d8b6a0ff53394", "2706fae71bde08de"),
    "smic-20/0.8/119": ("30efdb62ede13a88", "2d12e34432740ec7"),
    "smic-20/0.8/2": ("40a893cce595e00a", "61502161c7135955"),
    "smic-20/0.8/30001": ("fb4a9d06b1c98147", "e20b2f0e05ade8d3"),
    "smic-20/0.8/59": ("d47721c21b2a8915", "496ec5a2a9422d5d"),
    "smic-20/0.8/60": ("3874e57cfce3e666", "c5c9aafde49f1d0b"),
    "smic-20/0.8/61": ("d12a3697648fffbf", "6c8de30df7a56815"),
    "smic-20/0.8/7": ("f4c863d8bdd850c6", "e2df1ababd381328"),
    "smic-20/0.8/997": ("d1aabb5a53e7ca92", "e4126301832fc5a4"),
    "smic-20/0.9/1": ("9640d50b28a0441e", "24040b1603de2cbe"),
    "smic-20/0.9/10000": ("9a495e7b58944d00", "686021cde5c8b343"),
    "smic-20/0.9/119": ("e3f59012c7cb166f", "12690b868953d12f"),
    "smic-20/0.9/2": ("67b1167c72d8436c", "2bf34e8e95abe0ca"),
    "smic-20/0.9/30001": ("da2877e86834d68c", "423df4b04d8ccc0b"),
    "smic-20/0.9/59": ("fa958fdac6690e14", "408715113eb93cf4"),
    "smic-20/0.9/60": ("363084aa65ac7538", "5b9d23761a5109f6"),
    "smic-20/0.9/61": ("260aea3ddc817571", "27337a1259312024"),
    "smic-20/0.9/7": ("dbc5f7ee808b3ff5", "bda1e18968f56bd2"),
    "smic-20/0.9/997": ("583728c012c77838", "6aa2fb12a29e4b4d"),
    "smic-20/0.95/1": ("9640d50b28a0441e", "ad178329dffaf9d4"),
    "smic-20/0.95/10000": ("67294e1511e0d890", "d1352169f17b4d99"),
    "smic-20/0.95/119": ("557591465b78ea82", "42ea2bc343444df0"),
    "smic-20/0.95/2": ("67b1167c72d8436c", "7898629bb0b21751"),
    "smic-20/0.95/30001": ("da9f38cb452a1a0f", "5584f65c914eebe7"),
    "smic-20/0.95/35": ("c1c267b366e919bf", "4952afed1f4fadc2"),
    "smic-20/0.95/53": ("f7c8514b7911334c", "17e69fb8a08cec49"),
    "smic-20/0.95/59": ("de6381710f97282a", "5ff43c378c0e72c0"),
    "smic-20/0.95/60": ("75bb2530e4a3fdb6", "ec106c045c07119e"),
    "smic-20/0.95/61": ("9239c34a7b24ad67", "92270e949c0c4c14"),
    "smic-20/0.95/7": ("9036f723a12fc240", "0a123bc0dc1d44c1"),
    "smic-20/0.95/997": ("927cd5157f841815", "1b290f8b7251b6f9"),
    "smic-20/0.99/1": ("0f0f419a1f63d7b0", "df56af2bcea84140"),
    "smic-20/0.99/10000": ("0677b95ed27df5d1", "73aea012aaaab4ae"),
    "smic-20/0.99/119": ("232fe22b86d25317", "61d43f6afae59e72"),
    "smic-20/0.99/2": ("440e4d7913d69748", "5b7875d5a0607e5c"),
    "smic-20/0.99/30001": ("e003ac979a3b0522", "e80c86a96e075b7e"),
    "smic-20/0.99/59": ("a8d29c805e965698", "e7c841c79461f7b5"),
    "smic-20/0.99/60": ("a4ec8af3f8b95677", "9c35c6cf06d945bd"),
    "smic-20/0.99/61": ("411c70bb32a88bdf", "3d0ae658a8960a2f"),
    "smic-20/0.99/7": ("e5159729dcac23de", "81071effdf21ac20"),
    "smic-20/0.99/997": ("6e025e8c4c647718", "ba569b09b2209d17"),
    "smic-20/x997": ("272fc9b521283823", "ac5b77da832a0d49"),
}


def plan_digest(plan):
    body = json.dumps(plan_to_dict(plan), sort_keys=True).encode()
    return hashlib.sha256(body).hexdigest()[:16]


def grid_cells():
    for menu in ("jelly-20", "smic-20", "jelly-8"):
        for threshold in THRESHOLDS:
            for n in NS:
                yield f"{menu}/{threshold}/{n}"
    yield from BRANCH_CELLS
    yield from HETEROGENEOUS


def test_grid_covers_every_pinned_cell():
    assert sorted(grid_cells()) == sorted(PINNED)


@pytest.fixture(scope="module")
def cache():
    # Every cell on one menu and threshold shares its queue.
    cache = PlanCache()
    yield cache
    cache.close()


@pytest.mark.parametrize("cell", sorted(PINNED))
def test_plan_and_fingerprint_bytes_are_pinned(cell, cache):
    if cell in HETEROGENEOUS:
        menu, thresholds = HETEROGENEOUS[cell]
        problem = SladeProblem.heterogeneous(thresholds, MENUS[menu]())
        solver = "opq-extended"
    else:
        menu, threshold, n = cell.split("/")
        problem = SladeProblem.homogeneous(int(n), float(threshold), MENUS[menu]())
        solver = "opq"
    result = create_solver(solver, queue_factory=cache).solve(problem)
    assert (plan_digest(result.plan), problem.fingerprint) == PINNED[cell]


# -- the fingerprint formula, written out ----------------------------------------


def digest(tokens):
    hasher = hashlib.sha256()
    for token in tokens:
        encoded = token.encode("utf-8")
        hasher.update(str(len(encoded)).encode("ascii") + b":" + encoded)
    return hasher.hexdigest()[:16]


def task_formula(task):
    return digest(["crowdsourcing_task"] + [
        f"{atomic.task_id}:{float(atomic.threshold).hex()}" for atomic in task
    ])


def bins_formula(bins):
    tokens = ["task_bin_set"]
    if bins.calibration_epoch:
        tokens.append(f"epoch={bins.calibration_epoch}")
    for task_bin in bins:
        tokens.append(
            f"{task_bin.cardinality}:{float(task_bin.confidence).hex()}:"
            f"{float(task_bin.cost).hex()}"
        )
    return digest(tokens)


def problem_formula(problem):
    return digest(
        ["slade_problem", task_formula(problem.task), bins_formula(problem.bins)]
    )


thresholds_st = st.floats(min_value=0.0, max_value=1.0, exclude_max=True) | st.sampled_from(
    [0.0, -0.0, 0.9, 0.95]
)
triples_st = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=30),
        st.floats(min_value=0.05, max_value=0.99),
        st.floats(min_value=0.01, max_value=5.0),
    ),
    min_size=1,
    max_size=6,
    unique_by=lambda triple: triple[0],
)


@st.composite
def tasks(draw):
    """A task from any constructor, sometimes cut down by ``subset``."""
    thresholds = draw(st.lists(thresholds_st, min_size=1, max_size=40))
    kind = draw(st.sampled_from(["homogeneous", "heterogeneous", "atomic"]))
    if kind == "homogeneous":
        task = CrowdsourcingTask.homogeneous(len(thresholds), thresholds[0])
    elif kind == "heterogeneous":
        task = CrowdsourcingTask.heterogeneous(thresholds)
    else:
        ids = draw(st.lists(
            st.integers(min_value=0, max_value=10**9),
            min_size=len(thresholds), max_size=len(thresholds), unique=True,
        ))
        task = CrowdsourcingTask([
            AtomicTask(task_id, threshold, {"truth": task_id % 2 == 0})
            for task_id, threshold in zip(ids, thresholds)
        ])
    if draw(st.booleans()):
        kept = draw(st.lists(st.sampled_from(task.task_ids), min_size=1, unique=True))
        task = task.subset(kept)
    return task


@settings(max_examples=200, deadline=None)
@given(tasks(), triples_st, st.integers(min_value=0, max_value=5))
def test_fingerprints_follow_the_formula(task, triples, epoch):
    bins = TaskBinSet((TaskBin(*triple) for triple in triples), calibration_epoch=epoch)
    problem = SladeProblem(task, bins)
    assert task.fingerprint == task_formula(task)
    assert bins.fingerprint == bins_formula(bins)
    # The problem digest reads the menu's memo, set by the line above.
    assert problem.fingerprint == problem_formula(problem)
