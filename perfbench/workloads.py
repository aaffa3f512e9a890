"""The four workloads: inputs from a seed, set-up, one operation, checks.

An operation is one whole cycle through a workload's fixed inputs, so every
operation is the same unit of work; ``calls`` returns it as the list of
program calls it makes, which the runner times one by one.  Inputs come
from ``random.Random(seed)``; the program receives only the generated Newick
text.  Every output is checked against ``reference`` (which never imports
rankdate) or against properties that hold for any correct answer; later
cycles must repeat the first cycle's checked output exactly.  The reference
values are computed in ``inputs``, before the program builds anything, so
their memory is freed before set-up and the process's peak RSS is the
program's.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import rankdate.combinat as combinat
import rankdate.oracle as oracle
import rankdate.ranks as ranks
import rankdate.timing as timing
import rankdate.tree as tree_mod
import reference as ref
from spans import TRACE_PREFIX

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
FLOAT_TOLERANCE = 1e-9
YULE = timing.TimingModel.YULE
COALESCENT = timing.TimingModel.COALESCENT


class CheckError(Exception):
    """An output of the program is wrong."""


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def scrambled(children, rng) -> ref.RefTree:
    """A tree with its children lists shuffled and leaves labelled t1..tn in
    random order, so the seed moves labels and vertex ids but not the shape."""
    children = [list(kids) for kids in children]
    for kids in children:
        rng.shuffle(kids)
    leaves = [v for v, kids in enumerate(children) if not kids]
    names = [f"t{k}" for k in range(1, len(leaves) + 1)]
    rng.shuffle(names)
    labels = [None] * len(children)
    for v, name in zip(leaves, names):
        labels[v] = name
    return ref.RefTree(children, labels)


def from_shape(text: str, rng) -> ref.RefTree:
    """A shape in Newick form with ``x`` for every leaf, e.g. ``((x,x),x)``."""
    children = []
    open_vertices = []
    for ch in text:
        if ch in "(x":
            children.append([])
            if open_vertices:
                children[open_vertices[-1]].append(len(children) - 1)
            if ch == "(":
                open_vertices.append(len(children) - 1)
        elif ch == ")":
            open_vertices.pop()
    return scrambled(children, rng)


def yule_tree(rng, n: int) -> ref.RefTree:
    """A random binary tree grown by random joins (the Yule shape law),
    conditioned on its total leaf depth lying within 1% of the Yule mean
    2n(H_n - 1), so that every seed gives about the same amount of work."""
    target = 2 * n * (sum(1 / k for k in range(1, n + 1)) - 1)
    while True:
        children = [[] for _ in range(n)]
        active = list(range(n))
        while len(active) > 1:
            a, b = rng.sample(range(len(active)), 2)
            children.append([active[a], active[b]])
            for index in sorted((a, b), reverse=True):
                active.pop(index)
            active.append(len(children) - 1)
        depth = [0] * len(children)
        for v in range(len(children) - 1, -1, -1):
            for c in children[v]:
                depth[c] = depth[v] + 1
        total = sum(depth[:n])
        if abs(total - target) <= 0.01 * target:
            order = [active[0]] + [v for v in range(len(children)) if v != active[0]]
            position = {v: i for i, v in enumerate(order)}
            return scrambled([[position[c] for c in children[v]] for v in order], rng)


def balanced_tree(rng, n: int) -> ref.RefTree:
    """Each vertex splits its leaves ceil/floor in half."""
    children = [[]]
    stack = [(0, n)]
    while stack:
        v, size = stack.pop()
        if size == 1:
            continue
        for part in ((size + 1) // 2, size // 2):
            children.append([])
            children[v].append(len(children) - 1)
            stack.append((len(children) - 1, part))
    return scrambled(children, rng)


def caterpillar_tree(rng, n: int) -> ref.RefTree:
    """A comb: every interior vertex has one leaf child."""
    children = [[]]
    spine = 0
    for remaining in range(n, 1, -1):
        children[spine] = [len(children), len(children) + 1]
        children.extend([[], []])
        spine = len(children) - 2 if remaining > 2 else None
    return scrambled(children, rng)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    name = ""
    tracer = None

    def inputs(self, seed: int):
        raise NotImplementedError

    def setup(self, inputs):
        raise NotImplementedError

    def calls(self, state, index: int) -> list:
        """The operation as argument-free callables, one per program call."""
        raise NotImplementedError

    def check(self, state, index: int, results) -> int:
        """Raise CheckError on a wrong output; return the failed calls.

        ``results`` holds each call's return value, or the ValueError or
        ArithmeticError it raised."""
        raise NotImplementedError

    def finish(self, state) -> None:
        """Checks that need the whole run; outside every timed region."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _parse_and_cache(texts, exact, floating):
    trees = [tree_mod.parse_newick(text) for text in texts]
    for index in exact:
        combinat.binomial_table_for(trees[index])
    for index in floating:
        combinat.binomial_table_for(trees[index], exact=False)
    return trees


def _check_dated(report, want, reftree: ref.RefTree, pendant: bool, where: str):
    interior, pendants, depths = want
    if report.interior != interior:
        raise CheckError(f"{where}: interior edges differ from the rank-law values")
    if report.pendant != pendants or report.leaf_depths != depths:
        raise CheckError(f"{where}: pendant edges or leaf depths differ")
    if pendant:
        _check_clock(list(depths.values()), list(interior.values()) + list(pendants.values()),
                     reftree.leaf_count, where)


def _check_clock(depths, lengths, n: int, where: str):
    """Yule with pendants: every leaf at H_{n-1} - 1, total length n - 2."""
    if set(depths) != {ref.harmonic(n - 1) - 1}:
        raise CheckError(f"{where}: leaf depths are not all H(n-1) - 1")
    if sum(lengths, Fraction(0)) != n - 2:
        raise CheckError(f"{where}: edge lengths do not sum to n - 2")


class DateBinary(Workload):
    """Exact date_tree on a random, a balanced and a caterpillar binary tree,
    under Yule with pendant edges and under the coalescent."""

    name = "date-binary"
    leaves = 32

    def inputs(self, seed):
        rng = random.Random(seed)
        trees = [yule_tree(rng, self.leaves), balanced_tree(rng, self.leaves),
                 caterpillar_tree(rng, self.leaves)]
        want = [ref.date_binary(t, model, pendant)
                for t in trees for model, pendant in (("yule", True), ("coalescent", False))]
        return {"refs": trees, "texts": [t.newick() for t in trees], "want": want}

    def setup(self, inputs):
        trees = _parse_and_cache(inputs["texts"], range(3), ())
        return {"inputs": inputs, "trees": trees, "first": None}

    def calls(self, state, index):
        out = []
        for tree in state["trees"]:
            out.append(lambda tree=tree: timing.date_tree(tree, YULE, include_pendant=True))
            out.append(lambda tree=tree: timing.date_tree(tree, COALESCENT))
        return out

    def check(self, state, index, results):
        failed = sum(isinstance(r, Exception) for r in results)
        if state["first"] is not None:
            if results != state["first"]:
                raise CheckError("a later cycle dated a tree differently")
            return failed
        inputs = state["inputs"]
        for k, report in enumerate(results):
            if not isinstance(report, Exception):
                model, pendant = ("yule", True) if k % 2 == 0 else ("coalescent", False)
                _check_dated(report, inputs["want"][k], inputs["refs"][k // 2], pendant,
                             f"tree {k // 2} {model}")
        state["first"] = results
        return failed


class RankQueries(Workload):
    """Exact rank laws on a 1000-vertex caterpillar and a 511-vertex balanced
    tree, precedence on the balanced tree, and float rank laws at K = 511 and
    K = 2047."""

    name = "rank-queries"

    def inputs(self, seed):
        rng = random.Random(seed)
        cat = caterpillar_tree(rng, 1001)
        bal = balanced_tree(rng, 512)
        big = balanced_tree(rng, 2048)
        deepest = max(cat.interior(), key=lambda v: cat.depth[v])
        side_a, side_b = bal.children[0]

        def pick(tree, top, depth):
            below = [v for v in tree.interior()
                     if tree.depth[v] == depth and top in tree.path_from_root(v)]
            return rng.choice(below)

        u = pick(bal, side_a, 8)
        half = next(c for c in bal.children[side_a] if c in bal.path_from_root(u))
        mirror = pick(bal, next(c for c in bal.children[side_a] if c != half), 8)
        w = pick(bal, side_b, 7)
        x = big.children[0][0]  # every vertex's float walk ends in the same top step
        law_bal = ref.rank_law(bal, u)
        return {"texts": [t.newick() for t in (cat, bal, big)],
                "deepest": deepest, "u": u, "w": w, "mirror": mirror, "x": x,
                "law_cat": ref.rank_law(cat, deepest), "law_bal": law_bal,
                "float_bal": [float(p) for p in law_bal],
                "float_big": [float(p) for p in ref.rank_law(big, x)],
                "uw": ref.precedence(bal, u, w), "u_mirror": ref.precedence(bal, u, mirror)}

    def setup(self, inputs):
        trees = _parse_and_cache(inputs["texts"], (0, 1), (1, 2))
        return {"inputs": inputs, "trees": trees, "first": None}

    def calls(self, state, index):
        cat, bal, big = state["trees"]
        q = state["inputs"]
        u, w = q["u"], q["w"]
        return [
            lambda: ranks.rank_probabilities(cat, q["deepest"]),
            lambda: ranks.rank_probabilities(bal, u),
            lambda: ranks.compare(bal, u, w),
            lambda: ranks.compare(bal, w, u),
            lambda: ranks.compare(bal, u, q["mirror"]),
            lambda: ranks.rank_probabilities_float(bal, u),
            lambda: ranks.rank_probabilities_float(big, q["x"]),
        ]

    @staticmethod
    def _float_ok(values, exact) -> bool:
        """False when the float law failed (not finite); raises when it is
        finite but not normalized or not close to the exact law."""
        if isinstance(values, Exception) or not all(math.isfinite(p) for p in values):
            return False
        if abs(math.fsum(values) - 1) > FLOAT_TOLERANCE:
            raise CheckError("float rank law does not sum to 1")
        if len(values) != len(exact) or max(
                abs(p - e) for p, e in zip(values, exact)) > FLOAT_TOLERANCE:
            raise CheckError("float rank law is not within tolerance of the exact law")
        return True

    def check(self, state, index, results):
        q = state["inputs"]
        ok = [not isinstance(r, Exception) for r in results]
        ok[5] = self._float_ok(results[5], q["float_bal"])
        ok[6] = self._float_ok(results[6], q["float_big"])
        first = state["first"]
        if first is not None:
            if any(ok[k] and results[k] != first[k] for k in range(len(results))):
                raise CheckError("a later cycle gave different rank results")
            return ok.count(False)
        law_cat, law_bal, uw, wu, mirror = results[:5]
        if ok[0] and law_cat.p != q["law_cat"]:
            raise CheckError("caterpillar rank law differs from the independent law")
        if ok[1] and law_bal.p != q["law_bal"]:
            raise CheckError("balanced rank law differs from the independent law")
        if ok[2] and uw != q["uw"]:
            raise CheckError("compare(u, w) differs from the independent precedence")
        if ok[2] and ok[3] and uw + wu != 1:
            raise CheckError("compare(u, w) + compare(w, u) != 1")
        if ok[4] and not mirror == q["u_mirror"] == Fraction(1, 2):
            raise CheckError("mirror-image vertices do not compare at 1/2")
        state["first"] = results
        return ok.count(False)


class Sample(Workload):
    """Uniform orders of a 1000-leaf random binary tree, with Yule edge
    durations drawn for each order."""

    name = "sample"
    leaves = 1000
    draws = 10

    def inputs(self, seed):
        rng = random.Random(seed)
        tree = yule_tree(rng, self.leaves)
        return {"ref": tree, "text": tree.newick(), "seed": rng.getrandbits(48)}

    def setup(self, inputs):
        return {"inputs": inputs, "tree": tree_mod.parse_newick(inputs["text"]), "first": None}

    def calls(self, state, index):
        tree = state["tree"]
        seed = state["inputs"]["seed"] + 1000 * index

        def draw(k):
            order = next(oracle.sample_rank_functions(tree, 1, seed + 2 * k))
            return order, oracle.sample_yule_times(tree, order, seed + 2 * k + 1)

        return [lambda k=k: draw(k) for k in range(self.draws)]

    def check(self, state, index, results):
        reftree = state["inputs"]["ref"]
        interior = reftree.interior()
        for result in results:
            if isinstance(result, Exception):
                raise CheckError(f"sampling failed: {result}")
            draw, times = result
            position = {v: k for k, v in enumerate(draw.order)}
            if sorted(draw.order) != interior:
                raise CheckError("a draw does not cover the interior vertices once each")
            if any(position[reftree.parent[v]] > position[v] for v in interior if v):
                raise CheckError("a draw puts a vertex before its parent")
            depth = [0.0] * len(reftree.children)
            for c in range(1, len(reftree.children)):
                p = reftree.parent[c]
                step = times[(p, c)]
                if step < 0:
                    raise CheckError("negative Yule duration")
                depth[c] = depth[p] + step
            leaf_depths = [depth[v] for v in reftree.leaves()]
            if max(leaf_depths) - min(leaf_depths) > FLOAT_TOLERANCE * max(1.0, max(leaf_depths)):
                raise CheckError("Yule leaf depths differ")
        if index == 0:
            state["first"] = results
        return 0

    def finish(self, state):
        again = [call() for call in self.calls(state, 0)]
        if [(d.order, t) for d, t in again] != [(d.order, t) for d, t in state["first"]]:
            raise CheckError("a second pass over the same seed gave other draws")


CLI_INPUTS = (
    # (shape, flags).  The shapes have 1, 15, 45 and 105 binary
    # refinements, and every polytomy has an interior child, so that the
    # refinement changes the averaged lengths and a wrong weight shows.
    ("((((x,x),x),((x,x),x)),(((x,x),(x,x)),(x,(x,x))))", ("--model", "yule", "--pendant")),
    ("(((x,x),x),(x,x),((x,x),(x,x)),x)", ("--model", "coalescent")),
    ("(((x,x),x,(x,x)),((x,x),(x,(x,x)),x,x))", ("--model", "yule")),
    ("((((x,x),x),x,x,x,x),(x,x))", ("--model", "yule")),
)


def cli_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


class CliDate(Workload):
    """``rankdate date --json`` as a subprocess over a fixed cycle of a
    binary tree with pendant edges and three multifurcating trees."""

    name = "cli-date"

    def inputs(self, seed):
        rng = random.Random(seed)
        refs = [from_shape(shape, rng) for shape, _ in CLI_INPUTS]
        flags = [flags for _, flags in CLI_INPUTS]
        want = [ref.date_binary(t, f[1], "--pendant" in f) if t.is_binary()
                else ref.refinement_average(t, f[1]) for t, f in zip(refs, flags)]
        return {"refs": refs, "texts": [t.newick() for t in refs], "flags": flags,
                "want": want}

    def setup(self, inputs):
        trees = _parse_and_cache(inputs["texts"], range(len(CLI_INPUTS)), ())
        return {"inputs": inputs, "trees": trees, "first": None}

    def command(self):
        if self.tracer is None:
            return [sys.executable, "-m", "rankdate"]
        return [sys.executable, str(HERE / "cli_shim.py")]

    def calls(self, state, index):
        inputs = state["inputs"]
        command = self.command() + ["date", "-", "--json"]
        env = cli_env()
        return [
            lambda text=text, flags=flags: subprocess.run(
                command + list(flags), input=text, capture_output=True, text=True,
                env=env, timeout=150,
            )
            for text, flags in zip(inputs["texts"], inputs["flags"])
        ]

    def check(self, state, index, results):
        docs = []
        for done in results:
            try:
                docs.append(json.loads(done.stdout) if done.returncode == 0 else None)
            except ValueError:
                docs.append(None)
            if docs[-1] is None:
                print(f"perfbench: rankdate failed: {done.stderr.strip()[-300:]}", file=sys.stderr)
            elif self.tracer is not None:
                self._collect_trace(done.stderr)
        first = state["first"]
        if first is not None:
            if any(doc is not None and done.stdout != before
                   for doc, done, before in zip(docs, results, first)):
                raise CheckError("a later cycle printed different output")
            return docs.count(None)
        inputs = state["inputs"]
        for k, doc in enumerate(docs):
            if doc is not None:
                self._check_doc(doc, inputs["refs"][k], inputs["want"][k],
                                "--pendant" in inputs["flags"][k], f"input {k}")
        state["first"] = [done.stdout for done in results]
        return docs.count(None)

    @staticmethod
    def _check_doc(doc, reftree, want, pendant, where):
        payload = doc["payload"]

        def exact(rows):
            values = {}
            for row in rows:
                value = Fraction(row["exact"])
                if abs(row["decimal"] - value) > 5e-6 * abs(value):
                    raise CheckError(f"{where}: decimal {row['decimal']} does not round {value}")
                values[(row["parent"], row["child"])] = value
            return values

        def named(values):
            return {(reftree.name(p), reftree.name(c)): v for (p, c), v in values.items()}

        interior = exact(payload["interior"])
        if reftree.is_binary():
            want, pendants, depths = want
            got_pendant = exact(payload["pendant"])
            got_depths = [Fraction(d["exact"]) for d in payload["leaf_depths"].values()]
            if got_pendant != named(pendants) or len(got_depths) != len(depths):
                raise CheckError(f"{where}: pendant edges or leaf depths differ")
            if pendant:
                _check_clock(got_depths, list(interior.values()) + list(got_pendant.values()),
                             reftree.leaf_count, where)
        if interior != named(want):
            raise CheckError(f"{where}: interior edges differ from the reference")

    def _collect_trace(self, stderr: str):
        lines = [line for line in stderr.splitlines() if line.startswith(TRACE_PREFIX)]
        if not lines:
            raise CheckError("traced CLI call left no trace")
        self.tracer.merge(json.loads(lines[-1][len(TRACE_PREFIX):]))

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def process_start_s(repeats: int = 5) -> float:
    """Median time to start the interpreter and import rankdate.cli."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import rankdate.cli"], env=cli_env(), check=True)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


WORKLOADS = {w.name: w for w in (DateBinary, RankQueries, Sample, CliDate)}
