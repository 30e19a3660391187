"""The benchmark's workloads: fixed instance lists built from a seed.

Each workload is a list of instances; one instance is one public call into
pcc (or one in-process CLI invocation) whose verdict has a known answer.
The seed draws the random members of a list (random trees and 2-connected
graphs, perturbations, permutations, relabelings) while the large fixed
family instances keep the work per pass nearly the same from seed to seed.

There is no workload of its own for the constructors: they run end to end
in the `cli` workload's `pcc color` runs, and layer by layer in the traced
set-up of `verify`, which builds its certified colorings with them.

Known answers come from outside the call under test: a positive verdict is
proved by checking every witness path; a refutation on a tree is checked
against `first_bad_tree_pair`, an independent scan of the unique tree
paths; exact minima are the closed forms of the acceptance tables (wheels,
stars, paths, complete bipartite graphs, hypercubes, double stars, trees),
and for C_5 the value the exhaustive search and the test suite's
brute-force oracles agree on.

Layout.  Every list has 31 instances in four cost groups: 13 cheap, 5
around the median, 5 around the tail and the 8 dearest.  Of 31
per-instance times the p50 is the 16th, the middle of the median group,
and the tail (the time with ten instances beyond it) is the 21st, the
middle of the tail group.  Those two groups hold repeated or near-equal
fixed calls, and no seeded instance comes near them in cost, so both
metrics read the same calls from seed to seed instead of whichever
neighbour noise moves onto the rank.  The repeated calls are spread
evenly through the list, so that they sample the whole pass.
"""

from __future__ import annotations

import collections
import contextlib
import csv
import io as textio
import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

# Fixed per-pair budget of the capped verify instances: Q_6 at l=2 and Q_7
# at l=3 give no verdict within it on the exhaustive DFS verifier.  It stays
# fixed so that the same instances count as decided once the verifier can
# decide them within it.
CAP_S = 0.5

TIMEOUT = "timeout"


class Mismatch(Exception):
    """An instance returned a wrong verdict."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def _nothing(result, tr, replay) -> None:
    pass


@dataclass
class Instance:
    name: str
    # The timed call: takes the tracer, returns the verdict.
    run: Callable[[Any], Any]
    # The correctness gate, run outside the timed region.  `full` asks for
    # the expensive checks (every witness path); they run on the first pass,
    # and later passes must also return a result equal to the first one.
    check: Callable[[Any, bool], None]
    # Traced runs only: counts from the result, and with `replay` set (once
    # per run) the replays behind the derived per-layer metrics.
    observe: Callable[[Any, Any, Any], None] = _nothing
    undecided: Callable[[Any], bool] = lambda result: False
    # False when a later pass may legitimately return another result.
    repeatable: bool = True


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def first_bad_tree_pair(tree, colors: dict, ell: int) -> Optional[tuple[int, int]]:
    """Lexicographically first pair (u, v) whose unique tree path has two
    equal colors at most ell edges apart, or None."""
    for u in range(tree.n):
        bad = []
        stack = [(u, -1, (), True)]
        while stack:
            x, parent, window, proper = stack.pop()
            for y in tree.adjacency[x]:
                if y == parent:
                    continue
                c = colors[(x, y) if x < y else (y, x)]
                ok = proper and c not in window
                if y > u and not ok:
                    bad.append(y)
                stack.append((y, x, (window + (c,))[-ell:], ok))
        if bad:
            return (u, min(bad))
    return None


def _pair_count(n: int, pair: Optional[tuple[int, int]]) -> int:
    """Pairs a lexicographic scan examines up to and including `pair`."""
    if pair is None:
        return n * (n - 1) // 2
    u, v = pair
    return u * (2 * n - u - 1) // 2 + (v - u)


def _check_witnesses(pcc, name, g, coloring, ell: int, k: int, cert) -> None:
    expect(len(cert.witnesses) == g.n * (g.n - 1) // 2, f"{name}: a pair has no witness")
    for (u, v), paths in cert.witnesses.items():
        expect(len(paths) == k, f"{name}: pair {(u, v)} has {len(paths)} witnesses, not {k}")
        used: set[int] = set()
        for path in paths:
            expect(path[0] == u and path[-1] == v,
                   f"{name}: witness {path} does not join {(u, v)}")
            try:
                proper = pcc.is_distance_proper_path(coloring, path, ell)
            except ValueError as err:
                raise Mismatch(f"{name}: witness {path} is not a path: {err}") from None
            expect(proper, f"{name}: witness {path} is not distance-{ell} proper")
            inner = set(path[1:-1])
            expect(not inner & used, f"{name}: witnesses of {(u, v)} share an interior vertex")
            used |= inner


def _relabel(pcc, g, rng: random.Random):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return pcc.Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _perturb_tree(pcc, tree, coloring, rng: random.Random):
    """Recolor one edge at a random vertex to match a neighboring edge."""
    x = rng.choice([v for v in range(tree.n) if tree.degree(v) >= 2])
    a, b = rng.sample(tree.neighbors(x), 2)
    colors = dict(coloring.colors)
    colors[(min(x, a), max(x, a))] = colors[(min(x, b), max(x, b))]
    return colors


def _tree_minimum(tree) -> int:
    """pc_{1,2} of a tree: the largest degree sum over an edge, minus one."""
    return max(tree.degree(u) + tree.degree(v) for u, v in tree.edges) - 1


def _spread_out(others: list, repeats: list) -> list:
    """Place the repeated calls evenly through the list, so that together
    they sample the whole pass instead of one moment of it."""
    out, k = [], 0
    for i, inst in enumerate(others):
        while k < len(repeats) and k * len(others) <= i * len(repeats):
            out.append(repeats[k])
            k += 1
        out.append(inst)
    return out + repeats[k:]


def _split_constructor(pcc, tr, fn, graph, report, ell: int) -> None:
    """Replay, outside any span, what `fn` ran inside itself for `report`:
    color_2connected reduces the graph, takes an ear decomposition and
    verifies its own output; color_tree finds a bounded-diameter core."""
    if fn.__name__ == "color_2connected":
        reduced = tr.timed("structure.reduce_ms", pcc.minimally_2connected_spanning, graph)
        tr.timed("structure.ears_ms", pcc.ear_decomposition, reduced)
        tr.timed("construct.verify_ms", pcc.verify_coloring, graph, report.coloring, ell)
        tr.add("structure.replay_calls", 2)
        tr.add("verify.replay_calls")
    if fn.__name__ == "color_tree":
        tr.timed("structure.max_subtree_ms", pcc.max_subtree_size_with_diameter,
                 graph, ell + 1)
        tr.add("structure.replay_calls")


# ---------------------------------------------------------------------------
# verify: verify_coloring on prebuilt graph/coloring pairs
# ---------------------------------------------------------------------------

OK = "ok"
CAPPED = "capped"


def _verify_instance(pcc, name, g, coloring, ell, k, expected, cap=None) -> Instance:
    def run(tr):
        try:
            return tr.call("verify", "verify_coloring", pcc.verify_coloring,
                           g, coloring, ell, k, cap)
        except pcc.VerificationTimeout:
            return TIMEOUT

    def check(cert, full):
        if expected == CAPPED and cert == TIMEOUT:
            return
        expect(cert != TIMEOUT, f"{name}: timed out without a budget")
        if expected in (OK, CAPPED):
            expect(cert.ok, f"{name}: refuted at {cert.failing_pair}, expected a certificate")
            if full:
                _check_witnesses(pcc, name, g, coloring, ell, k, cert)
        else:
            expect(not cert.ok and cert.failing_pair == expected,
                   f"{name}: verdict {cert.ok} at {cert.failing_pair}, "
                   f"expected failure at {expected}")

    def observe(cert, tr, replay):
        if cert == TIMEOUT:
            tr.add("verify.timeouts")
            return
        pairs = _pair_count(g.n, cert.failing_pair)
        tr.add("verify.decided_ms", tr.last_ms())
        tr.add("verify.pairs", pairs)
        if cert.ok:
            vertices = sum(len(p) for paths in cert.witnesses.values() for p in paths)
            tr.add("verify.witness_vertices", vertices)
        else:
            tr.add("verify.refutations")
        if replay is not None and k == 1:
            for u, v in itertools.islice(itertools.combinations(range(g.n), 2), pairs):
                replay.peak("verify.slowest_pair_ms", replay.timed_ms(
                    pcc.find_distance_proper_path, g, coloring, u, v, ell))

    return Instance(name, run, check, observe,
                    undecided=lambda cert: cert == TIMEOUT,
                    repeatable=expected != CAPPED)


def build_verify(pcc, seed: int, workdir: str, tr) -> list[Instance]:
    """The certified colorings come from the constructors during set-up,
    which is where the traced run measures the construct and structure
    layers."""
    rng = random.Random(seed)
    build = lambda fn, *args: tr.call("graphs", fn.__name__, fn, *args)
    out, repeats = [], []

    def make(fn, graph, *args, ell=2):
        report = tr.call("construct", fn.__name__, fn, *args)
        if tr.enabled:
            _split_constructor(pcc, tr, fn, graph, report, ell)
        return report

    def add(name, g, report_or_coloring, ell, k=1, expected=OK, cap=None, to=out):
        coloring = getattr(report_or_coloring, "coloring", report_or_coloring)
        to.append(_verify_instance(pcc, name, g, coloring, ell, k, expected, cap))

    # Layout (see the module docstring): 13 cheap (W_10 at k=2, W_30 along a
    # Hamiltonian path, K_3,4,5, Q_4 at k=2, the seeded 2-connected graphs
    # and tree, the perturbed colorings), Q_5 l=4 five times around the
    # median, K_4,42 five times around the tail, then the 8 dearest.  The
    # seeded graphs are kept small, so that the work of a pass (and of a
    # set-up) hardly depends on the seed.
    w10 = build(pcc.wheel_graph, 10)
    add("W_10 l=2 k=2", w10, make(pcc.color_wheel, w10, 10, 2), 2, k=2)
    w30 = build(pcc.wheel_graph, 30)
    path = tr.call("structure", "hamiltonian_path", pcc.hamiltonian_path, w30)
    add("W_30 traceable l=2", w30, make(pcc.color_traceable, w30, w30, path, 2), 2)
    k345 = build(pcc.complete_multipartite_graph, (3, 4, 5))
    add("K_3,4,5 l=2", k345, make(pcc.color_complete_multipartite, k345, (3, 4, 5), 2), 2)
    q4 = build(pcc.hypercube_graph, 4)
    add("Q_4 l=3 k=2", q4, make(pcc.color_hypercube, q4, 4, 3), 3, k=2)
    q5, k442 = build(pcc.hypercube_graph, 5), build(pcc.complete_bipartite_graph, 4, 42)
    q5_coloring = make(pcc.color_hypercube, q5, 5, 4)
    k442_coloring = make(pcc.color_complete_bipartite, k442, 4, 42, 2)
    for i in range(5):
        add(f"Q_5 l=4 #{i}", q5, q5_coloring, 4, to=repeats)
        add(f"K_4,42 l=2 #{i}", k442, k442_coloring, 2, to=repeats)
    for a, b, ell in ((4, 30, 3), (4, 40, 3), (5, 40, 2), (5, 60, 2)):
        g = build(pcc.complete_bipartite_graph, a, b)
        add(f"K_{a},{b} l={ell}", g, make(pcc.color_complete_bipartite, g, a, b, ell), ell)
    for n in (70, 100):
        w = build(pcc.wheel_graph, n)
        add(f"W_{n} l=2", w, make(pcc.color_wheel, w, n, 2), 2)
    for n in (40, 40):
        g = build(pcc.random_2connected, n, None, rng.randrange(10**9))
        add(f"2connected n={n}", g, make(pcc.color_2connected, g, g), 2)
    tree = build(pcc.random_tree, 40, rng.randrange(10**9))
    add("tree n=40 l=2", tree, make(pcc.color_tree, tree, tree, 2), 2)
    for i in range(3):
        tree = build(pcc.random_tree, 25, rng.randrange(10**9))
        colors = _perturb_tree(pcc, tree, make(pcc.color_tree, tree, tree, 2).coloring, rng)
        add(f"perturbed tree #{i}", tree, pcc.EdgeColoring(colors), 2,
            expected=first_bad_tree_pair(tree, colors, 2))
    for i, n in enumerate((30, 40, 50)):
        path = build(pcc.path_graph, n)
        report = make(pcc.color_traceable, path, path, list(range(n)), 3, ell=3)
        colors = dict(report.coloring.colors)
        j = rng.randrange(n - 2)
        colors[(j, j + 1)] = colors[(j + 1, j + 2)]
        add(f"perturbed path #{i}", path, pcc.EdgeColoring(colors), 3,
            expected=first_bad_tree_pair(path, colors, 3))
    for t, ell in ((6, 2), (7, 3)):
        q = build(pcc.hypercube_graph, t)
        add(f"Q_{t} l={ell} capped", q, make(pcc.color_hypercube, q, t, ell, ell=ell), ell,
            expected=CAPPED, cap=CAP_S)
    return _spread_out(out, repeats)


# ---------------------------------------------------------------------------
# exact: min_colors_exact / prove_lower_bound on a desk-scale sweep
# ---------------------------------------------------------------------------


def _stirling2(m: int, t: int) -> int:
    row = [1] + [0] * t
    for i in range(1, m + 1):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, t + 1)]
    return row[t]


def _exact_instance(pcc, name, g, ell, minimum, lower_bound_only=False) -> Instance:
    def run(tr):
        if lower_bound_only:
            return tr.call("exact", "prove_lower_bound", pcc.prove_lower_bound, g, ell, minimum - 1)
        return tr.call("exact", "min_colors_exact", pcc.min_colors_exact, g, ell)

    def check(result, full):
        if lower_bound_only:
            expect(result is True, f"{name}: lower bound {minimum} not proved: {result}")
            return
        expect(isinstance(result, pcc.ExactResult), f"{name}: {result}")
        expect(result.min_colors == minimum,
               f"{name}: min_colors {result.min_colors}, expected {minimum}")
        expect(result.exhausted_levels == tuple(range(1, minimum)),
               f"{name}: exhausted levels {result.exhausted_levels}")
        if full:
            expect(len(result.witness.used_colors()) == minimum, f"{name}: witness color count")
            expect(pcc.verify_coloring(g, result.witness, ell).ok,
                   f"{name}: witness does not verify")

    def observe(result, tr, replay):
        if isinstance(result, pcc.Inconclusive):
            tr.add("exact.inconclusive")
        if lower_bound_only:
            levels = [(t, None) for t in range(1, min(minimum - 1, g.m) + 1)]
            examined = sum(_stirling2(g.m, t) for t, _ in levels)
        else:
            exhausted = list(result.exhausted_levels)
            examined = result.colorings_examined
            rest = examined - sum(_stirling2(g.m, t) for t in exhausted)
            levels = [(t, None) for t in exhausted]
            if rest:
                levels.append((len(exhausted) + 1, rest))
        tr.add("exact.colorings_examined", examined)
        tr.add("exact.levels_exhausted", sum(1 for _, count in levels if count is None))
        if replay is not None:
            for t, count in levels:
                replay.timed("exact.enumerate_ms", collections.deque,
                             itertools.islice(pcc.canonical_colorings(g.m, t), count), 0)

    return Instance(name, run, check, observe,
                    undecided=lambda result: isinstance(result, pcc.Inconclusive))


def build_exact(pcc, seed: int, workdir: str, tr) -> list[Instance]:
    rng = random.Random(seed)
    build = lambda fn, *args: tr.call("graphs", fn.__name__, fn, *args)
    out = []
    # Layout (see the module docstring): 13 cheap (W_4, W_5, C_5, K_2,3,
    # K_2,4, double stars, a seeded tree and a relabeled K_2,3), K_2,5 l=2
    # five times around the median, Q_3 l=2 five times around the tail,
    # then the 8 dearest.
    for name, g, ell, minimum in (
        ("W_4", build(pcc.wheel_graph, 4), 2, 2),
        ("W_5", build(pcc.wheel_graph, 5), 2, 2),
        ("C_5", build(pcc.cycle_graph, 5), 3, 3),
        ("K_2,3", build(pcc.complete_bipartite_graph, 2, 3), 2, 2),
        ("K_2,3", build(pcc.complete_bipartite_graph, 2, 3), 3, 2),
        ("K_2,4", build(pcc.complete_bipartite_graph, 2, 4), 2, 2),
        ("K_2,4", build(pcc.complete_bipartite_graph, 2, 4), 3, 2),
        ("P_10", build(pcc.path_graph, 10), 3, 4),
        ("K_2,6", build(pcc.complete_bipartite_graph, 2, 6), 2, 3),
        ("K_2,6", build(pcc.complete_bipartite_graph, 2, 6), 3, 3),
        ("S_8", build(pcc.star_graph, 8), 2, 8),
        ("S_9", build(pcc.star_graph, 9), 2, 9),
        ("P_11", build(pcc.path_graph, 11), 3, 4),
        ("W_7", build(pcc.wheel_graph, 7), 2, 3),
    ):
        out.append(_exact_instance(pcc, f"{name} l={ell}", g, ell, minimum))
    out.append(_exact_instance(pcc, "W_8 l=2 lower bound 3", build(pcc.wheel_graph, 8), 2, 3,
                               lower_bound_only=True))
    k25, q3 = build(pcc.complete_bipartite_graph, 2, 5), build(pcc.hypercube_graph, 3)
    repeats = []
    for i in range(5):
        repeats.append(_exact_instance(pcc, f"K_2,5 l=2 #{i}", k25, 2, 3))
        repeats.append(_exact_instance(pcc, f"Q_3 l=2 #{i}", q3, 2, 3))
    for a, b in ((2, 3), (3, 4)):
        g = build(pcc.double_star_graph, a, b - a + 1)
        out.append(_exact_instance(pcc, f"double star {a},{b} l=1", g, 1, a))
        out.append(_exact_instance(pcc, f"double star {a},{b} l=2", g, 2, b))
    tree = build(pcc.random_tree, 5, rng.randrange(10**9))
    out.append(_exact_instance(pcc, "tree n=5 l=2", tree, 2, _tree_minimum(tree)))
    k23 = _relabel(pcc, build(pcc.complete_bipartite_graph, 2, 3), rng)
    out.append(_exact_instance(pcc, "relabeled K_2,3 l=2", k23, 2, 2))
    return _spread_out(out, repeats)


# ---------------------------------------------------------------------------
# cli: in-process pcc.cli.main(argv) runs
# ---------------------------------------------------------------------------


def _invoke(pcc, argv):
    out, err = textio.StringIO(), textio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pcc.cli.main(argv)
    return code, out.getvalue()


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _cli_instance(pcc, argv, outcomes, reads=(), writes=(), reverify=None, table=None) -> Instance:
    """`outcomes` lists the acceptable (exit code, {stdout key: value})
    results; `reads`/`writes` list the (kind, path, graph path) files in
    pcc.io formats the run touches; `reverify` is (graph file, coloring
    file, ell) of a `pcc color` run; `table` is the CSV a `pcc table` run
    writes."""
    name = "pcc " + " ".join(a for a in argv if "/" not in a)

    def run(tr):
        return tr.call("cli", argv[0], _invoke, pcc, argv)

    def check(result, full):
        code, stdout = result
        got = dict(line.split(" ", 1) for line in stdout.splitlines())
        expect(any(code == want_code and all(got.get(k) == v for k, v in want.items())
                   for want_code, want in outcomes),
               f"{name}: exit {code} with\n{stdout}expected one of {outcomes}")
        if table is not None:
            with open(table, encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(fh))
            expect(rows and got.get("rows") == str(len(rows)), f"{name}: row count")
            for row in rows:
                expect(row["status"] == "ok", f"{name}: row {row}")

    def observe(result, tr, replay):
        if replay is None:
            return
        replay.timed("cli.self_ms", lambda: pcc.cli.build_parser().parse_args(argv))
        parsed = {}
        for kind, path, graph_path in (*reads, *writes):
            text = _read(path)
            replay.add("io.bytes", len(text.encode()))
            if kind == "graph":
                parsed[path] = replay.timed("io.busy_ms", pcc.read_graph, text)
                replay.timed("io.busy_ms", pcc.write_graph, parsed[path])
            else:
                g = parsed.get(graph_path) or pcc.read_graph(_read(graph_path))
                parsed[path] = replay.timed("io.busy_ms", pcc.read_coloring, text, g)
                replay.timed("io.busy_ms", pcc.write_coloring, parsed[path], g)
        if reverify is not None:
            graph_file, coloring_file, ell = reverify
            replay.timed("cli.reverify_ms", pcc.verify_coloring,
                         parsed[graph_file], parsed[coloring_file], ell)
            replay.add("verify.replay_calls")

    return Instance(name, run, check, observe,
                    undecided=lambda result: "inconclusive" in result[1],
                    repeatable="--time-limit" not in argv)


def build_cli(pcc, seed: int, workdir: str, tr) -> list[Instance]:
    rng = random.Random(seed)
    build = lambda fn, *args: tr.call("graphs", fn.__name__, fn, *args)
    f = lambda name: f"{workdir}/{name}"

    def save(name, g, coloring=None):
        with open(f(name + ".edges"), "w", encoding="utf-8", newline="") as fh:
            fh.write(pcc.write_graph(g))
        if coloring is not None:
            with open(f(name + ".pcc"), "w", encoding="utf-8", newline="") as fh:
                fh.write(pcc.write_coloring(coloring, g))

    for name, g in (
        ("c7", build(pcc.cycle_graph, 7)), ("p6", build(pcc.path_graph, 6)),
        ("c10", build(pcc.cycle_graph, 10)), ("p8", build(pcc.path_graph, 8)),
        ("p20", build(pcc.path_graph, 20)),
        ("w6", build(pcc.wheel_graph, 6)), ("w7", build(pcc.wheel_graph, 7)),
        ("k25", build(pcc.complete_bipartite_graph, 2, 5)),
    ):
        save(name, g)
    save("w10", build(pcc.wheel_graph, 10), pcc.color_wheel(10, 2).coloring)
    save("q6", build(pcc.hypercube_graph, 6), pcc.color_hypercube(6, 2).coloring)
    tree = build(pcc.random_tree, 40, rng.randrange(10**9))
    bad = _perturb_tree(pcc, tree, pcc.color_tree(tree, 2).coloring, rng)
    save("t40", tree, pcc.EdgeColoring(bad))
    bad_pair = " ".join(map(str, first_bad_tree_pair(tree, bad, 2)))
    images = list(range(1, 21))
    rng.shuffle(images)
    alpha = ",".join(map(str, images))
    s2, s3 = str(rng.randrange(10**6)), str(rng.randrange(10**6))

    G = lambda name: ("graph", f(name + ".edges"), None)
    C = lambda name: ("coloring", f(name + ".pcc"), f(name + ".edges"))
    out = []

    def add(argv, code=0, lines=None, **kw):
        out.append(_cli_instance(pcc, argv, [(code, lines or {})], **kw))

    # Layout (see the module docstring): 13 cheap (generate, small
    # color/verify/exact runs, the multipartite and wheel tables), `exact`
    # on K_2,5 at l=2 five times around the median and at l=3 five times
    # around the tail, then the 8 dearest (method-based color runs on the
    # generated graphs, the capped verify, exact W_7, the tree and
    # bipartite tables).  Apart from the repeated calls, the order follows
    # the data flow: generate, color, verify, exact, table.
    for argv, n, m, name in (
        (["--family", "random_2connected", "--n", "50", "--seed", s2], 50, 75, "gr50"),
        (["--family", "random_tree", "--n", "80", "--seed", s3], 80, 79, "gt80"),
        (["--family", "hypercube", "--t", "5"], 32, 80, "gq5"),
        (["--family", "complete_bipartite", "--m", "3", "--n", "5"], 8, 15, "gk35"),
    ):
        add(["generate", *argv, "-o", f(name + ".edges")],
            lines={"vertices": str(n), "edges": str(m)}, writes=[G(name)])

    def color(name, argv, ell, claimed=None, reads=()):
        lines = {"verified": "true"}
        if claimed is not None:
            lines["claimed"] = str(claimed)
        add(["color", *argv, "--ell", str(ell), "-o", f(name + ".pcc"),
             "--graph-out", f(name + ".edges")],
            lines=lines, reads=reads, writes=[G(name), C(name)],
            reverify=(f(name + ".edges"), f(name + ".pcc"), ell))

    color("cw20", ["--family", "wheel", "--n", "20"], 2, 3)
    color("cp20t", ["--input", f("p20.edges"), "--method", "traceable"], 2, 3, reads=[G("p20")])
    color("cj", ["--input", f("c10.edges"), "--input2", f("p8.edges"), "--method", "join"], 2,
          reads=[G("c10"), G("p8")])
    color("cr50", ["--input", f("gr50.edges"), "--method", "2connected"], 2, 5, reads=[G("gr50")])
    color("ct80", ["--input", f("gt80.edges"), "--method", "tree"], 2,
          _tree_minimum(pcc.random_tree(80, int(s3))), reads=[G("gt80")])
    color("cc7p6", ["--input", f("c7.edges"), "--input2", f("p6.edges"), "--method", "cartesian"],
          2, reads=[G("c7"), G("p6")])
    color("cp20", ["--input", f("p20.edges"), "--method", "permutation", "--alpha", alpha], 2,
          reads=[G("p20")])

    def verify(graph, coloring, ell, code, lines, *extra):
        add(["verify", "--graph", f(graph + ".edges"), "--coloring", f(coloring + ".pcc"),
             "--ell", str(ell), *extra], code, lines, reads=[G(graph), C(coloring)])

    verify("t40", "t40", 2, 1, {"verified": "false", "failing_pair": bad_pair})
    verify("w10", "w10", 2, 0, {"verified": "true"}, "--k", "2")
    # The capped hang: "inconclusive timeout" (exit 1) until the verifier
    # decides Q_6 at l=2 within the budget, then "verified true".
    out.append(_cli_instance(
        pcc, ["verify", "--graph", f("q6.edges"), "--coloring", f("q6.pcc"), "--ell", "2",
              "--time-limit", str(CAP_S)],
        [(1, {"inconclusive": "timeout"}), (0, {"verified": "true"})],
        reads=[G("q6"), C("q6")]))

    def exact(name, ell, minimum, to=out):
        to.append(_cli_instance(pcc, ["exact", "--graph", f(name + ".edges"), "--ell", str(ell)],
                                [(0, {"min_colors": str(minimum)})], reads=[G(name)]))

    for name, ell, minimum in (("w6", 2, 2), ("c7", 3, 4), ("w7", 2, 3)):
        exact(name, ell, minimum)
    repeats = []
    for _ in range(5):
        exact("k25", 2, 3, to=repeats)
        exact("k25", 3, 3, to=repeats)
    for name, argv in (
        ("bipartite", ["--max-m", "3", "--max-n", "8", "--exact-edges", "9"]),
        ("wheel", ["--max-n", "16", "--exact-edges", "10"]),
        ("tree", ["--count", "20", "--max-n", "40", "--seed", s2, "--exact-edges", "8"]),
        ("multipartite", ["--max-n", "7", "--exact-edges", "10"]),
    ):
        path = f(f"table_{name}.csv")
        add(["table", "--theorem", name, *argv, "-o", path], table=path)
    return _spread_out(out, repeats)


BUILDERS = {
    "verify": build_verify,
    "exact": build_exact,
    "cli": build_cli,
}
