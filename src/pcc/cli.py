"""Command-line front end: generate graphs, construct colorings, verify
them, compute exact minima, and reproduce the per-family color-count
tables as CSV.  A table row's constructor coloring, once verified, bounds
its exact value from above, so the row only proves the matching lower
bound (``_exact_cell``).

Exit codes: 0 success, 1 semantic negative (verification failed, lower
bound not met, search inconclusive), 2 usage or input errors.  Results go
to stdout as ``key value`` lines; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys
from typing import Optional, Sequence

from . import construct, exact, graphs, io, structure, verify

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2


def _read_graph_file(path: str) -> graphs.Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return io.read_graph(fh.read())


def _write_file(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _parse_parts(text: str) -> tuple[int, ...]:
    try:
        return tuple(io.integer(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"parts must be comma-separated integers, got {text!r}") from None


def _family_spec(args) -> graphs.FamilySpec:
    parts = _parse_parts(args.parts) if args.parts else None
    return graphs.FamilySpec(
        family=args.family,
        n=args.n,
        m=args.m,
        t=args.t,
        parts=parts,
        seed=args.seed if args.seed is not None else 0,
    )


def _cmd_generate(args) -> int:
    g = graphs.generate(_family_spec(args))
    _write_file(args.output, io.write_graph(g))
    print(f"vertices {g.n}")
    print(f"edges {g.m}")
    print(f"file {args.output}")
    return EXIT_OK


def _construct_for_family(args) -> tuple[graphs.Graph, construct.ConstructionReport]:
    for flag in ("method", "input2", "alpha"):
        if getattr(args, flag):
            raise ValueError(f"--{flag} applies only with --input, not with --family")
    spec = _family_spec(args)
    g = graphs.generate(spec)
    ell = args.ell
    family = args.family
    if family == "wheel":
        return g, construct.color_wheel(args.n, ell)
    if family == "hypercube":
        return g, construct.color_hypercube(args.t, ell)
    if family == "complete_bipartite":
        return g, construct.color_complete_bipartite(args.m, args.n, ell)
    if family == "complete_multipartite":
        return g, construct.color_complete_multipartite(_parse_parts(args.parts), ell)
    if family in ("star", "double_star", "random_tree"):
        return g, construct.color_tree(g, ell)
    if family in ("path", "cycle"):
        return g, construct.color_traceable(g, list(range(g.n)), ell)
    if family == "complete":
        coloring = graphs.EdgeColoring({e: 1 for e in g.edges})
        return g, construct.ConstructionReport(coloring, 1, "complete", "complete graph")
    if family == "random_2connected":
        if ell != 2:
            raise ValueError("the 2-connected construction is specific to --ell 2")
        return g, construct.color_2connected(g)
    raise ValueError(f"no constructor for family {family!r}")


def _construct_for_method(args) -> tuple[graphs.Graph, construct.ConstructionReport]:
    if not args.method:
        raise ValueError("--input needs --method")
    method = args.method
    for flag in ("n", "m", "t", "parts", "seed"):
        if getattr(args, flag) is not None:
            raise ValueError(f"--{flag} applies only with --family, not with --input")
    if args.input2 and method not in ("join", "cartesian"):
        raise ValueError(f"--input2 applies only with --method join or cartesian, not {method}")
    if args.alpha and method != "permutation":
        raise ValueError(f"--alpha applies only with --method permutation, not {method}")
    g = _read_graph_file(args.input)
    ell = args.ell
    if method == "traceable":
        path = structure.hamiltonian_path(g)
        if path is None:
            raise ValueError("input graph has no Hamiltonian path")
        return g, construct.color_traceable(g, path, ell)
    if method == "tree":
        return g, construct.color_tree(g, ell)
    if method == "2connected":
        if ell != 2:
            raise ValueError("the 2-connected construction is specific to --ell 2")
        return g, construct.color_2connected(g)
    if method in ("join", "cartesian"):
        if not args.input2:
            raise ValueError(f"--method {method} needs --input2 for the second factor")
        h = _read_graph_file(args.input2)
        if ell != 2:
            raise ValueError(f"the {method} construction is specific to --ell 2")
        if method == "join":
            return graphs.join(g, h), construct.color_join(g, h)
        return graphs.cartesian_product(g, h), construct.color_cartesian(g, h)
    if method == "permutation":
        if not args.alpha:
            raise ValueError("--method permutation needs --alpha (1-indexed images)")
        alpha = graphs.Permutation(_parse_parts(args.alpha))
        path = structure.hamiltonian_path(g)
        if path is None:
            raise ValueError("input graph has no Hamiltonian path")
        pg = graphs.permutation_graph(g, alpha)
        return pg, construct.color_permutation_graph(g, path, alpha, ell)
    raise ValueError(f"unknown method {method!r}")


def _cmd_color(args) -> int:
    if bool(args.family) == bool(args.input):
        raise ValueError("use exactly one of --family or --input")
    if args.family:
        g, report = _construct_for_family(args)
    else:
        g, report = _construct_for_method(args)
    failing = None if report.verified else verify.first_failing_pair(g, report.coloring, args.ell)
    if failing is not None:
        print("verified false")
        print(f"failing_pair {failing[0]} {failing[1]}")
        return EXIT_NEGATIVE
    _write_file(args.output, io.write_coloring(report.coloring, g))
    if args.graph_out:
        _write_file(args.graph_out, io.write_graph(g))
    print(f"vertices {g.n}")
    print(f"edges {g.m}")
    print(f"colors_used {len(report.coloring.used_colors())}")
    print(f"claimed {report.claimed_colors}")
    print("verified true")
    print(f"file {args.output}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    g = _read_graph_file(args.graph)
    with open(args.coloring, "r", encoding="utf-8") as fh:
        coloring = io.read_coloring(fh.read(), g)
    try:
        if args.k == 1:
            failing = verify.first_failing_pair(g, coloring, args.ell, args.time_limit)
        else:
            failing = verify.verify_coloring(
                g, coloring, args.ell, k=args.k, time_limit=args.time_limit
            ).failing_pair
    except verify.VerificationTimeout as err:
        print("inconclusive timeout")
        print(str(err), file=sys.stderr)
        return EXIT_NEGATIVE
    if failing is None:
        print("verified true")
        return EXIT_OK
    print("verified false")
    print(f"failing_pair {failing[0]} {failing[1]}")
    return EXIT_NEGATIVE


def _cmd_exact(args) -> int:
    g = _read_graph_file(args.graph)
    budget = exact.SearchBudget(
        max_colors=args.max_colors,
        time_limit=args.time_limit,
        max_edges=args.max_edges,
    )
    result = exact.min_colors_exact(g, args.ell, budget)
    if isinstance(result, exact.Inconclusive):
        print("inconclusive true")
        print(f"reason {result.reason}")
        exhausted = ",".join(str(t) for t in result.exhausted_levels) or "none"
        print(f"exhausted_levels {exhausted}")
        return EXIT_NEGATIVE
    print(f"min_colors {result.min_colors}")
    print(f"colorings_examined {result.colorings_examined}")
    if args.output:
        _write_file(args.output, io.write_coloring(result.witness, g))
        print(f"file {args.output}")
    return EXIT_OK


# The grid flags each theorem reads: flag -> (default, least value that
# leaves the grid non-empty, or None).  Every other grid flag is a usage
# error with that theorem, as is a bound that leaves its grid empty.
_TABLE_FLAGS = {
    "bipartite": {"max_m": (3, 1), "max_n": (12, 1)},
    "multipartite": {"ell": (2, None), "max_n": (12, 3)},
    "wheel": {"ell": (2, None), "max_n": (12, 3)},
    "cube": {"max_t": (4, 1), "max_ell": (5, 2)},
    "tree": {"ell": (2, None), "max_n": (12, 2), "count": (20, 1), "seed": (0, None)},
}
_GRID_FLAGS = ("ell", "max_n", "max_m", "max_t", "max_ell", "count", "seed")


def _table_grid(args) -> None:
    theorem = args.theorem
    reads = _TABLE_FLAGS[theorem]
    for flag in _GRID_FLAGS:
        if getattr(args, flag) is not None and flag not in reads:
            raise ValueError(f"--{flag.replace('_', '-')} does not apply to --theorem {theorem}")
    for flag, (default, least) in reads.items():
        if getattr(args, flag) is None:
            setattr(args, flag, default)
        value = getattr(args, flag)
        if least is not None and value < least:
            raise ValueError(
                f"{theorem} table requires --{flag.replace('_', '-')} >= {least}, got {value}"
            )


def _exact_cell(
    g: graphs.Graph,
    ell: int,
    exact_edges: int,
    budget: exact.SearchBudget,
    witness: Optional[graphs.EdgeColoring],
) -> str:
    """pc_{1,ell}(g), "inconclusive" or "skipped".  ``witness`` is the
    row's coloring if it verified, else None.  A witness with c >= 2
    colors bounds the minimum from above, so the cell only has to prove
    that no coloring with c - 1 colors is valid (``prove_lower_bound``,
    which mostly ends at the level bound); if one is, or there is no such
    witness, the cell runs the full exact search."""
    if g.m > exact_edges:
        return "skipped"
    colors = len(witness.used_colors()) if witness is not None else 0
    if colors >= 2:
        proof = exact.prove_lower_bound(g, ell, colors - 1, budget)
        if proof is True:
            return str(colors)
        if isinstance(proof, exact.Inconclusive):
            return "inconclusive"
    result = exact.min_colors_exact(g, ell, budget)
    if isinstance(result, exact.Inconclusive):
        return "inconclusive"
    return str(result.min_colors)


def _table_rows(args):
    theorem = args.theorem
    if theorem == "bipartite":
        for m in range(1, args.max_m + 1):
            for n in range(m, args.max_n + 1):
                g = graphs.complete_bipartite_graph(m, n)
                for ell in (2, 3):
                    report = construct.color_complete_bipartite(m, n, ell)
                    yield f"m={m};n={n}", ell, g, report
    elif theorem == "multipartite":
        for t in (3, 4):
            for total in range(t, args.max_n + 1):
                for parts in _sorted_partitions(total, t):
                    g = graphs.complete_multipartite_graph(parts)
                    report = construct.color_complete_multipartite(parts, args.ell)
                    name = "+".join(str(p) for p in parts)
                    yield f"parts={name}", args.ell, g, report
    elif theorem == "wheel":
        for n in range(3, args.max_n + 1):
            g = graphs.wheel_graph(n)
            report = construct.color_wheel(n, args.ell)
            yield f"n={n}", args.ell, g, report
    elif theorem == "cube":
        for t in range(1, args.max_t + 1):
            g = graphs.hypercube_graph(t)
            for ell in range(2, args.max_ell + 1):
                report = construct.color_hypercube(t, ell)
                yield f"t={t}", ell, g, report
    elif theorem == "tree":
        for i in range(args.count):
            n = 2 + (i * 7 + args.seed) % (args.max_n - 1)
            g = graphs.random_tree(n, seed=args.seed + i)
            report = construct.color_tree(g, args.ell)
            yield f"tree#{i};n={n}", args.ell, g, report
    else:
        raise ValueError(f"unknown theorem {theorem!r}")


def _sorted_partitions(total: int, parts: int, minimum: int = 1):
    if parts == 1:
        yield (total,)
        return
    for first in range(minimum, total // parts + 1):
        for rest in _sorted_partitions(total - first, parts - 1, first):
            yield (first,) + rest


def _cmd_table(args) -> int:
    _table_grid(args)
    if args.exact_edges < 0:
        raise ValueError(f"--exact-edges must be >= 0, got {args.exact_edges}")
    # Built before the sweep, so a bad --time-limit is an error even when no
    # cell reaches the exact search.  A budget allows at least one edge;
    # --exact-edges 0 skips every cell before the budget is read.
    budget = exact.SearchBudget(time_limit=args.time_limit, max_edges=max(args.exact_edges, 1))
    rows = []
    any_fail = False
    for params, ell, g, report in _table_rows(args):
        verified = verify.first_failing_pair(g, report.coloring, ell) is None
        witness = report.coloring if verified else None
        exact_cell = _exact_cell(g, ell, args.exact_edges, budget, witness)
        status = "ok"
        if not verified:
            status = "fail"
        elif exact_cell.isdigit() and int(exact_cell) != report.claimed_colors:
            status = "mismatch"
        any_fail = any_fail or status != "ok"
        rows.append(
            {
                "params": params,
                "ell": ell,
                "claimed": report.claimed_colors,
                "verified": str(verified).lower(),
                "exact_lower_bound": exact_cell,
                "status": status,
            }
        )
    fieldnames = ["params", "ell", "claimed", "verified", "exact_lower_bound", "status"]
    with open(args.output, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    print(f"rows {len(rows)}")
    print(f"file {args.output}")
    return EXIT_NEGATIVE if any_fail else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """Return a new parser for the `pcc` command line on every call."""
    parser = argparse.ArgumentParser(
        prog="pcc",
        description="Construct, verify, and exactly compute distance-window "
        "proper-path colorings of graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a family graph as an edge list")
    p_gen.add_argument("--family", required=True, choices=graphs.FAMILIES)
    p_gen.add_argument("--n", type=io.integer)
    p_gen.add_argument("--m", type=io.integer)
    p_gen.add_argument("--t", type=io.integer)
    p_gen.add_argument("--parts", help="comma-separated part sizes")
    p_gen.add_argument("--seed", type=io.integer)
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.set_defaults(func=_cmd_generate)

    p_col = sub.add_parser("color", help="construct a coloring and verify it")
    p_col.add_argument("--family", choices=graphs.FAMILIES)
    p_col.add_argument("--n", type=io.integer)
    p_col.add_argument("--m", type=io.integer)
    p_col.add_argument("--t", type=io.integer)
    p_col.add_argument("--parts")
    p_col.add_argument("--seed", type=io.integer)
    p_col.add_argument("--input", help="edge-list file for method-based coloring")
    p_col.add_argument("--input2", help="second factor for join/cartesian")
    p_col.add_argument("--alpha", help="1-indexed permutation images for --method permutation")
    p_col.add_argument(
        "--method",
        choices=("traceable", "tree", "2connected", "join", "cartesian", "permutation"),
    )
    p_col.add_argument("--ell", type=io.integer, required=True)
    p_col.add_argument("-o", "--output", required=True)
    p_col.add_argument("--graph-out", help="also write the colored graph's edge list")
    p_col.set_defaults(func=_cmd_color)

    p_ver = sub.add_parser("verify", help="check a coloring file against a graph")
    p_ver.add_argument("--graph", required=True)
    p_ver.add_argument("--coloring", required=True)
    p_ver.add_argument("--ell", type=io.integer, required=True)
    p_ver.add_argument("--k", type=io.integer, default=1)
    p_ver.add_argument(
        "--time-limit",
        type=float,
        help="seconds for the whole check, shared by all of its path searches; "
        "running out prints 'inconclusive timeout'",
    )
    p_ver.set_defaults(func=_cmd_verify)

    p_ex = sub.add_parser(
        "exact",
        help="exact minimum color count: each smaller count is proved impossible "
        "by exhaustive search or by a lower bound from distances, bridges, "
        "twin vertices and unique common neighbours",
    )
    p_ex.add_argument("--graph", required=True)
    p_ex.add_argument("--ell", type=io.integer, required=True)
    p_ex.add_argument("--max-colors", type=io.integer)
    p_ex.add_argument("--time-limit", type=float, default=60.0)
    p_ex.add_argument("--max-edges", type=io.integer, default=exact.SearchBudget().max_edges)
    p_ex.add_argument("-o", "--output")
    p_ex.set_defaults(func=_cmd_exact)

    p_tab = sub.add_parser(
        "table",
        help="sweep a family grid and emit CSV",
        description="Sweep a family grid, verify each row's constructor coloring "
        "and emit CSV.  A row whose coloring verifies with c >= 2 colors gets its "
        "exact value by proving that c - 1 colors do not suffice; any other row, "
        "or one whose proof finds a valid coloring with fewer colors, gets the "
        "full exact search.",
    )
    p_tab.add_argument("--theorem", required=True, choices=tuple(_TABLE_FLAGS))
    # No defaults here: _table_grid tells an omitted grid flag from one
    # given, and fills in the defaults of the flags the theorem reads.
    for flag in _GRID_FLAGS:
        p_tab.add_argument("--" + flag.replace("_", "-"), type=io.integer)
    p_tab.add_argument(
        "--exact-edges",
        type=io.integer,
        default=10,
        help="largest edge count whose row gets an exact value; 0 skips every row",
    )
    p_tab.add_argument("--time-limit", type=float, default=60.0)
    p_tab.add_argument("-o", "--output", required=True)
    p_tab.set_defaults(func=_cmd_table)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser that every `main` call in this process shares, built on
    the first call.  Sharing it is safe because nothing changes it after
    it is built: no handler sets defaults or adds arguments, no argument
    has a mutable default or appends, and argparse reads the terminal
    width only when it formats help."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (io.ParseError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except graphs.InvariantViolation as err:
        print(f"construction failed: {err}", file=sys.stderr)
        return EXIT_NEGATIVE


if __name__ == "__main__":
    sys.exit(main())
