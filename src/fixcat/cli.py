"""Command line front end.

Commands: star, laws, lambek, wtype, mtype, bisim, dinat-product, compare.
Exit codes: 0 success (laws pass), 1 law violation or counterexample,
2 input/config error.  All randomness comes from --seed (default 0),
echoed in the output of the commands that use it.
"""

import argparse
import os
import sys

from . import (algebra, cat, corpora, laws, models, poly, poset, rel,
               serialize)
from .errors import (FixcatError, NoProducts, NotContractible, SchemaError,
                     sort_key)

LIST_THRESHOLD = 24


def cmd_star(args):
    entry = models.REGISTRY[args.model]
    f = serialize.load_document(args.input, kind=entry.kind)
    if args.model == "cat":
        chain = algebra.lambek_chain(f)
        if args.trace:
            print("trace: " + " -> ".join(str(x) for x in chain.objects))
        if not chain.stabilized:
            print(chain.cycle_report())
            return 2
        print(f"fix: carrier {chain.carrier}, structure {chain.structure} "
              f"(stabilized at index {chain.index})")
        return 0
    star = entry.make().star(f)
    if args.model == "poset":
        if args.trace:
            print("trace: " + " -> ".join(str(x) for x in poset.iterates(f)))
        print(f"fix: {star.assignment['*']}")
        return 0
    if args.trace and args.model == "rel":
        ts = rel.tree_star(f, len(f.target) + 1)
        sizes = ", ".join(str(len(s)) for s in ts.stages)
        print(f"trace: stage sizes {sizes}")
    elif args.trace:
        full = sorted(rel.scott_star_set(f), key=sort_key)
        print("trace: closure " + "{" + ", ".join(map(str, full)) + "}")
    derivable = sorted((b for (_, b) in star.pairs), key=sort_key)
    print("star: {" + ", ".join(str(b) for b in derivable) + "}")
    return 0


def cmd_laws(args):
    cfg = serialize.load_document(args.config, kind="suite-config")
    if not cfg.models:
        raise SchemaError("suite-config: empty model list, nothing to check")
    seed = cfg.seed if args.seed is None else args.seed
    corpora.check_draws(cfg.draws)
    base = os.path.dirname(os.path.abspath(args.config))
    tables = [serialize.load_document(os.path.join(base, ref),
                                      validate=False, kind="category")
              for ref in cfg.categories]
    print(f"seed: {seed}")

    broken_tables = 0
    for c in tables:
        problems = cat.validate_category(c)
        for p in problems:
            print(f"category {c.name}: {p}")
        if problems:
            broken_tables += 1
        else:
            print(f"category {c.name}: table valid")

    # one corpus at a time: each is built as run_suite reaches it
    entries = [models.REGISTRY[spec] for spec in cfg.models]
    jobs = ((e.make(), e.corpus(cfg.draws, seed)) for e in entries)
    reports = laws.run_suite(jobs, seed=seed)
    for r in reports:
        print(r.line())
    failures = [r for r in reports if r.failed]
    if failures:
        first = failures[0]
        print(f"first counterexample: {first.law_id}: {first.counterexample}")
        return 1
    if broken_tables:
        print(f"{broken_tables} corrupted category table(s)")
        return 1
    return 0


def cmd_lambek(args):
    f = serialize.load_document(args.input, kind="functor")
    chain = algebra.lambek_chain(f)
    for k, obj in enumerate(chain.objects):
        arrow = (f" --{chain.connectors[k]}-->"
                 if k < len(chain.connectors) else "")
        print(f"stage {k}: {obj}{arrow}")
    if chain.stabilized:
        print(f"stabilized at index {chain.index}; carrier {chain.carrier}; "
              f"structure {chain.structure}")
    else:
        print(chain.cycle_report())
    return 0


def cmd_wtype(args):
    """Print the chain's stage sizes from the counting pass, then the last
    stage's trees.  Trees are built only to list them: with --list, or
    when the last stage holds at most LIST_THRESHOLD of them."""
    p = serialize.load_document(args.input, kind="polynomial")
    counts = poly.wtype_counts(p, args.depth)
    print("counts: " + ", ".join(map(str, counts)))
    stable_at = poly.fixed_depth(counts)
    if stable_at is not None:
        print(f"stabilized at depth {stable_at}; {counts[stable_at]} "
              f"elements")
    else:
        print(f"not stabilized at depth {args.depth}")
    if counts[-1] <= LIST_THRESHOLD or args.list:
        for t in sorted(poly.wtype_stages(p, args.depth)[-1], key=repr):
            print(f"  {t}")
    else:
        print(f"  ({counts[-1]} elements; use --list to print them)")
    return 0


def cmd_mtype(args):
    c = serialize.load_document(args.input, kind="coalgebra-system")
    lines = [f"{x}: {_text(poly.mtype_unfold(c, x, args.depth))}"
             for x in sorted(c.states, key=str)]
    print("\n".join(lines))
    return 0


def _text(tree):
    """str(tree) of nested tuples, written with an explicit stack: an
    unfolding nests deeper than str's recursion allows."""
    if type(tree) is not tuple:
        return str(tree)
    out, todo = [], [(False, tree)]
    while todo:
        text, t = todo.pop()
        if text:
            out.append(t)
        elif type(t) is tuple:
            todo.append((True, ",)" if len(t) == 1 else ")"))
            for i in reversed(range(len(t))):
                todo.append((False, t[i]))
                if i:
                    todo.append((True, ", "))
            todo.append((True, "("))
        else:
            out.append(repr(t))
    return "".join(out)


def cmd_bisim(args):
    c1 = serialize.load_document(args.first, kind="coalgebra-system")
    c2 = serialize.load_document(args.second, kind="coalgebra-system")
    classes1, classes2 = poly.bisimulation_classes(c1, c2)
    all_pairs = True
    for x1 in sorted(c1.states, key=str):
        for x2 in sorted(c2.states, key=str):
            ok = classes1[x1] == classes2[x2]
            all_pairs = all_pairs and ok
            print(f"{x1} {'~' if ok else '!~'} {x2}")
    print("bisimilar" if all_pairs else "not bisimilar")
    return 0


def cmd_dinat_product(args):
    entry = models.REGISTRY[args.model]
    m = entry.make()
    if not m.has_products():
        raise NoProducts(f"model {args.model} does not support products")
    f = serialize.load_document(args.f, kind=entry.kind)
    g = serialize.load_document(args.g, kind=entry.kind)
    left, right = laws.product_route(m, f, g)
    gf_star = m.star(m.compose(g, f))
    fg_star = m.star(m.compose(f, g))
    print(f"(gf)*:    {m.describe1(gf_star)}")
    print(f"pi1(h*):  {m.describe1(left)}")
    print(f"(fg)*:    {m.describe1(fg_star)}")
    print(f"pi2(h*):  {m.describe1(right)}")
    agree = m.eq1(left, gf_star) and m.eq1(right, fg_star)
    print(f"agreement: {'yes' if agree else 'NO'}")
    return 0 if agree else 1


def cmd_compare(args):
    entry = models.REGISTRY[args.model]
    if entry.second is None:
        raise SchemaError(f"no second operator shipped for model "
                          f"{args.model!r}")
    m1, m2 = entry.make(), entry.second()
    corpus = entry.cells(args.draws, args.seed)
    print(f"seed: {args.seed}")
    report = laws.compare_operators(m1, m2, corpus.endos,
                                    pairs=corpus.dinat_pairs,
                                    symmetry=corpus.symmetry)
    n = report.instances
    print(f"operators: {report.base}")
    print(f"instances: {n}")
    print(f"identity: {'yes' if n else 'NO'}")
    print(f"certificate: each of {n} components unique among {n} "
          f"invertible candidates searched")
    return 0 if n else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fixcat",
        description="Fixpoint operators in finite models, with checked laws.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("star", help="iterate an endo-1-cell to its fixpoint")
    p.add_argument("input")
    p.add_argument("--model", required=True, choices=models.FAMILIES)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(fn=cmd_star)

    p = sub.add_parser("laws", help="run the law suite from a config file")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_laws)

    p = sub.add_parser("lambek", help="print the initial-algebra chain")
    p.add_argument("input")
    p.set_defaults(fn=cmd_lambek)

    p = sub.add_parser("wtype", help="enumerate tree stages of a polynomial")
    p.add_argument("input")
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--list", action="store_true")
    p.set_defaults(fn=cmd_wtype)

    p = sub.add_parser("mtype", help="unfold a coalgebra system")
    p.add_argument("input")
    p.add_argument("--depth", type=int, default=4)
    p.set_defaults(fn=cmd_mtype)

    p = sub.add_parser("bisim", help="decide bisimilarity between systems")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(fn=cmd_bisim)

    p = sub.add_parser("dinat-product",
                       help="check the product-route dinaturality identity")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--model", required=True,
                   choices=models.FAMILIES)
    p.set_defaults(fn=cmd_dinat_product)

    p = sub.add_parser("compare", help="compare two fixpoint operators")
    p.add_argument("--model", required=True,
                   choices=models.FAMILIES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--draws", type=int, default=40)
    p.set_defaults(fn=cmd_compare)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except NotContractible as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except FixcatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
