"""The four workloads: inputs made from the seed, one timed pass each, and
the known answers every pass is checked against.

Each workload is a closed loop with one client: one pass runs to its final
verdict before the next starts, in this one process.  A pass calls the
user-facing entry points (`fixcat.cli.main`, or `laws.run_suite` where the
CLI has no path) and returns a PassResult; `wrong` lists every verdict
that differs from the known answer.
"""

import contextlib
import io
import json
import os
import random
import re
import string
from dataclasses import dataclass, field

import known

SUITE_MODELS = ("poset", "rel", "scott", "cat")
SUITE_DRAWS = 12                      # as in sample_inputs/suite_small.json
COMPARE_DRAWS = 1000
COMPARE_MODELS = ("rel", "poset")
WTYPE_ARITIES = (0, 1, 2)             # last stage: 33,673 trees at depth 5
WTYPE_DEPTH = 5
RANDOM_DRAWS = 240                    # per channel and model on suite-random
RANDOM_MODELS = ("poset", "rel", "scott")

# model spec -> the name its law reports carry
REPORT_NAME = {"poset": "poset[kleene]", "rel": "rel[closure]",
               "scott": "scott", "cat": "cat", "poset:broken": "poset[broken]"}
SECOND_OPERATOR = {"rel": "rel[tree]", "poset": "poset[bifree]"}

LAW_LINE = re.compile(r"^\[(pass|FAIL|VACUOUS)\] (\S+?)/(\S+): (\d+)/(\d+)(.*)$")


@dataclass
class PassResult:
    text: str = ""
    items: int = 0          # instances decided, or trees built on wtype
    failed: int = 0         # instances whose check raised an error
    wrong: list = field(default_factory=list)


def call_cli(argv):
    """Run `fixcat <argv>` in this process; returns the exit code and
    everything printed, stdout then stderr."""
    from fixcat import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue() + err.getvalue()


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def check_law_lines(res, text, models, draws, must_pass=True):
    """Check `[status] model/law: passes/instances` lines against the
    closed-form channel sizes and, with must_pass, that every law passed.
    Adds the decided instances to res.items."""
    seen = {}
    for line in text.splitlines():
        m = LAW_LINE.match(line)
        if m:
            status, model, law, passes, inst, rest = m.groups()
            seen[(model, law)] = (status, int(passes), int(inst), rest)
    for spec in models:
        name = REPORT_NAME[spec]
        want = known.law_counts(known.corpus_channels(spec, draws))
        for law, n in want.items():
            got = seen.pop((name, law), None)
            if got is None:
                res.wrong.append(f"{name}/{law}: no verdict")
                continue
            status, passes, inst, rest = got
            res.items += inst
            if inst != n:
                res.wrong.append(f"{name}/{law}: {inst} instances, want {n}")
            if must_pass and (status != "pass" or passes != inst):
                res.wrong.append(f"{name}/{law}: {status} {passes}/{inst}")
            if must_pass and "<error>" in rest:
                res.failed += inst - passes
    for (name, law) in seen:
        res.wrong.append(f"{name}/{law}: unexpected verdict")


class SuiteExhaustive:
    name = "suite-exhaustive"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.small = os.path.join(workdir, "suite_small.json")
        self.broken = os.path.join(workdir, "suite_broken.json")
        _write_json(self.small, {"kind": "suite-config", "seed": seed,
                                 "models": list(SUITE_MODELS),
                                 "draws": SUITE_DRAWS})
        _write_json(self.broken, {"kind": "suite-config", "seed": seed,
                                  "models": ["poset:broken"], "draws": 0})
        self.documents = [self.small, self.broken]

    def run_pass(self, tracer=None):
        res = PassResult()
        rc, text = call_cli(["laws", self.small])
        rc2, text2 = call_cli(["laws", self.broken])
        res.text = text + text2
        if rc != 0:
            res.wrong.append(f"laws {self.small}: exit {rc}, want 0")
        if rc2 != 1:
            res.wrong.append(f"laws {self.broken}: exit {rc2}, want 1")
        for out in (text, text2):
            if not out.startswith(f"seed: {self.seed}\n"):
                res.wrong.append("seed not echoed")
        check_law_lines(res, text, SUITE_MODELS, SUITE_DRAWS)
        # the broken adapter's star is a top element, which fix.cell rejects;
        # other laws of the negative control may fail too and are not judged
        check_law_lines(res, text2, ["poset:broken"], 0, must_pass=False)
        if not re.search(r"^\[FAIL\] poset\[broken\]/fix\.cell: ", text2, re.M):
            res.wrong.append("poset[broken]/fix.cell: negative control not caught")
        return res


class Compare:
    name = "compare"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.documents = []

    def run_pass(self, tracer=None):
        res = PassResult()
        for model in COMPARE_MODELS:
            rc, text = call_cli(["compare", "--model", model, "--draws",
                                 str(COMPARE_DRAWS), "--seed", str(self.seed)])
            res.text += text
            n = known.corpus_channels(model, COMPARE_DRAWS)["endos"]
            want = (f"seed: {self.seed}\n"
                    f"operators: {REPORT_NAME[model]}|{SECOND_OPERATOR[model]}\n"
                    f"instances: {n}\n"
                    f"identity: yes\n"
                    f"certificate: each of {n} components unique among {n} "
                    f"invertible candidates searched\n")
            if rc == 2:
                res.failed += n
            if rc != 0 or text != want:
                res.wrong.append(f"compare --model {model}: exit {rc}, "
                                 f"output {text!r}")
            else:
                res.items += n
        return res


def constructor_names(seed, count):
    """Distinct lowercase names for the polynomial's constructors.  They
    all have one length, so tree reprs, and memory, do not vary by seed."""
    rng = random.Random(seed)
    names = []
    while len(names) < count:
        name = "".join(rng.choice(string.ascii_lowercase) for _ in range(5))
        if name not in names:
            names.append(name)
    return names


class WType:
    name = "wtype"

    def __init__(self, seed, workdir):
        names = constructor_names(seed, len(WTYPE_ARITIES))
        slots = [[b, k] for b, ar in zip(names, WTYPE_ARITIES) for k in range(ar)]
        self.path = os.path.join(workdir, "poly.json")
        _write_json(self.path, {
            "kind": "polynomial", "name": "w", "inputs": ["*"],
            "outputs": ["*"], "constructors": names, "slots": slots,
            "slot_input": [[s, "*"] for s in slots],
            "slot_constructor": [[s, s[0]] for s in slots],
            "constructor_output": [[b, "*"] for b in names]})
        self.documents = [self.path]
        self.counts = known.wtype_counts(WTYPE_ARITIES, WTYPE_DEPTH)

    def run_pass(self, tracer=None):
        from fixcat import poly, serialize
        res = PassResult()
        counts = self.counts
        rc, text = call_cli(["wtype", self.path, "--depth", str(WTYPE_DEPTH)])
        want = ("counts: " + ", ".join(map(str, counts)) + "\n"
                f"not stabilized at depth {WTYPE_DEPTH}\n"
                f"  ({counts[-1]} elements; use --list to print them)\n")
        if rc != 0 or text != want:
            res.wrong.append(f"wtype: exit {rc}, output {text!r}")
        else:
            res.items += sum(counts)
        p = serialize.load_document(self.path)
        trees, stabilized = poly.wtype_enumerate(p, WTYPE_DEPTH - 1)
        res.text = text + f"enumerate: {len(trees)} {stabilized}\n"
        if (len(trees) != counts[-2] or len(set(trees)) != len(trees)
                or stabilized):
            res.wrong.append(f"wtype_enumerate: {len(trees)} trees, "
                             f"stabilized={stabilized}")
        else:
            # the stages below depth-1 plus the probe's stage
            res.items += sum(counts[:-1]) + counts[-1]
        return res


class SuiteRandom:
    """Law suite on corpora made only of seeded random instances of size
    4-5, built from corpora's public random and square helpers."""

    name = "suite-random"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.documents = []

    def _kits(self):
        from fixcat import corpora, poset, rel
        return {
            "poset": dict(obj=corpora.random_pointed_poset,
                          map=corpora.random_monotone_map,
                          conj=lambda rng, f, tag:
                              corpora.poset_conjugation_square(f, tag),
                          closure=corpora.poset_closure_square,
                          identity=poset.identity_map,
                          compose=poset.compose_maps),
            "rel": dict(obj=lambda rng, n, name:
                            corpora.rel_carrier(n, name + "_"),
                        map=corpora.random_mrel,
                        conj=lambda rng, f, tag:
                            corpora.rel_conjugation_square(rng, f, tag),
                        closure=corpora.rel_closure_square,
                        identity=rel.mrel_identity,
                        compose=rel.mrel_compose),
            "scott": dict(obj=corpora.random_preorder,
                          map=corpora.random_ideal_rel,
                          conj=lambda rng, f, tag:
                              corpora.scott_conjugation_square(f, tag),
                          closure=corpora.scott_closure_square,
                          identity=rel.scott_identity,
                          compose=rel.scott_compose),
        }

    def build_corpus(self, kit, rng, n):
        from fixcat.laws import Corpus, ThinCell
        obj, mp, conj = kit["obj"], kit["map"], kit["conj"]
        ident, comp = kit["identity"], kit["compose"]
        c = Corpus()

        def new(i, tag):
            return obj(rng, 4 + i % 2, f"{tag}{i}")

        for i in range(n):
            a = new(i, "E")
            f = mp(rng, a, a)
            c.endos.append(f)
            c.endo_cells.append(ThinCell(f, f))
        for i in range(n):
            a, b = new(i, "Pa"), new(i + 1, "Pb")
            c.dinat_pairs.append((mp(rng, a, b), mp(rng, b, a)))
        for i in range(n):
            a, b, d = new(i, "Ta"), new(i + 1, "Tb"), new(i, "Tc")
            c.dinat_triples.append((mp(rng, a, b), mp(rng, b, d), mp(rng, d, a)))
        c.dinat_cells = [(ThinCell(f, f), g) for (f, g) in c.dinat_pairs]
        for i in range(n):
            a = new(i, "S")
            g = mp(rng, a, a)
            c.unif_squares.append(conj(rng, g, f"c{i}_") if i % 2 == 0
                                  else kit["closure"](g))
        for i in range(n):
            a = new(i, "K")
            first = conj(rng, mp(rng, a, a), f"k{i}_")
            # the second square starts from the first one's conjugate
            c.unif_stacks.append((first, conj(rng, first[2], f"kk{i}_")))
        for (s, f, g, gamma) in c.unif_squares:
            c.unif_thetas.append((ThinCell(s, s), f, g, gamma, gamma))
            c.unif_transports.append((s, ThinCell(f, f), ThinCell(g, g),
                                      gamma, gamma))
        for (f, g) in c.dinat_pairs:
            ida, idb = ident(f.source), ident(f.target)
            c.unif_dinat.append(
                (ida, idb, f, g, f, g,
                 ThinCell(comp(idb, f), comp(f, ida)),
                 ThinCell(comp(ida, g), comp(g, idb))))
        return c

    def run_pass(self, tracer=None):
        from fixcat import laws, models
        res = PassResult()
        rng = random.Random(self.seed)
        kits = self._kits()
        adapters = {"poset": models.PosetModel("kleene"),
                    "rel": models.RelModel("closure"),
                    "scott": models.ScottModel()}
        jobs = []
        for model in RANDOM_MODELS:
            if tracer is None:
                corpus = self.build_corpus(kits[model], rng, RANDOM_DRAWS)
            else:
                corpus = tracer.span(f"corpora.random_{model}_corpus",
                                     self.build_corpus, kits[model], rng,
                                     RANDOM_DRAWS)
                tracer.record_corpus(model, corpus)
            jobs.append((adapters[model], corpus))
        reports = laws.run_suite(jobs, seed=self.seed)
        res.text = "".join(r.line() + "\n" for r in reports)
        # build_corpus puts RANDOM_DRAWS instances in every channel
        expected = {f"{REPORT_NAME[m]}/{law}"
                    for m in RANDOM_MODELS for law in known.LAW_CHANNEL}
        for r in reports:
            res.items += r.instances
            if r.law_id not in expected:
                res.wrong.append(f"{r.law_id}: unexpected verdict")
            expected.discard(r.law_id)
            if r.instances != RANDOM_DRAWS:
                res.wrong.append(f"{r.law_id}: {r.instances} instances, "
                                 f"want {RANDOM_DRAWS}")
            if r.failed or r.vacuous:
                res.wrong.append(r.line())
                if r.counterexample and r.counterexample["left"] == "<error>":
                    res.failed += r.instances - r.passes
        res.wrong += [f"{law_id}: no verdict" for law_id in sorted(expected)]
        return res


WORKLOADS = {w.name: w for w in (SuiteExhaustive, SuiteRandom, Compare, WType)}
