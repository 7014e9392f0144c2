"""Mutant adapters, inputs with no fixpoint, and the fixpoint reference the
mutants and the tests pick from."""

from fixcat import rel
from fixcat.cat import FunctorData
from fixcat.corpora import IDEM
from fixcat.models import PosetModel, RelModel

# F(u) = F(p) = p: the Lambek chain's connectors u, p, p repeat p, which has
# no inverse, so the chain cycles from step 1 with period 1
F_STUCK = FunctorData(IDEM, IDEM, {"0": "w", "w": "w"},
                      {"id_0": "id_w", "u": "p", "p": "p", "id_w": "id_w"},
                      name="stuck")


def all_fixpoints(f):
    """Every fixpoint of the monotone endomap f, in carrier order."""
    return [x for x in f.source.elements if f.assignment[x] == x]


class GreatestRelModel(RelModel):
    """Mutant: star picks the greatest fixpoint of an endo-relation, the
    one-step operator iterated down from the full target.  It runs the same
    `star` and `compose` code as `RelModel`, under the same table keys, so a
    table shared with a `RelModel` would hand one adapter the other's
    stars."""

    def __init__(self):
        super().__init__("closure")
        self.name = "rel[greatest]"

    def _lfp(self, f):
        alive = set(f.target)
        while True:
            keep = {b for (m, b) in f.pairs if rel.mset_support(m) <= alive}
            if keep == alive:
                break
            alive = keep
        return rel.MultisetRel(rel.EMPTY_CARRIER, f.target,
                               {(rel.EMPTY_MSET, b) for b in alive},
                               name=f"{f.name}*", _validate=False)


class LastFixpointPosetModel(PosetModel):
    """Mutant: star picks the last fixpoint in `repr` order.  Each pick is
    a fixpoint, so f.f* = f* holds at every endo, and the operator fails
    only where fixpoints of different endos must fit together, such as
    dinaturality's (fg)* = f.(gf)*."""

    def __init__(self):
        super().__init__("kleene")
        self.name = "poset[last]"

    def _lfp(self, f):
        return max(all_fixpoints(f), key=repr)


class NamedRelModel(GreatestRelModel):
    """Mutant: star reads carrier names.  It picks the greatest fixpoint of
    an endo that derives the element named r0 from r0 alone, and the
    least fixpoint of every other endo.  Each pick is a fixpoint, so
    f.f* = f* holds everywhere; but relabelling r0 changes the pick, so
    the star does not commute with relabelling, verdicts differ inside
    a relabelling orbit, and dinaturality fails at some pairs only."""

    def __init__(self):
        super().__init__()
        self.name = "rel[named]"

    def _lfp(self, f):
        if ((("r0", 1),), "r0") in f.pairs:
            return super()._lfp(f)
        return rel.mrel_star(f)
