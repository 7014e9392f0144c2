"""Mutant adapters and inputs with no fixpoint, shared by the tests."""

from fixcat import poset, rel
from fixcat.cat import FunctorData
from fixcat.corpora import IDEM
from fixcat.models import PosetModel, RelModel

# F(u) = F(p) = p: the Lambek chain's connectors u, p, p repeat p, which has
# no inverse, so the chain cycles from step 1 with period 1
F_STUCK = FunctorData(IDEM, IDEM, {"0": "w", "w": "w"},
                      {"id_0": "id_w", "u": "p", "p": "p", "id_w": "id_w"},
                      name="stuck")


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
        return max(poset.all_fixpoints(f), key=repr)
