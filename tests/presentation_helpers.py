"""Presentations whose relator-generator pattern has edge cases for the
LM search: an empty relator, whose four rows of the Jacobian are zero,
a generator in no relator, whose three columns are zero, and a free
product of three factors, whose J J^T is block diagonal with blocks of
different sizes.  The empty relator and the free generator come first,
so that the envelopes of the later rows of the normal matrix begin
after them."""

from blowupgate.links import BraidWord, Presentation, from_braid, wirtinger
from blowupgate.repvar import free_product, surface_presentation

EDGE_GROUPS = {
    # 8 relator entries, 9 parameters: the step factors J J^T
    "empty_relator": Presentation(("a", "b", "c"),
                                  ((), (1, 2, 3, -1, -2, -3))),
    # surface1 x S^1 and a free generator w: the step factors J^T J
    "unused_generator": Presentation(
        ("w", "a", "b", "z"),
        ((2, 3, -2, -3), (4, 2, -4, -2), (4, 3, -4, -3))),
    "surface1*trefoil*surface1": free_product(
        free_product(surface_presentation(1),
                     wirtinger(from_braid(BraidWord(2, (1, 1, 1))))),
        surface_presentation(1)),
}
