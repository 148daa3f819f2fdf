"""Cylinder arcs and cylinder weights of a Markov partition, one point at a time.

A cylinder [w] is the arc of points whose itinerary starts with the word w.
It is found by pulling the base arc of the last letter back through the
inverse branches of the earlier letters, one scalar `lift_inverse` call per
letter and endpoint. The cylinder counts of the coded counting tree, the
conformal masses of the collocation operator and those of the shift's depth-k
tables are checked against these.
"""

from innerdyn.blaschke import circle_abs_deriv, lift_inverse
from innerdyn.circle import TWO_PI, Arc, as_angle, wrap_angle


def _branch_pull(P, letter, tau):
    """Inverse branch into arc `letter`, in the lifted coordinate [p, p+2pi].

    The lift inverse shifted by turns + letter - 1 whole turns maps the
    lifted circle [p, p+2pi] increasingly onto [cuts[letter-1], cuts[letter]];
    endpoints go to endpoints.
    """
    return float(lift_inverse(P.map, tau + TWO_PI * (P.turns + letter - 1)))


def cylinder_arc(P, w):
    """The arc of points whose itinerary starts with w.

    Diameters shrink geometrically because the map is uniformly expanding on
    the circle.
    """
    if len(w) == 0:
        raise ValueError("word must be nonempty")
    for a in w:
        if not 1 <= a <= P.degree:
            raise ValueError(f"letter {a} outside 1..{P.degree}")
    lo, hi = float(P.cuts[w[-1] - 1]), float(P.cuts[w[-1]])
    for letter in reversed(w[:-1]):
        lo, hi = _branch_pull(P, letter, lo), _branch_pull(P, letter, hi)
    return Arc(wrap_angle(lo), hi - lo)


def backward_chain(P, w, target):
    """The lifted y in [w] with F^{|w|}(y) = target, and |(F^{|w|})'(y)|.

    The derivative is the product of |F'| over the points of the chain.
    """
    cur = float(P.lift(as_angle(target)))
    deriv = 1.0
    for letter in reversed(w):
        cur = _branch_pull(P, letter, cur)
        deriv *= float(circle_abs_deriv(P.map, cur))
    return cur, deriv


def cylinder_weight(P, w, target):
    """1 / |(F^{|w|})'(y)| at the cylinder's preimage y of the target angle."""
    return 1.0 / backward_chain(P, w, target)[1]
