"""Direct evaluation of the augmented local functional of an inversion
adapter, the oracle against which the closed-form local minimizers are
checked.  Everything is evaluated on the box nodes of box i."""

import numpy as np

from ddinverse import fem
from ddinverse.dd import total_component


def local_surrogate(prob, i, components, trace, anchor, config) -> float:
    """The augmented local functional of box i at `components`, anchored at
    `anchor`, with inner-boundary values `trace`."""
    ops = prob.ops
    nodes = ops.locals[i].nodes
    tot = total_component(components)[nodes]
    diff = (components[i] - anchor)[nodes]
    u = ops.forward_boxes([i], [tot], [trace])[0]
    ud = ops.forward_boxes([i], [diff])[0]
    d = u - prob.z[..., nodes]
    if prob.kind == "flux":
        b0, b1 = ops.bmass0_loc[i], ops.bmass1_loc[i]
        return (fem.inner_product(d, d, b0)
                + config.beta * fem.inner_product(tot, tot, b1)
                + config.A * fem.inner_product(diff, diff, b1)
                - fem.inner_product(ud, ud, b0))
    w = ops.lumped[nodes]
    if prob.kind == "source":
        misfit = fem.inner_product(d, d, w)
        propagated = fem.inner_product(ud, ud, w)
        scale = 1.0
    else:
        wk = ops.grid.weights()
        misfit = float(np.einsum("k,kn,n,kn->", wk, d, w, d))
        propagated = float(np.einsum("k,kn,n,kn->", wk, ud, w, ud))
        scale = ops.grid.sigma
    return (misfit + config.beta * fem.inner_product(tot, tot, w)
            + config.A * scale * fem.inner_product(diff, diff, w)
            - propagated)
