"""The backward rules on the tape, unwrapped for the tests that look inside them.

``custom_op`` sets each node's ``_grad_fn`` to a closure that accumulates
the gradients of the op's own rule into the parent nodes; the op's rule is
the one callable that closure captures.
"""

import numpy as np


def wrapped_rules(node):
    """The callables node's ``_grad_fn`` captures: for a custom_op node, the op's own rule."""
    return [c.cell_contents for c in node._grad_fn.__closure__ if callable(c.cell_contents)]


def rule(t):
    """The op's own backward rule behind a custom_op Tensor, returning its raw gradients."""
    return wrapped_rules(t.node)[0]


def rule_arrays(t):
    """The numpy arrays the op's own backward rule behind t captured."""
    return [c.cell_contents for c in rule(t).__closure__ if isinstance(c.cell_contents, np.ndarray)]
