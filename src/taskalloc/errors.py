"""Exception types shared across the package.

Each class carries the ``slug``, the ``exit_code`` and an optional
``hint`` that the command line reports for it; the base class's pair
marks a numerical failure.
"""


class TaskAllocError(Exception):
    """Base class for all taskalloc errors."""

    slug, exit_code = "numerical", 4
    hint = None


class SelfLoopError(TaskAllocError):
    """An edge connects a node to itself."""

    def __init__(self, node: int):
        self.node = node
        super().__init__(f"self-loop at node {node}")


class NodeOutOfRangeError(TaskAllocError):
    """A node index falls outside 0..n-1."""

    def __init__(self, node: int, n: int):
        self.node = node
        self.n = n
        super().__init__(f"node {node} out of range for {n} nodes")


class DisconnectedError(TaskAllocError):
    """The interaction graph is not connected."""

    def __init__(self, unreachable: list[int]):
        self.unreachable = sorted(unreachable)
        super().__init__(
            f"graph is not connected; unreachable from node 0: {self.unreachable}"
        )


class LengthMismatchError(TaskAllocError):
    """A per-agent vector has the wrong length, or (got is its shape) the wrong axes."""

    def __init__(self, expected: int, got, what: str = "allocation"):
        self.expected = expected
        self.got = got
        found = f"shape {got}" if isinstance(got, tuple) else f"length {got}"
        super().__init__(f"{what} has {found}, expected {expected}")


class InfeasibleError(TaskAllocError):
    """The total task is outside the range the bounds admit."""

    slug, exit_code = "infeasible", 3


class NonpositiveLambdaError(TaskAllocError):
    """Inverse marginal of the exponential family needs a positive level."""

    def __init__(self, lam: float):
        self.lam = lam
        super().__init__(f"marginal-cost level must be positive, got {lam}")


class StepOverflowError(TaskAllocError):
    """The replicator step from state `step_index` produced a negative or
    non-finite load for `agents`."""

    slug = "step-overflow"
    hint = "try halving --dt"

    def __init__(self, agents: list[int], step_index: int):
        self.agents = list(agents)
        self.step_index = step_index
        super().__init__(
            f"replicator step overflow at step {step_index} for agents {self.agents}; "
            "reduce the step size"
        )


class NotFeasibleError(TaskAllocError):
    """An allocation expected to lie in the feasible set does not."""


class CostOverflowError(TaskAllocError):
    """A cost is not a finite float, or a marginal cost at a bound is 0 or inf."""


class DimensionTooLargeError(TaskAllocError):
    """The grid oracle only handles small agent counts."""

    slug, exit_code = "config", 2


class EmptyGridError(TaskAllocError):
    """No grid point satisfies the sum and box constraints."""

    slug, exit_code = "config", 2


class ParseError(TaskAllocError):
    """A problem file is malformed; the message names the offending field."""

    slug, exit_code = "parse", 2


class UnknownExampleError(TaskAllocError):
    """No bundled instance with the requested id."""

    slug, exit_code = "unknown-example", 2

    def __init__(self, example_id: str, known: list[str]):
        self.example_id = example_id
        super().__init__(
            f"unknown example {example_id!r}; available: {', '.join(known)}"
        )
