"""Exception types shared across the package."""


class TaskAllocError(Exception):
    """Base class for all taskalloc errors."""


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
    """A per-agent vector has the wrong length."""

    def __init__(self, expected: int, got: int, what: str = "allocation"):
        self.expected = expected
        self.got = got
        super().__init__(f"{what} has length {got}, expected {expected}")


class InfeasibleError(TaskAllocError):
    """The total task is outside the range the bounds admit."""


class NonpositiveLambdaError(TaskAllocError):
    """Inverse marginal of the exponential family needs a positive level."""

    def __init__(self, lam: float):
        self.lam = lam
        super().__init__(f"marginal-cost level must be positive, got {lam}")


class StepOverflowError(TaskAllocError):
    """A replicator step produced a negative or non-finite load."""

    def __init__(self, agents: list[int], step_index: int | None = None):
        self.agents = list(agents)
        self.step_index = step_index
        where = f" at step {step_index}" if step_index is not None else ""
        super().__init__(
            f"replicator step overflow{where} for agents {self.agents}; "
            "reduce the step size"
        )


class NotFeasibleError(TaskAllocError):
    """An allocation expected to lie in the feasible set does not."""


class SamplerStarvedError(TaskAllocError):
    """The feasible region is too thin to sample."""


class CostOverflowError(TaskAllocError):
    """A total cost is not a finite float."""


class DimensionTooLargeError(TaskAllocError):
    """The grid oracle only handles small agent counts."""


class EmptyGridError(TaskAllocError):
    """No grid point satisfies the sum and box constraints."""


class ParseError(TaskAllocError):
    """A problem file is malformed; the message names the offending field."""


class UnknownExampleError(TaskAllocError):
    """No bundled instance with the requested id."""

    def __init__(self, example_id: str, known: list[str]):
        self.example_id = example_id
        super().__init__(
            f"unknown example {example_id!r}; available: {', '.join(known)}"
        )
