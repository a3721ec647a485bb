"""Exception types shared across the package."""


class ProtocolError(Exception):
    """Base class for protocol-level rule violations."""


class UnknownMemberError(ProtocolError):
    """An operation named an identifier that is not a member."""


class AlreadyMemberError(ProtocolError):
    """A join step named an identifier that is already a member."""


class FailUnsafeError(ProtocolError):
    """An unforced fail would break the invariant among the survivors."""


class NoCandidateError(ProtocolError):
    """Predecessor lookup found no member covering the joiner's identifier."""


class NoPendingStabilizeError(ProtocolError):
    """Stabilize-from-predecessor ran without a captured candidate."""


class StabilizeInProgressError(ProtocolError):
    """A member started a new stabilize while one is still in flight."""


class NoPendingNotifyError(ProtocolError):
    """Rectify ran for a notification that is not pending."""


class InvalidInitialStateError(ProtocolError):
    """A run required a valid initial state and the state is not one."""


class ReplayMismatchError(Exception):
    """Replaying a trace diverged from its recorded digests or flags."""


class TraceFormatError(Exception):
    """A trace file is malformed or self-inconsistent."""


class ScenarioFormatError(Exception):
    """A scenario file failed schema validation."""
