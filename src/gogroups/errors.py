"""Exception hierarchy shared by all gogroups modules."""


class GogError(Exception):
    """Base class for all library errors."""


class ShapeMismatch(GogError):
    """An element does not belong to the group it was used with."""


class UnsupportedHom(GogError):
    """A homomorphism shape outside the supported class combinations."""


class UnsupportedClass(GogError):
    """An operation was applied to a group class it does not support."""


class LoopContraction(GogError):
    """Attempt to contract a loop edge."""


class NotIso(GogError):
    """An edge map that was required to be an isomorphism is not one."""


class SpellingFailure(GogError):
    """A vertex-group element could not be spelled in the chosen generators."""


class UnknownLetter(GogError):
    """A word references a letter that is not a presentation generator."""


class NonLoopWord(GogError):
    """A syllable sequence does not close up at its basepoint."""


class OracleIncomplete(GogError):
    """A quotient oracle could not produce an answer (inconclusive, never wrong)."""


class CapExceeded(OracleIncomplete):
    """A capped enumeration hit its cap, or its relator rows proved the group infinite."""


class UnrepresentableImage(GogError):
    """A quotient image falls outside the three computable group classes."""


class InvalidStructure(GogError):
    """A graph / graph-of-groups input violates a structural precondition."""


class GogParseError(GogError):
    """A .gog file failed to parse; carries a position when known."""

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        where = []
        if path is not None:
            where.append(str(path))
        if line is not None:
            where.append(f"line {line}")
        prefix = f"[{': '.join(where)}] " if where else ""
        super().__init__(prefix + message)
