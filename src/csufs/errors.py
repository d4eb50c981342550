"""Exception types shared across the package."""


class CsufsError(Exception):
    """Base class for every error this library raises on purpose."""


class EmptyMatrix(CsufsError):
    pass


class NonFiniteEntry(CsufsError):
    def __init__(self, row: int, col: int):
        super().__init__(f"non-finite value at row {row}, column {col}")
        self.row = row
        self.col = col


class KTooLarge(CsufsError):
    pass


class TooFewSamples(CsufsError):
    pass


class LengthMismatch(CsufsError):
    pass


class ParseError(CsufsError):
    def __init__(self, row: int, col: int, token: str):
        super().__init__(f"cannot parse {token!r} at row {row}, column {col}")
        self.row = row
        self.col = col
        self.token = token


class RaggedRows(CsufsError):
    pass


class MalformedCsv(CsufsError):
    """A line the csv module cannot split into fields, such as one holding
    a field over its size limit."""


class LabelColumnMissing(CsufsError):
    pass
