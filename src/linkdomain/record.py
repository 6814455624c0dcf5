"""Record, the base of the election model's value types and of the
recognizer's results. It sits apart from model so that the recognizer
loads without the election model and the profile readers."""


class Record:
    """Base of the package's immutable value types. A subclass lists its
    fields in __slots__, in constructor order, and fills them in __init__
    with _fill(). Records compare and hash by their field values, and only
    with records of the same class; repr() shows every field; positional
    match patterns and pickling take the fields in that order; assigning or
    deleting a field raises AttributeError."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls.__slots__

    def _fill(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()
