"""Exact arithmetic in free tensor algebras over the integers.

Generators are degree-1 symbols drawn from the fixed ordered alphabet
u1 < u2 < u3 < u4 < v < w < x1 < x2.  An algebra context is just the
number of leading generators in play: 6 for the inner algebra on
u1..u4, v, w and 8 for the full algebra that adds x1, x2.

A word is a tuple of generator indices (the empty tuple is the unit);
an element is a finitely supported integer combination of words.  All
coefficients are plain Python ints, so nothing ever overflows.
"""

from __future__ import annotations

GENERATOR_NAMES = ("u1", "u2", "u3", "u4", "v", "w", "x1", "x2")
U1, U2, U3, U4, V, W, X1, X2 = range(8)
_NAME_TO_INDEX = {name: i for i, name in enumerate(GENERATOR_NAMES)}

# Bracket sign conventions.  "graded" treats every generator as odd, so
# [f,g] = fg - (-1)^{|f||g|} gf (a sum when both degrees are odd);
# "ungraded" is the plain commutator fg - gf.  The graded convention is
# the package default; the consistency suite in `action` validates the
# choice rather than assuming it.
GRADED = "graded"
UNGRADED = "ungraded"
CONVENTIONS = (GRADED, UNGRADED)
DEFAULT_CONVENTION = GRADED

Word = tuple


def check_convention(convention: str) -> None:
    """Refuse a sign convention outside CONVENTIONS."""
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown sign convention {convention!r}")


def gen_index(name: str) -> int:
    """Index of a generator name in the fixed order."""
    try:
        return _NAME_TO_INDEX[name]
    except KeyError:
        raise ValueError(f"unknown generator {name!r}") from None


def word_rank(word: Word, num_gens: int) -> int:
    """Position of word among the words of its length over num_gens generators, in lexicographic order."""
    r = 0
    for g in word:
        if g >= num_gens:
            raise ValueError(f"generator index {g} outside context of {num_gens} generators")
        r = r * num_gens + g
    return r


class Element:
    """An integer combination of words, kept in canonical form.

    `terms` maps words to nonzero coefficients.  Elements are treated as
    immutable: operations always build new instances and never mutate
    their inputs.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        self.terms = {w: c for w, c in (terms or {}).items() if c}
        self._hash = None

    @staticmethod
    def _wrap(terms: dict) -> "Element":
        """An element that takes `terms`, holding no zero coefficient, without a copy."""
        e = Element.__new__(Element)
        e.terms = terms
        e._hash = None
        return e

    @classmethod
    def zero(cls) -> "Element":
        return cls()

    @classmethod
    def unit(cls) -> "Element":
        return cls({(): 1})

    @classmethod
    def gen(cls, index: int) -> "Element":
        """The degree-1 element for a generator index."""
        return cls({(index,): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self) -> bool:
        lengths = {len(w) for w in self.terms}
        return len(lengths) <= 1

    def degree(self):
        """Common word length, or None for the zero element.

        Raises ValueError on a mixed-degree element.
        """
        lengths = {len(w) for w in self.terms}
        if not lengths:
            return None
        if len(lengths) > 1:
            raise ValueError("element is not homogeneous")
        return lengths.pop()

    def __eq__(self, other):
        return isinstance(other, Element) and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __add__(self, other: "Element") -> "Element":
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w, 0) + c
            if s:
                out[w] = s
            else:
                out.pop(w, None)
        return Element._wrap(out)

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __neg__(self) -> "Element":
        return Element._wrap({w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        """Concatenation product, or scalar action for int operands."""
        if isinstance(other, int):
            if other == 0:
                return Element.zero()
            return Element._wrap({w: c * other for w, c in self.terms.items()})
        out: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                s = out.get(w, 0) + c1 * c2
                if s:
                    out[w] = s
                else:
                    del out[w]
        return Element._wrap(out)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __repr__(self):
        return f"Element({format_element(self)!r})"


def bracket(f: Element, g: Element, convention: str = DEFAULT_CONVENTION) -> Element:
    """Commutator of two homogeneous elements under the given convention.

    graded:   fg - (-1)^{|f||g|} gf, so fg + gf when both degrees are odd;
    ungraded: fg - gf.
    """
    check_convention(convention)
    if f.is_zero() or g.is_zero():
        return Element.zero()
    df = f.degree()
    dg = g.degree()
    fg = f * g
    gf = g * f
    if convention == UNGRADED or (df * dg) % 2 == 0:
        return fg - gf
    return fg + gf


def _term_key(word: Word):
    return (len(word), word)


def format_element(e: Element) -> str:
    """Render an element in the canonical text format.

    Terms are joined by " + " in length-lex word order; each term is
    "<integer>*<gen>.<gen>..." with the empty word spelled "1".  The zero
    element is "0".
    """
    if e.is_zero():
        return "0"
    parts = []
    for word in sorted(e.terms, key=_term_key):
        coeff = e.terms[word]
        body = ".".join(GENERATOR_NAMES[g] for g in word) if word else "1"
        parts.append(f"{coeff}*{body}")
    return " + ".join(parts)


def parse_element(text: str, num_gens: int = 8) -> Element:
    """Inverse of format_element; validates generators against the context."""
    text = text.strip()
    if text == "0":
        return Element.zero()
    terms: dict = {}
    for part in text.split(" + "):
        coeff_text, _, body = part.partition("*")
        names = body.split(".")
        try:
            coeff = int(coeff_text) if all(name.isalnum() for name in names) else None
        except ValueError:
            coeff = None
        if coeff is None:
            raise ValueError(f"malformed term {part!r}: terms are COEFF*g1.g2 joined by ' + ', as in 1*u4.w + -1*w.u4")
        if body == "1":
            word: Word = ()
        else:
            word = tuple(gen_index(name) for name in names)
        for g in word:
            if g >= num_gens:
                raise ValueError(
                    f"generator {GENERATOR_NAMES[g]} outside context of {num_gens} generators"
                )
        if word in terms:
            raise ValueError(f"duplicate word in {text!r}")
        terms[word] = coeff
    return Element(terms)
