"""The exact value of an algebra element, shared by the tests."""

from fractions import Fraction

from stationarylab.freegroup import Word


def exact(x):
    """{support word: (real part, imaginary part)} as Fractions."""
    words = x.re.keys() | x.im.keys()
    return {Word(w, x.rank): (Fraction(x.re.get(w, 0), x.den), Fraction(x.im.get(w, 0), x.den))
            for w in words}


def fractions_of(c):
    """A complex float's two parts at their exact binary values."""
    return Fraction(c.real), Fraction(c.imag)
