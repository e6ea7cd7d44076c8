"""A hypothesis strategy for short-step laws, shared by the tests."""

from hypothesis import strategies as st

from stationarylab.freegroup import Word
from stationarylab.walks import GroupMeasure


@st.composite
def short_step_laws(draw):
    """Uniform laws on one to four words of length 0..3, on ranks 1..3."""
    rank = draw(st.integers(1, 3))
    letters = st.lists(st.integers(0, 2 * rank - 1), max_size=3)
    words = draw(st.lists(letters.map(lambda lt: Word(lt, rank)), min_size=1, max_size=4,
                          unique=True))
    return GroupMeasure.uniform_on(words)
