import re

import numpy as np
import pytest

from graphrates.seeds import derive_child_seed

REFUSAL = r"seed must be an integer in \[0, 2\*\*64\), got "


@pytest.mark.parametrize("bad", [7.9, True, -1, 2 ** 64],
                         ids=["fraction", "bool", "negative", "past-64-bits"])
def test_child_seed_coordinates_refuse_what_is_not_a_64_bit_integer(bad):
    # each coordinate was read as int(x) & (2**64 - 1): 7.9 ran as 7, True as 1, -1 as
    # 2**64 - 1 and 2**64 as 0
    for call in (lambda: derive_child_seed(bad, 1), lambda: derive_child_seed(7, bad),
                 lambda: derive_child_seed(7, 1, bad)):
        with pytest.raises(ValueError, match=REFUSAL + re.escape(repr(bad))):
            call()


def test_child_seed_coordinates_read_whole_numbers_as_their_integers():
    top = 2 ** 64 - 1
    assert derive_child_seed(np.uint64(top), np.int64(3), 7.0) == derive_child_seed(top, 3, 7)
