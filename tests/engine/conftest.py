"""Every engine test runs under the pin-leak check: whatever path a query
left by, the catalog view it pinned was handed back."""

from __future__ import annotations

import pytest

from repro.testing import no_leaked_pins


@pytest.fixture(autouse=True)
def pin_census():
    with no_leaked_pins():
        yield
