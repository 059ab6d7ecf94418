"""reference_units divides each operation's time by the median kernel time
of the run. Run with: python3 -m pytest perfbench/test_reference.py"""

from __future__ import annotations

import pytest

from reference import reference_units


def test_hand_worked_case():
    # kernel times 1, 3 and 2: the median is 2
    assert reference_units([2.0, 6.0], [1.0, 3.0, 2.0]) == [1.0, 3.0]


def test_a_slowdown_of_operations_and_kernel_together_cancels():
    ops, kernel = [0.2, 0.5, 0.3], [0.01, 0.011, 0.009, 0.01]
    slowed = reference_units([1.3 * t for t in ops], [1.3 * t for t in kernel])
    assert slowed == pytest.approx(reference_units(ops, kernel))
