"""Cache model tests."""

from repro.timing.caches import ColdFootprintModel


class TestColdFootprintModel:
    def test_first_touch_charges(self):
        model = ColdFootprintModel()
        assert model.touch(0x1000, 64, charge=180) == 180
        assert model.touch(0x1000, 64, charge=180) == 0  # warm now

    def test_multi_line_ranges(self):
        model = ColdFootprintModel()
        assert model.touch(0x1000, 200, charge=10) == 40  # 4 lines
        assert model.cold_lines == 4

    def test_partial_overlap(self):
        model = ColdFootprintModel()
        model.touch(0x1000, 64, charge=10)
        assert model.touch(0x1020, 96, charge=10) == 10  # one new line

    def test_is_warm(self):
        model = ColdFootprintModel()
        model.touch(0x1000, 1, charge=5)
        assert model.is_warm(0x1010)
        assert not model.is_warm(0x2000)

    def test_cycle_accounting(self):
        model = ColdFootprintModel()
        model.touch(0, 64, 7)
        model.touch(64, 64, 7)
        assert model.cold_cycles == 14
