from repro.perf.rand import DeterministicRng


class TestDeterministicRng:
    def test_same_seed_same_stream(self):
        a = DeterministicRng(42)
        b = DeterministicRng(42)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_string_seeds_are_stable(self):
        a = DeterministicRng("fig3")
        b = DeterministicRng("fig3")
        assert a.random() == b.random()

    def test_different_seeds_differ(self):
        assert DeterministicRng("a").random() != DeterministicRng("b").random()

    def test_fork_is_independent_and_stable(self):
        parent = DeterministicRng(7)
        child1 = parent.fork("worker")
        child2 = DeterministicRng(7).fork("worker")
        assert child1.random() == child2.random()
        other = DeterministicRng(7).fork("other")
        assert child1.root_seed != other.root_seed

    def test_gauss_factor_clamped_positive(self):
        rng = DeterministicRng(1)
        for _ in range(200):
            assert rng.gauss_factor(2.0) >= 0.05

    def test_choices_weighted(self):
        rng = DeterministicRng(3)
        picks = rng.choices(["a", "b"], weights=[1.0, 0.0], k=10)
        assert picks == ["a"] * 10
