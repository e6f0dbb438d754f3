"""Tests for the truncated occupation-number engine."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gravodyn import errors
from gravodyn.fock import (
    DEFAULT_CONFIG_CAP,
    GRAV,
    MATTER,
    ModeSpace,
    OccupationConfig,
    SizeLimitError,
    ModeOverflowError,
    _bounded_tuples,
    apply_ladder,
    apply_ladder_string,
    enumerate_configs,
)


def brute_force_configs(space):
    """Independent enumeration: filter the full occupation product."""
    out = []
    matter = itertools.product(range(space.n_max + 1), repeat=space.n_matter_modes)
    for m in matter:
        if space.sector is not None and sum(m) != space.sector:
            continue
        grav = itertools.product(range(space.n_max + 1), repeat=space.n_gravonon_modes)
        for g in grav:
            if space.grav_sector is not None and sum(g) != space.grav_sector:
                continue
            out.append(OccupationConfig(m, g))
    return out


class TestEnumeration:
    def test_two_modes_nmax1(self):
        space = ModeSpace(n_matter_modes=2, n_gravonon_modes=0, n_max=1)
        configs = enumerate_configs(space)
        assert [c.matter_occ for c in configs] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_vacuum_only(self):
        space = ModeSpace(n_matter_modes=0, n_gravonon_modes=0, n_max=1)
        configs = enumerate_configs(space)
        assert configs == [OccupationConfig((), ())]

    def test_single_quantum_sector(self):
        space = ModeSpace(n_matter_modes=4, n_gravonon_modes=0, n_max=1, sector=1)
        configs = enumerate_configs(space)
        assert configs == brute_force_configs(space)
        assert [c.matter_occ for c in configs] == [
            (0, 0, 0, 1),
            (0, 0, 1, 0),
            (0, 1, 0, 0),
            (1, 0, 0, 0),
        ]

    def test_size_cap_names_cap(self):
        space = ModeSpace(n_matter_modes=4, n_gravonon_modes=4, n_max=3, config_cap=100)
        with pytest.raises(errors.SizeLimitError, match="exceeds cap of 100"):
            enumerate_configs(space)

    def test_exceptions_are_the_package_wide_classes(self):
        assert SizeLimitError is errors.SizeLimitError
        assert ModeOverflowError is errors.ModeOverflowError
        assert DEFAULT_CONFIG_CAP is errors.DEFAULT_CONFIG_CAP

    @settings(max_examples=80, deadline=None)
    @given(
        n_modes=st.integers(0, 6),
        n_max=st.integers(0, 3),
        total=st.none() | st.integers(0, 10),
    )
    def test_bounded_tuples_match_filtered_product(self, n_modes, n_max, total):
        expected = [
            occ for occ in itertools.product(range(n_max + 1), repeat=n_modes)
            if total is None or sum(occ) == total
        ]
        assert list(_bounded_tuples(n_modes, n_max, total)) == expected

    def test_more_modes_than_the_recursion_limit(self):
        # a telegraph-sized space with a 1200-level gravonon band
        space = ModeSpace(
            n_matter_modes=4, n_gravonon_modes=1200, n_max=1, sector=1, grav_sector=1
        )
        configs = enumerate_configs(space)
        assert len(configs) == 4 * 1200
        assert configs[0] == OccupationConfig((0, 0, 0, 1), (0,) * 1199 + (1,))
        assert configs[-1] == OccupationConfig((1, 0, 0, 0), (1,) + (0,) * 1199)
        keys = [c.matter_occ + c.grav_occ for c in configs[:1300]]
        assert all(a < b for a, b in zip(keys, keys[1:]))

    def test_mixed_sectors_match_brute_force(self):
        space = ModeSpace(
            n_matter_modes=3, n_gravonon_modes=4, n_max=2, sector=1, grav_sector=2
        )
        assert enumerate_configs(space) == brute_force_configs(space)

    @settings(max_examples=60, deadline=None)
    @given(
        n_matter=st.integers(0, 3),
        n_grav=st.integers(0, 3),
        n_max=st.integers(0, 3),
        use_sector=st.booleans(),
        use_grav_sector=st.booleans(),
        sector=st.integers(0, 4),
        grav_sector=st.integers(0, 4),
    )
    def test_matches_brute_force(
        self, n_matter, n_grav, n_max, use_sector, use_grav_sector, sector, grav_sector
    ):
        space = ModeSpace(
            n_matter_modes=n_matter,
            n_gravonon_modes=n_grav,
            n_max=n_max,
            sector=sector if use_sector else None,
            grav_sector=grav_sector if use_grav_sector else None,
        )
        configs = enumerate_configs(space)
        assert configs == brute_force_configs(space)
        # strictly ordered (hence duplicate-free) on concatenated occupations
        keys = [c.matter_occ + c.grav_occ for c in configs]
        assert all(a < b for a, b in zip(keys, keys[1:]))


class TestLadder:
    def test_raise_on_empty(self):
        c = OccupationConfig((0,), ())
        new, amp = apply_ladder(c, MATTER, 0, "raise", n_max=2)
        assert new.matter_occ == (1,)
        assert amp == 1.0

    def test_lower_on_empty_is_zero_result(self):
        c = OccupationConfig((0,), ())
        new, amp = apply_ladder(c, MATTER, 0, "lower", n_max=2)
        assert new is None
        assert amp == 0.0

    def test_raise_past_truncation_signals(self):
        c = OccupationConfig((), (2,))
        with pytest.raises(ModeOverflowError):
            apply_ladder(c, GRAV, 0, "raise", n_max=2)

    def test_commutator_amplitudes_at_n3(self):
        c = OccupationConfig((3,), ())
        up = [(MATTER, 0, "raise"), (MATTER, 0, "lower")]
        down = [(MATTER, 0, "lower"), (MATTER, 0, "raise")]
        c_up, amp_up = apply_ladder_string(c, up, n_max=4)
        c_down, amp_down = apply_ladder_string(c, down, n_max=4)
        assert c_up == c and c_down == c
        assert amp_up == 4.0
        assert amp_down == 3.0
        assert amp_up - amp_down == 1.0

    def test_annihilating_string_is_zero(self):
        c = OccupationConfig((0, 1), ())
        ops = [(MATTER, 0, "lower"), (MATTER, 1, "raise")]
        new, amp = apply_ladder_string(c, ops, n_max=3)
        assert new is None and amp == 0.0

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(0, 6),
        n_max=st.integers(1, 8),
        family=st.sampled_from([MATTER, GRAV]),
    )
    def test_commutation_relation_exact(self, n, n_max, family):
        """[b, b†] = 1, exactly, for every occupation below truncation."""
        if n >= n_max:
            n = n_max - 1
        if family == MATTER:
            c = OccupationConfig((n,), ())
        else:
            c = OccupationConfig((), (n,))
        bb_dag = [(family, 0, "raise"), (family, 0, "lower")]
        b_dag_b = [(family, 0, "lower"), (family, 0, "raise")]
        _, amp_bb = apply_ladder_string(c, bb_dag, n_max)
        _, amp_db = apply_ladder_string(c, b_dag_b, n_max)
        assert amp_bb - amp_db == 1.0

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 7), n_max=st.integers(1, 8))
    def test_single_step_amplitudes(self, n, n_max):
        n = min(n, n_max)
        c = OccupationConfig((n,), ())
        lowered, amp = apply_ladder(c, MATTER, 0, "lower", n_max)
        assert lowered.matter_occ == (n - 1,)
        assert amp == pytest.approx(n**0.5)
        if n < n_max:
            raised, amp_up = apply_ladder(c, MATTER, 0, "raise", n_max)
            assert raised.matter_occ == (n + 1,)
            assert amp_up == pytest.approx((n + 1) ** 0.5)
