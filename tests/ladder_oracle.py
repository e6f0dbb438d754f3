"""Ladder-operator oracle for the telegraph model, shared by the test modules.

``ladder_reference`` builds the whole one-matter, one-gravonon sector of the
two-site model from its second-quantized terms with ``fock``, independently
of ``models.build_telegraph``.
"""

import numpy as np

from gravodyn.fock import GRAV, MATTER, ModeSpace, apply_ladder_string, enumerate_configs


def a_dag_a(family, i, j):
    """The string a+_i a_j of one mode family, annihilation acting first."""
    return [(family, j, "lower"), (family, i, "raise")]


def ladder_reference(site_1, site_2):
    """The sector's configurations and the telegraph matrix of two sites over them.

    Applies every term, with its Hermitian conjugate, to every configuration
    that ``fock.enumerate_configs`` lists for one matter quantum in the
    modes (g1, w1, g2, w2) and one gravonon quantum in the modes
    (local 1, band 1 ..., local 2, band 2 ...):

        H = sum_i [ E_g_i n_g_i + E_w_i n_w_i + V_loc_i (a+_g_i a_w_i + h.c.)
                    + eps_grav_i b+_grav_i b_grav_i + sum_k eps_k_i b+_k_i b_k_i
                    + V_gw_i n_w_i sum_k (b+_grav_i b_k_i + h.c.) ]

    Row and column j of the matrix belong to ``configs[j]``.
    """
    n1, n2 = len(site_1.band), len(site_2.band)
    loc_1, loc_2 = 0, 1 + n1
    band_1 = range(1, 1 + n1)
    band_2 = range(2 + n1, 2 + n1 + n2)
    terms = [
        (a_dag_a(MATTER, 0, 0), site_1.e_g),
        (a_dag_a(MATTER, 1, 1), site_1.e_w),
        (a_dag_a(MATTER, 2, 2), site_2.e_g),
        (a_dag_a(MATTER, 3, 3), site_2.e_w),
        (a_dag_a(MATTER, 0, 1), site_1.v_loc),
        (a_dag_a(MATTER, 1, 0), site_1.v_loc),
        (a_dag_a(MATTER, 2, 3), site_2.v_loc),
        (a_dag_a(MATTER, 3, 2), site_2.v_loc),
        (a_dag_a(GRAV, loc_1, loc_1), site_1.eps_grav),
        (a_dag_a(GRAV, loc_2, loc_2), site_2.eps_grav),
    ]
    terms += [(a_dag_a(GRAV, k, k), e) for k, e in zip(band_1, site_1.band)]
    terms += [(a_dag_a(GRAV, k, k), e) for k, e in zip(band_2, site_2.band)]
    for w, loc, band, v in ((1, loc_1, band_1, site_1.v_gw), (3, loc_2, band_2, site_2.v_gw)):
        for k in band:
            terms.append((a_dag_a(MATTER, w, w) + a_dag_a(GRAV, loc, k), v))
            terms.append((a_dag_a(MATTER, w, w) + a_dag_a(GRAV, k, loc), v))
    configs = enumerate_configs(ModeSpace(4, 2 + n1 + n2, 1, sector=1, grav_sector=1))
    index = {c: i for i, c in enumerate(configs)}
    h = np.zeros((len(configs), len(configs)))
    for ops, coeff in terms:
        for col, ket in enumerate(configs):
            result, amp = apply_ladder_string(ket, ops, 1)
            if result is not None:
                h[index[result], col] += coeff * amp
    return configs, h


def occupied(config):
    """(matter mode, gravonon mode) holding the one quantum of each family."""
    return config.matter_occ.index(1), config.grav_occ.index(1)
