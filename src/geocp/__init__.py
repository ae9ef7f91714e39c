"""geocp: a simulation lab for SIS epidemics on random geometric graphs.

Graph construction, point-process sampling, site and oriented percolation
with exact small-instance oracles, a contact-process engine with coupling
and duality support, closed-form bounds, and the statistics needed to test
extinction-time scaling and the unit-exponential metastability limit.
"""

from .bounds import log_extinction_time_bound, rgg_log_tau_scale
from .contact import (ContactConfig, LitSnapshot, TauSample, birth_death_clique_simulate,
                      lit_snapshots, record_event_window, sample_extinction_times,
                      simulate_coupled, simulate_extinction, simulate_rate_coupled)
from .errors import BudgetExceededError
from .exact import (clique_extinction_rates, exact_expected_extinction_ctmc,
                    log_exact_clique_extinction, sample_clique_extinction_times)
from .graphs import (CaterpillarGraph, CaterpillarSpec, Graph, build_caterpillar,
                     build_complete, random_connected_graph)
from .percolation import (OrientedRun, SiteGrid, find_long_open_path,
                          full_interval_initial, glue_plane_paths,
                          longest_open_path_exact, op_exact_survival,
                          op_extinction_profile_exact, op_first_passage, op_run,
                          op_survival_frequency, sample_site_grid)
from .rgg import (CaterpillarEmbedding, GeometryConfig, PointCloud, build_rgg,
                  discretize_boxes, embedding_is_valid, find_caterpillar_embedding,
                  sample_poisson_points)
from .stats import fit_loglinear, ks_to_exp1, tau_summary

__version__ = "0.1.0"
