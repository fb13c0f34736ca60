"""Event-triggered, self-triggered, time-triggered and periodic
event-triggered stabilization from control Lyapunov functions, with
dwell-time estimates and reproducible numerical experiments."""

from .core import (ClfCertificate, ControlSystem, EnergyTimeMap, RateFunction,
                   rowwise, verify_clf_pointwise)
from .certificates import (CertificateConstants, EstimateReport, SublevelRegion,
                           bound_sublevel_box, compute_mu, estimate_big_m,
                           estimate_constants, estimate_kappa, estimate_nu,
                           estimate_rho, sample_in_region)
from .dwell import (DwellEstimate, DwellInputs, admissible_period, c_bound,
                    tau_min_over_sublevel, tau_select, tau0_select)
from .engine import (IntegratorConfig, Trajectory, check_rate_certificate,
                     integrate_frozen, locate_event, run_closed_loop,
                     run_stats, write_trajectory_csv)
from .errors import (BlowupError, ClfetcError, ConfigurationError,
                     DimensionMismatchError, DomainError, IntegrationError,
                     NonDegeneracyError, PropernessError)
from .models import (MODEL_NAMES, Model, acc_backstepping, build_model,
                     homogeneous_planar, relay_1d, zeno_first_event_bound,
                     zeno_polar)
from .triggers import (EventTriggered, PeriodicEventTriggered, SelfTriggered,
                       TimeTriggered, frozen_guard, predicate_p)

__version__ = "0.1.0"
