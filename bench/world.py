"""The OUTBREAK_SIM world the benchmark runs on, and its timed set-up.

``OUTBREAK_SIM`` is a copy of ``tests/test_acceptance.py::OUTBREAK_SIM``;
``test_bench.py`` fails if the two drift apart. The world keeps the copy's
network (15,000 nodes) and the first 10,000 of its 30,000 cascades. Each cascade is drawn from its own generator, seeded by
(seed, 2, index), and its root from a prefix of one stream, so these are the
same cascades the acceptance world starts with. Generating all 30,000 takes
about 15 s on a 2-core host, too long to repeat within one run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from cascadyn.features import extract_features, extract_subcascades, filter_cascades
from cascadyn.fitting import FitOptions, fit_model
from cascadyn.simulate import SimConfig, gen_cascades, gen_network, gen_user_dynamics

from spans import count_samples, traced_fit

OUTBREAK_SIM = SimConfig(
    n_nodes=15_000, n_cascades=30_000, seed=2024,
    retweet_prob=0.02, retweet_noise_sigma=1.8,
    root_weighting="followers",
    degree_exponent=2.35, min_degree=2, max_degree=8000,
    scale_base=1800.0, shape_base=0.9,
    beta_true=(0.2, 0, 0, 0, 0, 0),
    gamma_true=(-0.05, 0, 0, 0, 0, 0),
    scale_noise_sigma=1.1, shape_noise_sigma=0.45,
    horizon=5 * 86400.0,
)

DEFAULT_WORLD_SEED = OUTBREAK_SIM.seed
MIN_SIZE = 5  # cascades kept, as in the acceptance world
FIT_OPTIONS = FitOptions()  # the defaults of ``cascadyn fit``


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark configuration."""

    world: SimConfig
    setup_repeats: int          # set-ups per run; setup_s is their median
    crossval_folds: int
    stream_min_events: int      # stream cascades have at least this many events


# With fewer than about 1,000 training cascades per fold, loglinear can
# outscore newer at some prefix size, so the crossval ranking check needs
# this many cascades; cox's fit makes one crossval pass last 11-19 s on a
# 2-core host.
FULL = Scale(
    world=replace(OUTBREAK_SIM, n_cascades=10_000),
    setup_repeats=2,
    crossval_folds=2,
    stream_min_events=300,
)

# A tiny world for the benchmark's own tests: every code path, in seconds.
SMOKE = Scale(
    world=replace(OUTBREAK_SIM, n_nodes=1500, n_cascades=1500, max_degree=600),
    setup_repeats=1,
    crossval_folds=2,
    stream_min_events=60,
)


@dataclass
class World:
    net: object
    cascades: list           # kept cascades, cascade-id order
    features: object | None = None
    model: object | None = None


def build_world(cfg: SimConfig, tracer, *, fit: bool) -> World:
    """Generate the network, dynamics and cascades, keep cascades with at
    least MIN_SIZE events and, when ``fit`` is set, extract subcascades and
    features and fit a ``newer`` model on every kept cascade."""
    with tracer.span("simulate.gen_network"):
        net = gen_network(cfg)
    with tracer.span("simulate.gen_user_dynamics"):
        dynamics = gen_user_dynamics(net, cfg)
    with tracer.span("simulate.gen_cascades"):
        generated = gen_cascades(net, cfg, dynamics)
    with tracer.span("features.filter_cascades"):
        kept = filter_cascades(generated, MIN_SIZE)
    if tracer.enabled:
        tracer.count("simulate.events", sum(c.size for c in kept))
        tracer.count("simulate.cascades_kept", len(kept))
    world = World(net=net, cascades=kept)
    if fit:
        with tracer.span("features.extract_subcascades"):
            samples = extract_subcascades(kept)
        with tracer.span("features.extract_features"):
            world.features = extract_features(net, kept)
        if tracer.enabled:
            tracer.count("features.calls")
            count_samples(tracer, samples, FIT_OPTIONS.min_events)
        world.model, _ = traced_fit(tracer, fit_model, "newer", samples, world.features,
                                    options=FIT_OPTIONS)
    return world
