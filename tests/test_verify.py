"""The identity suites keep every instance, and none of them specializes an
expanded polynomial."""

from rootedpoly import oracle, verify

INSTANCES = {
    "products": {
        "coalescence-substitution": 180,
        "rooted-product-stripped-attachments": 210,
        "rooted-product-stripped-core": 210,
        "uniform-product-substitution": 180,
        "uniform-product-expansion": 180,
        "attachment-power-divisibility": 52,
    },
    "bipartite": {
        "restricted-expansion": 72,
        "restricted-substitution": 72,
        "one-sided-larger-part": 48,
        "one-sided-smaller-part": 40,
        "reciprocal-isospectral": 24,
        "zero-root-divisibility": 72,
        "bipartite-structure": 6,
    },
    "spectral": {
        "core-roots-product": 144,
        "loop-attachment-product": 144,
        "squared-roots-product": 30,
        "one-sided-squared-roots": 40,
        "edge-join-product": 30,
    },
    "dendrimer": {
        "path-eigenvalues": 9,
        "branch-monoid": 7,
        "factorized-scaling": 2,
    },
}


def test_all_suites_keep_every_instance_without_specialize(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a verify suite expanded a polynomial and specialized it")

    monkeypatch.setattr(oracle, "specialize", refuse)
    reports = verify.run_suites(list(verify.SUITES))
    got = {r.suite: {i.identity: i.instances for i in r.identities} for r in reports}
    assert got == INSTANCES
    assert [(r.suite, i.identity, i.detail) for r in reports for i in r.identities
            if i.failures] == []
