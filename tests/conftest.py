from hypothesis import configuration


def pytest_sessionstart(session):
    """Hypothesis caches the constants it reads from the source, even with no
    example database, and does so while tests are collected; keep that cache
    under pytest's temporary directory instead of the working directory."""
    configuration.set_hypothesis_home_dir(session.config._tmp_path_factory.mktemp("hypothesis"))
