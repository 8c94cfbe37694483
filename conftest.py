"""Repository-level pytest configuration.

Registers the ``--quick`` flag used by the benchmark suite (it must be
defined in a conftest that pytest loads at startup, which for runs from
the repository root is this one): benchmarks keep every shape assertion
— pushdown plan shapes, ≥1.5× speedup claims — but run on reduced
instance sizes, so CI can gate on them without paying full benchmark
time.
"""


def pytest_addoption(parser):
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help="run benchmarks on reduced sizes (assertions kept)",
    )
    parser.addoption(
        "--verify-plans",
        action="store_true",
        default=False,
        help=(
            "sanitizer mode: run the plan verifier "
            "(repro.analysis.verifier) on every plan the suite produces"
        ),
    )
    parser.addoption(
        "--sanitize",
        action="store_true",
        default=False,
        help=(
            "sanitizer mode: enable the runtime concurrency sanitizer "
            "(repro.analysis.sanitizer) — ownership/affinity checks, "
            "cache-serve re-validation, event-loop blocking detection "
            "— for the whole run"
        ),
    )


def pytest_configure(config):
    # The switch must flip before any module builds a plan; the same
    # effect is available without pytest via REPRO_VERIFY_PLANS=always.
    if config.getoption("--verify-plans"):
        from repro.cq.plan import set_plan_verification

        set_plan_verification("always")
    # Same discipline for the runtime concurrency sanitizer; the same
    # effect is available without pytest via REPRO_SANITIZE=always.
    if config.getoption("--sanitize"):
        from repro.analysis.sanitizer import set_sanitize

        set_sanitize("always")
