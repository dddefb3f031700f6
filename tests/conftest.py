"""Shared pytest hooks."""


def pytest_report_header(config):
    """Name the kernel backend, so a run whose compiled-parity tests skip says why."""
    try:
        import modsquares
        from modsquares._kernels import LIBRARY
    except ImportError as exc:
        return f"modsquares kernels: package not importable ({exc})"
    if modsquares.KERNEL_BACKEND == "compiled":
        return f"modsquares kernels: compiled, {LIBRARY}"
    return (f"modsquares kernels: {modsquares.KERNEL_BACKEND}; {LIBRARY} is not built or does not load, "
            "so the compiled-parity tests will skip")
