from hial import kernels


def test_selected_backend_exports():
    assert kernels.BACKEND == "python"
