import subdiff

REMOVED = ("eval_points", "mlf", "write_debug_csv", "write_matrix_market")


def test_public_api_all_resolves():
    namespace = {}
    exec("from subdiff import *", namespace)  # AttributeError for a listed name that is missing
    assert set(subdiff.__all__) <= set(namespace)
    for name in REMOVED:
        assert name not in subdiff.__all__ and not hasattr(subdiff, name)
