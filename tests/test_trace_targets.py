"""The benchmark's traced call sites exist in the package."""

from perfbench.layers import targets


def test_every_traced_call_site_is_a_callable_module_attribute():
    # a refactor that drops a name a traced run patches fails here, in
    # the tier-1 suite, and not only in the traced benchmark pass
    for module, attribute, span, _ in targets():
        assert callable(getattr(module, attribute, None)), (module.__name__, attribute, span)
