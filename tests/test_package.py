import mlvkit

REMOVED = ["poly_arith", "tangent_direction", "alg_max_evidence", "value_group_p_divisible",
           "report_from_json", "MaxAttained", "NoMaxEvidence",
           "GradedTerm", "TwistTable", "ExpansionResult"]


def test_public_names_resolve():
    for name in mlvkit.__all__:
        assert hasattr(mlvkit, name), name
    assert len(set(mlvkit.__all__)) == len(mlvkit.__all__)
    for name in REMOVED:
        assert name not in mlvkit.__all__ and not hasattr(mlvkit, name), name


def test_one_graded_element_type():
    import inspect
    from mlvkit import graded, parsing
    for name in ("GradedTerm", "TwistTable", "from_term", "zero_element", "term_pow"):
        assert not hasattr(graded, name), name
    for mod in (graded, parsing):
        for fn in vars(mod).values():
            if inspect.isfunction(fn):
                assert "table" not in inspect.signature(fn).parameters, fn.__name__
